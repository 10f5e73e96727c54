#include "search/result_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "core/fault.hpp"
#include "core/log.hpp"
#include "core/serialize.hpp"
#include "search/eval_cache.hpp"

namespace naas::search {
namespace {

constexpr char kMagic[8] = {'N', 'A', 'A', 'S', 'M', 'A', 'P', 'S'};
constexpr std::size_t kChecksumBytes = 8;
/// Conservative lower bound on a serialized entry (the real minimum is
/// ~258 bytes); bounds the on-file entry count before any allocation.
constexpr std::size_t kMinEntryBytes = 64;

void write_order(core::ByteWriter& w, const mapping::LoopOrder& order) {
  for (nn::Dim d : order) w.u8(static_cast<std::uint8_t>(d));
}

bool read_order(core::ByteReader& r, mapping::LoopOrder& order) {
  for (auto& d : order) {
    const std::uint8_t v = r.u8();
    if (v >= nn::kNumDims) return false;
    d = static_cast<nn::Dim>(v);
  }
  return r.ok();
}

void write_tiles(core::ByteWriter& w, const mapping::TileSizes& tiles) {
  for (int t : tiles) w.i32(t);
}

bool read_tiles(core::ByteReader& r, mapping::TileSizes& tiles) {
  for (auto& t : tiles) {
    t = r.i32();
    if (t < 1) return false;
  }
  return r.ok();
}

void write_result(core::ByteWriter& w, const MappingSearchResult& res) {
  write_order(w, res.best.dram.order);
  write_tiles(w, res.best.dram.tile);
  write_order(w, res.best.pe.order);
  write_tiles(w, res.best.pe.tile);
  write_order(w, res.best.pe_order);

  const cost::CostReport& rep = res.report;
  w.u8(rep.legal ? 1 : 0);
  w.str(rep.illegal_reason);
  w.f64(rep.macs);
  w.f64(rep.compute_cycles);
  w.f64(rep.noc_cycles);
  w.f64(rep.dram_cycles);
  w.f64(rep.latency_cycles);
  w.f64(rep.energy.mac_pj);
  w.f64(rep.energy.l1_pj);
  w.f64(rep.energy.l2_pj);
  w.f64(rep.energy.noc_pj);
  w.f64(rep.energy.dram_pj);
  w.f64(rep.energy_nj);
  w.f64(rep.edp);
  w.f64(rep.pe_utilization);
  w.f64(rep.dram_bytes);
  w.f64(rep.l2_read_bytes);
  w.f64(rep.l2_write_bytes);
  w.f64(rep.l1_access_bytes);
  w.f64(rep.noc_delivery_bytes);
  w.f64(rep.reduction_hop_bytes);

  w.f64(res.best_edp);
  w.i64(res.evaluations);
}

bool read_result(core::ByteReader& r, MappingSearchResult& res) {
  if (!read_order(r, res.best.dram.order)) return false;
  if (!read_tiles(r, res.best.dram.tile)) return false;
  if (!read_order(r, res.best.pe.order)) return false;
  if (!read_tiles(r, res.best.pe.tile)) return false;
  if (!read_order(r, res.best.pe_order)) return false;

  cost::CostReport& rep = res.report;
  rep.legal = r.u8() != 0;
  rep.illegal_reason = r.str();
  rep.macs = r.f64();
  rep.compute_cycles = r.f64();
  rep.noc_cycles = r.f64();
  rep.dram_cycles = r.f64();
  rep.latency_cycles = r.f64();
  rep.energy.mac_pj = r.f64();
  rep.energy.l1_pj = r.f64();
  rep.energy.l2_pj = r.f64();
  rep.energy.noc_pj = r.f64();
  rep.energy.dram_pj = r.f64();
  rep.energy_nj = r.f64();
  rep.edp = r.f64();
  rep.pe_utilization = r.f64();
  rep.dram_bytes = r.f64();
  rep.l2_read_bytes = r.f64();
  rep.l2_write_bytes = r.f64();
  rep.l1_access_bytes = r.f64();
  rep.noc_delivery_bytes = r.f64();
  rep.reduction_hop_bytes = r.f64();

  res.best_edp = r.f64();
  res.evaluations = r.i64();
  return r.ok();
}

}  // namespace

const char* store_status_name(StoreStatus s) {
  switch (s) {
    case StoreStatus::kOk: return "ok";
    case StoreStatus::kNotFound: return "not-found";
    case StoreStatus::kIoError: return "io-error";
    case StoreStatus::kBadMagic: return "bad-magic";
    case StoreStatus::kBadVersion: return "version-mismatch";
    case StoreStatus::kCorrupt: return "corrupt";
  }
  return "unknown";
}

std::string ResultStore::encode(StoreEntries entries) {
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  core::ByteWriter w;
  for (char c : kMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u32(kFormatVersion);
  w.u32(kAlgorithmEpoch);
  w.u64(entries.size());
  for (const auto& [key, result] : entries) {
    w.u64(key);
    write_result(w, result);
  }

  std::string bytes = w.bytes();
  core::ByteWriter checksum;
  checksum.u64(core::fnv1a64(bytes));
  bytes += checksum.bytes();
  return bytes;
}

StoreLoadResult ResultStore::decode(const void* data, std::size_t size) {
  constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 4 + 4 + 8;
  StoreLoadResult out;
  // Damage stops the parse but keeps the validated prefix: entries roll
  // back to the last segment whose checksum passed, so a torn append or a
  // flipped byte in segment N costs segments >= N, never the whole store.
  std::size_t salvage_boundary = 0;
  const auto reject = [&out, &salvage_boundary](StoreStatus status) {
    out.entries.resize(salvage_boundary);
    out.status = status;
    return out;
  };
  if (size < kHeaderBytes + kChecksumBytes) return reject(StoreStatus::kCorrupt);

  const auto* bytes = static_cast<const unsigned char*>(data);
  core::ByteReader r(bytes, size);
  bool first_segment = true;
  while (r.remaining() > 0) {
    const std::size_t segment_start = r.pos();
    if (r.remaining() < kHeaderBytes + kChecksumBytes)
      return reject(StoreStatus::kCorrupt);
    for (char c : kMagic) {
      if (r.u8() != static_cast<std::uint8_t>(c)) {
        // Garbage at offset 0 means "not a store file"; garbage after a
        // valid segment means a damaged/torn append.
        return reject(first_segment ? StoreStatus::kBadMagic
                                    : StoreStatus::kCorrupt);
      }
    }
    // Version and epoch are checked before the checksum so a segment
    // written by an older or newer build reports the actionable status
    // (delete/regenerate), not a generic corruption.
    if (r.u32() != kFormatVersion) return reject(StoreStatus::kBadVersion);
    if (r.u32() != kAlgorithmEpoch) return reject(StoreStatus::kBadVersion);

    const std::uint64_t count = r.u64();
    // A self-consistent segment still cannot claim more entries than its
    // payload could hold; bound before reserving so a crafted count cannot
    // throw instead of reporting corruption.
    if (count > r.remaining() / kMinEntryBytes)
      return reject(StoreStatus::kCorrupt);
    out.entries.reserve(out.entries.size() + static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t key = r.u64();
      MappingSearchResult result;
      if (!read_result(r, result)) return reject(StoreStatus::kCorrupt);
      out.entries.emplace_back(key, std::move(result));
    }
    const std::size_t payload_end = r.pos();
    const std::uint64_t checksum = r.u64();
    if (!r.ok()) return reject(StoreStatus::kCorrupt);
    if (checksum != core::fnv1a64(bytes + segment_start,
                                  payload_end - segment_start))
      return reject(StoreStatus::kCorrupt);
    salvage_boundary = out.entries.size();
    first_segment = false;
  }
  out.status = StoreStatus::kOk;
  return out;
}

StoreStatus ResultStore::save(const std::string& path, StoreEntries entries) {
  if (core::fault("store_save_fail")) return StoreStatus::kIoError;
  const std::string bytes = encode(std::move(entries));
  // Unique temp name per process and call: concurrent writers sharing one
  // cache_path (sweep shards, parallel CI jobs) must never stomp each
  // other's partial bytes — each publishes atomically and the last rename
  // wins.
  static std::atomic<unsigned> save_counter{0};
  const std::string tmp = path + ".tmp." +
                          std::to_string(static_cast<long>(::getpid())) +
                          "." + std::to_string(save_counter.fetch_add(1));
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return StoreStatus::kIoError;
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return StoreStatus::kIoError;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return StoreStatus::kIoError;
  }
  return StoreStatus::kOk;
}

StoreStatus ResultStore::append(const std::string& path, StoreEntries entries,
                                std::size_t* bytes_appended) {
  if (bytes_appended) *bytes_appended = 0;
  if (entries.empty()) return StoreStatus::kOk;
  // Transient append failure (ENOSPC and friends) before any byte lands:
  // the caller's retry/backoff path, file untouched.
  if (core::fault("store_append_fail")) return StoreStatus::kIoError;
  const std::string bytes = encode(std::move(entries));
  FILE* f = std::fopen(path.c_str(), "ab");
  if (!f) return StoreStatus::kIoError;
  // A *torn* append — the crash-mid-write case the truncate rollback below
  // cannot see: half a segment lands and stays. Readers must salvage the
  // prior segments and the next refresh must heal by atomic rewrite.
  if (core::fault("store_append_torn")) {
    std::setvbuf(f, nullptr, _IONBF, 0);
    std::fseek(f, 0, SEEK_END);
    std::fwrite(bytes.data(), 1, bytes.size() / 2, f);
    std::fclose(f);
    return StoreStatus::kIoError;
  }
  // One unbuffered write per segment: in "a" mode the kernel places it at
  // the current end of file, which keeps the common single-writer case
  // torn-segment-free even while readers load concurrently.
  std::setvbuf(f, nullptr, _IONBF, 0);
  std::fseek(f, 0, SEEK_END);
  const long old_size = std::ftell(f);
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    // Roll a torn segment back so the store stays loadable; if even that
    // fails, readers reject the corrupt file and run cold (never wrong).
    if (old_size >= 0)
      ::truncate(path.c_str(), static_cast<off_t>(old_size));
    return StoreStatus::kIoError;
  }
  if (bytes_appended) *bytes_appended = bytes.size();
  return StoreStatus::kOk;
}

StoreLoadResult ResultStore::load(const std::string& path) {
  StoreLoadResult out;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    out.status = StoreStatus::kNotFound;
    return out;
  }
  std::string bytes;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error || core::fault("store_load_fail")) {
    out.status = StoreStatus::kIoError;
    return out;
  }
  // Checksum damage injected in memory, not on disk: exercises the
  // reject/salvage path without making the fault sticky across reloads.
  if (!bytes.empty() && core::fault("store_load_corrupt"))
    bytes[bytes.size() / 2] ^= 0x5a;
  return decode(bytes.data(), bytes.size());
}

bool warn_store_rejected(const std::string& path, StoreStatus status) {
  if (status == StoreStatus::kOk || status == StoreStatus::kNotFound)
    return false;
  core::log_warn("result store '" + path + "' rejected (" +
                 store_status_name(status) + "); starting cold");
  return true;
}

bool warn_store_write_failed(const std::string& path, StoreStatus status) {
  if (status == StoreStatus::kOk) return false;
  core::log_warn("could not write result store '" + path + "' (" +
                 store_status_name(status) + ")");
  return true;
}

std::size_t warm_start_cache(EvalCache& cache, const std::string& path) {
  if (path.empty()) return 0;
  StoreLoadResult loaded = ResultStore::load(path);
  warn_store_rejected(path, loaded.status);
  // Adopt whatever validated: everything (kOk) or the salvaged prefix of
  // a damaged file — checksummed entries are trustworthy even when the
  // bytes after them are not.
  return cache.preload(std::move(loaded.entries));
}

void flush_cache(const EvalCache& cache, const std::string& path,
                 bool readonly) {
  if (path.empty() || readonly) return;
  warn_store_write_failed(path, ResultStore::save(path, cache.snapshot()));
}

core::Flag cache_path_flag(std::string* path) {
  return core::text_flag("--cache-path", "<file>", path,
                         "persistent mapping-result store (warm start)");
}

core::Flag cache_readonly_flag(bool* readonly) {
  return {"--cache-readonly", "", "load the store but never write it back",
          [readonly](const std::string&) {
            *readonly = true;
            return std::string();
          }};
}

}  // namespace naas::search
