#include "search/result_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "arch/presets.hpp"
#include "arch/resources.hpp"
#include "core/serialize.hpp"
#include "nn/network.hpp"
#include "search/accelerator_search.hpp"
#include "test_temp.hpp"

namespace naas {
namespace {

std::string temp_store_path(const std::string& name) {
  return test::unique_temp_path("naas_store_" + name + ".bin");
}

search::MappingSearchResult sample_result() {
  search::MappingSearchResult res;
  res.best.dram.order = {nn::Dim::kK, nn::Dim::kC, nn::Dim::kN, nn::Dim::kYp,
                         nn::Dim::kXp, nn::Dim::kR, nn::Dim::kS};
  res.best.dram.tile = {1, 32, 16, 7, 7, 3, 3};
  res.best.pe.tile = {1, 4, 8, 2, 2, 3, 1};
  res.best.pe_order = {nn::Dim::kS, nn::Dim::kR, nn::Dim::kXp, nn::Dim::kYp,
                       nn::Dim::kC, nn::Dim::kK, nn::Dim::kN};
  res.report.legal = true;
  res.report.macs = 118013952.0;
  res.report.latency_cycles = 1.25e6;
  res.report.energy.mac_pj = 0.1 + 0.2;  // deliberately non-representable
  res.report.energy.dram_pj = 1e300;
  res.report.energy_nj = 3.14159265358979;
  res.report.edp = 7.25e12;
  res.report.pe_utilization = 0.87;
  res.best_edp = 7.25e12;
  res.evaluations = 481;
  return res;
}

search::MappingSearchResult illegal_result() {
  search::MappingSearchResult res;
  res.report.legal = false;
  res.report.illegal_reason = "tile exceeds L1 capacity";
  res.best_edp = std::numeric_limits<double>::infinity();
  res.evaluations = 3;
  return res;
}

void expect_results_equal(const search::MappingSearchResult& a,
                          const search::MappingSearchResult& b) {
  EXPECT_EQ(a.best.dram.order, b.best.dram.order);
  EXPECT_EQ(a.best.dram.tile, b.best.dram.tile);
  EXPECT_EQ(a.best.pe.order, b.best.pe.order);
  EXPECT_EQ(a.best.pe.tile, b.best.pe.tile);
  EXPECT_EQ(a.best.pe_order, b.best.pe_order);
  EXPECT_EQ(a.report.legal, b.report.legal);
  EXPECT_EQ(a.report.illegal_reason, b.report.illegal_reason);
  // EXPECT_EQ on doubles: the store must round-trip exact bit patterns,
  // not approximations — warm-start bit-identity depends on it.
  EXPECT_EQ(a.report.macs, b.report.macs);
  EXPECT_EQ(a.report.latency_cycles, b.report.latency_cycles);
  EXPECT_EQ(a.report.energy.mac_pj, b.report.energy.mac_pj);
  EXPECT_EQ(a.report.energy.dram_pj, b.report.energy.dram_pj);
  EXPECT_EQ(a.report.energy_nj, b.report.energy_nj);
  EXPECT_EQ(a.report.edp, b.report.edp);
  EXPECT_EQ(a.report.pe_utilization, b.report.pe_utilization);
  EXPECT_EQ(a.best_edp, b.best_edp);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

// ----------------------------------------------------------- serialization

TEST(Serialize, PrimitivesRoundTrip) {
  core::ByteWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(-0.1);
  w.str("hello \0 world");  // embedded NUL truncated by literal, still fine
  const std::string& bytes = w.bytes();

  core::ByteReader r(bytes.data(), bytes.size());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), -0.1);
  EXPECT_EQ(r.str(), "hello ");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Serialize, ReaderRejectsOverrun) {
  core::ByteWriter w;
  w.u32(7);
  core::ByteReader r(w.bytes().data(), w.bytes().size());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.u64(), 0u);  // past the end
  EXPECT_FALSE(r.ok());
}

// ------------------------------------------------------------- round trip

TEST(ResultStore, RoundTripPreservesEveryField) {
  search::StoreEntries entries;
  entries.emplace_back(0xfeedULL, sample_result());
  entries.emplace_back(0x1ULL, illegal_result());

  const std::string path = temp_store_path("roundtrip");
  ASSERT_EQ(search::ResultStore::save(path, entries),
            search::StoreStatus::kOk);

  const auto loaded = search::ResultStore::load(path);
  ASSERT_EQ(loaded.status, search::StoreStatus::kOk);
  ASSERT_EQ(loaded.entries.size(), 2u);
  // encode() sorts by key.
  EXPECT_EQ(loaded.entries[0].first, 0x1ULL);
  EXPECT_EQ(loaded.entries[1].first, 0xfeedULL);
  expect_results_equal(loaded.entries[0].second, illegal_result());
  expect_results_equal(loaded.entries[1].second, sample_result());
  std::remove(path.c_str());
}

TEST(ResultStore, EncodeIsDeterministicAcrossEntryOrder) {
  search::StoreEntries forward;
  forward.emplace_back(1, sample_result());
  forward.emplace_back(2, illegal_result());
  search::StoreEntries reversed;
  reversed.emplace_back(2, illegal_result());
  reversed.emplace_back(1, sample_result());
  EXPECT_EQ(search::ResultStore::encode(forward),
            search::ResultStore::encode(reversed));
}

TEST(ResultStore, MissingFileReportsNotFound) {
  const auto loaded =
      search::ResultStore::load(temp_store_path("does_not_exist"));
  EXPECT_EQ(loaded.status, search::StoreStatus::kNotFound);
  EXPECT_TRUE(loaded.entries.empty());
}

// --------------------------------------------------------------- rejection

std::string encode_single_entry_store() {
  search::StoreEntries entries;
  entries.emplace_back(42, sample_result());
  return search::ResultStore::encode(entries);
}

TEST(ResultStore, RejectsBadMagic) {
  std::string bytes = encode_single_entry_store();
  bytes[0] = 'X';
  const auto loaded = search::ResultStore::decode(bytes.data(), bytes.size());
  EXPECT_EQ(loaded.status, search::StoreStatus::kBadMagic);
}

TEST(ResultStore, RejectsVersionMismatch) {
  std::string bytes = encode_single_entry_store();
  // The u32 version sits right after the 8-byte magic. A bumped version
  // must be reported as such (not as corruption), *before* the checksum is
  // consulted — an old-format file has a valid checksum of its own.
  bytes[8] = static_cast<char>(search::ResultStore::kFormatVersion + 1);
  const auto loaded = search::ResultStore::decode(bytes.data(), bytes.size());
  EXPECT_EQ(loaded.status, search::StoreStatus::kBadVersion);
  EXPECT_TRUE(loaded.entries.empty());
}

TEST(ResultStore, RejectsAlgorithmEpochMismatch) {
  std::string bytes = encode_single_entry_store();
  // The u32 algorithm epoch sits after magic (8) + format version (4). A
  // store computed under different evaluation semantics must be rejected,
  // not served.
  bytes[12] = static_cast<char>(search::ResultStore::kAlgorithmEpoch + 1);
  const auto loaded = search::ResultStore::decode(bytes.data(), bytes.size());
  EXPECT_EQ(loaded.status, search::StoreStatus::kBadVersion);
  EXPECT_TRUE(loaded.entries.empty());
}

TEST(ResultStore, RejectsFlippedPayloadByte) {
  std::string bytes = encode_single_entry_store();
  bytes[bytes.size() / 2] ^= 0x40;  // corrupt mid-payload
  const auto loaded = search::ResultStore::decode(bytes.data(), bytes.size());
  EXPECT_EQ(loaded.status, search::StoreStatus::kCorrupt);
  EXPECT_TRUE(loaded.entries.empty());
}

TEST(ResultStore, RejectsTruncation) {
  const std::string bytes = encode_single_entry_store();
  for (const std::size_t keep : {bytes.size() - 1, bytes.size() / 2,
                                 std::size_t{3}, std::size_t{0}}) {
    const auto loaded = search::ResultStore::decode(bytes.data(), keep);
    EXPECT_EQ(loaded.status, search::StoreStatus::kCorrupt)
        << "truncated to " << keep << " bytes";
  }
}

TEST(ResultStore, RejectsAbsurdEntryCountWithoutAllocating) {
  // A checksum-consistent header claiming 2^60 entries must be rejected as
  // corrupt (the payload cannot hold them), not attempt the allocation.
  std::string bytes = search::ResultStore::encode({});
  // Entry count sits after magic (8) + version (4) + reserved (4).
  for (int i = 0; i < 8; ++i)
    bytes[16 + i] = static_cast<char>(i == 7 ? 0x10 : 0x00);
  const std::uint64_t sum = core::fnv1a64(bytes.data(), bytes.size() - 8);
  for (int i = 0; i < 8; ++i)
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>((sum >> (8 * i)) & 0xff);
  const auto loaded = search::ResultStore::decode(bytes.data(), bytes.size());
  EXPECT_EQ(loaded.status, search::StoreStatus::kCorrupt);
}

TEST(ResultStore, RejectsTrailingGarbage) {
  std::string bytes = encode_single_entry_store();
  bytes += "extra";
  const auto loaded = search::ResultStore::decode(bytes.data(), bytes.size());
  EXPECT_EQ(loaded.status, search::StoreStatus::kCorrupt);
}

// ------------------------------------------------------ incremental append

TEST(ResultStore, AppendCreatesFileWhenMissing) {
  const std::string path = temp_store_path("append_create");
  std::remove(path.c_str());
  search::StoreEntries entries;
  entries.emplace_back(7, sample_result());
  std::size_t bytes_appended = 0;
  ASSERT_EQ(search::ResultStore::append(path, entries, &bytes_appended),
            search::StoreStatus::kOk);
  EXPECT_GT(bytes_appended, 0u);
  const auto loaded = search::ResultStore::load(path);
  ASSERT_EQ(loaded.status, search::StoreStatus::kOk);
  ASSERT_EQ(loaded.entries.size(), 1u);
  expect_results_equal(loaded.entries[0].second, sample_result());
  std::remove(path.c_str());
}

TEST(ResultStore, AppendedSegmentsAllLoad) {
  const std::string path = temp_store_path("append_segments");
  std::remove(path.c_str());
  search::StoreEntries first;
  first.emplace_back(1, sample_result());
  first.emplace_back(2, illegal_result());
  ASSERT_EQ(search::ResultStore::save(path, first),
            search::StoreStatus::kOk);

  search::StoreEntries second;
  second.emplace_back(3, sample_result());
  ASSERT_EQ(search::ResultStore::append(path, second),
            search::StoreStatus::kOk);
  search::StoreEntries third;
  third.emplace_back(4, illegal_result());
  ASSERT_EQ(search::ResultStore::append(path, third),
            search::StoreStatus::kOk);

  const auto loaded = search::ResultStore::load(path);
  ASSERT_EQ(loaded.status, search::StoreStatus::kOk);
  EXPECT_EQ(loaded.entries.size(), 4u);

  // Loading into a cache adopts every segment's entries.
  search::EvalCache cache;
  EXPECT_EQ(cache.preload(loaded.entries), 4u);
  std::remove(path.c_str());
}

TEST(ResultStore, AppendEmptyIsANoOp) {
  const std::string path = temp_store_path("append_empty");
  std::remove(path.c_str());
  std::size_t bytes_appended = 99;
  EXPECT_EQ(search::ResultStore::append(path, {}, &bytes_appended),
            search::StoreStatus::kOk);
  EXPECT_EQ(bytes_appended, 0u);
  // No file materializes for an empty append.
  EXPECT_EQ(search::ResultStore::load(path).status,
            search::StoreStatus::kNotFound);
}

TEST(ResultStore, DuplicateKeysAcrossSegmentsKeepFirstCopy) {
  // Two processes may race to compute and append the same key; results are
  // deterministic per key, so the cache keeps the first and the answer is
  // unchanged either way.
  const std::string path = temp_store_path("append_dup");
  std::remove(path.c_str());
  search::StoreEntries first;
  first.emplace_back(5, sample_result());
  ASSERT_EQ(search::ResultStore::save(path, first),
            search::StoreStatus::kOk);
  search::StoreEntries dup;
  dup.emplace_back(5, sample_result());
  ASSERT_EQ(search::ResultStore::append(path, dup),
            search::StoreStatus::kOk);

  const auto loaded = search::ResultStore::load(path);
  ASSERT_EQ(loaded.status, search::StoreStatus::kOk);
  EXPECT_EQ(loaded.entries.size(), 2u);
  search::EvalCache cache;
  EXPECT_EQ(cache.preload(loaded.entries), 1u);
  EXPECT_EQ(cache.size(), 1u);
  std::remove(path.c_str());
}

TEST(ResultStore, SalvagesPrefixBeforeCorruptLaterSegment) {
  // A flipped byte in an appended segment rejects the file (kCorrupt) but
  // salvages the checksum-validated segments before it: a torn or damaged
  // append costs the tear, never the store.
  std::string bytes = encode_single_entry_store();
  const std::size_t second_start = bytes.size();
  bytes += encode_single_entry_store();
  bytes[second_start + 30] ^= 0x40;
  const auto loaded = search::ResultStore::decode(bytes.data(), bytes.size());
  EXPECT_EQ(loaded.status, search::StoreStatus::kCorrupt);
  ASSERT_EQ(loaded.entries.size(), 1u);
}

TEST(ResultStore, SalvagesNothingFromCorruptFirstSegment) {
  // Damage in the *first* segment leaves no validated prefix to adopt.
  std::string bytes = encode_single_entry_store();
  bytes[30] ^= 0x40;
  const auto loaded = search::ResultStore::decode(bytes.data(), bytes.size());
  EXPECT_EQ(loaded.status, search::StoreStatus::kCorrupt);
  EXPECT_TRUE(loaded.entries.empty());
}

TEST(ResultStore, RejectsVersionMismatchInLaterSegment) {
  std::string bytes = encode_single_entry_store();
  const std::size_t second_start = bytes.size();
  bytes += encode_single_entry_store();
  // Byte 8 of a segment is the low byte of its format version.
  bytes[second_start + 8] ^= 0xff;
  const auto loaded = search::ResultStore::decode(bytes.data(), bytes.size());
  EXPECT_EQ(loaded.status, search::StoreStatus::kBadVersion);
}

TEST(ResultStore, RejectsTruncatedLaterSegment) {
  std::string bytes = encode_single_entry_store();
  bytes += encode_single_entry_store().substr(0, 40);
  const auto loaded = search::ResultStore::decode(bytes.data(), bytes.size());
  EXPECT_EQ(loaded.status, search::StoreStatus::kCorrupt);
}

// ------------------------------------------------------ cache snapshots

TEST(EvalCacheSince, SnapshotSinceReturnsOnlyNewEntries) {
  search::EvalCache cache;
  EXPECT_EQ(cache.sequence(), 0u);
  bool inserted = false;
  cache.publish(10, sample_result(), &inserted);
  ASSERT_TRUE(inserted);
  cache.publish(20, illegal_result(), &inserted);
  const std::uint64_t mark = cache.sequence();
  EXPECT_EQ(mark, 2u);
  EXPECT_TRUE(cache.snapshot_since(mark).empty());

  cache.publish(30, sample_result(), &inserted);
  cache.publish(5, illegal_result(), &inserted);
  const auto fresh = cache.snapshot_since(mark);
  ASSERT_EQ(fresh.size(), 2u);
  // Sorted by key, independent of insertion order.
  EXPECT_EQ(fresh[0].first, 5u);
  EXPECT_EQ(fresh[1].first, 30u);
  // snapshot_since(0) equals the full snapshot.
  EXPECT_EQ(cache.snapshot_since(0).size(), cache.snapshot().size());
}

TEST(EvalCacheSince, LosingRacesAndPreloadSkipsConsumeNoSequence) {
  search::EvalCache cache;
  bool inserted = false;
  cache.publish(1, sample_result(), &inserted);
  const std::uint64_t mark = cache.sequence();
  // Duplicate publish loses and must not advance the sequence.
  cache.publish(1, illegal_result(), &inserted);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(cache.sequence(), mark);
  // Preload of an existing key is skipped; a new key advances once.
  search::StoreEntries entries;
  entries.emplace_back(1, sample_result());
  entries.emplace_back(2, sample_result());
  EXPECT_EQ(cache.preload(entries), 1u);
  EXPECT_EQ(cache.sequence(), mark + 1);
  const auto fresh = cache.snapshot_since(mark);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].first, 2u);
}

TEST(EvalCacheSince, IncrementalSnapshotsUnderConcurrentInsertionLoseNothing) {
  // Hammer the incremental-flush contract: a reader streaming the cache
  // through chained snapshot_since(mark, &mark) calls while writers
  // publish concurrently must see every entry exactly once. The old
  // per-shard scan could capture a high-sequence entry from a late shard
  // while missing a lower-sequence entry racing into an already-scanned
  // shard; resuming from the returned mark then lost the low entry forever
  // (or returned the high one twice).
  constexpr int kWriters = 4;
  constexpr std::uint64_t kKeysPerWriter = 400;
  search::EvalCache cache;

  std::atomic<int> writers_active{kWriters};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&cache, &writers_active, w] {
      for (std::uint64_t i = 0; i < kKeysPerWriter; ++i) {
        // Spread keys across shards (the shard index mixes the key bits).
        const std::uint64_t key =
            (i * static_cast<std::uint64_t>(kWriters) + w) * 0x100 + 1;
        cache.publish(key, sample_result(), nullptr);
      }
      writers_active.fetch_sub(1);
    });
  }

  std::set<std::uint64_t> seen;
  bool duplicate = false;
  std::uint64_t mark = 0;
  const auto drain = [&] {
    const auto batch = cache.snapshot_since(mark, &mark);
    for (const auto& [key, result] : batch)
      duplicate |= !seen.insert(key).second;
  };
  while (writers_active.load() > 0) drain();

  for (auto& t : writers) t.join();
  drain();  // final quiescent sweep picks up the tail

  EXPECT_FALSE(duplicate);
  EXPECT_EQ(seen.size(),
            static_cast<std::size_t>(kWriters) * kKeysPerWriter);
  EXPECT_EQ(cache.size(), seen.size());
}

// ------------------------------------------------------------- warm start

nn::Network small_network() {
  nn::Network net("tiny", {});
  net.add(nn::make_conv("stem", 3, 16, 3, 2, 28));
  net.add(nn::make_conv("block", 16, 16, 3, 1, 28));
  net.add(nn::make_conv("head", 16, 32, 1, 1, 14));
  return net;
}

search::NaasOptions small_options(const std::string& cache_path) {
  search::NaasOptions opts;
  opts.resources = arch::nvdla_256_resources();
  opts.population = 6;
  opts.iterations = 3;
  opts.seed = 11;
  opts.mapping.population = 6;
  opts.mapping.iterations = 3;
  opts.mapping.seed = 11;
  opts.num_threads = 1;
  opts.cache_path = cache_path;
  return opts;
}

void expect_naas_results_identical(const search::NaasResult& a,
                                   const search::NaasResult& b) {
  EXPECT_EQ(a.best_geomean_edp, b.best_geomean_edp);
  ASSERT_EQ(a.population_best_edp.size(), b.population_best_edp.size());
  for (std::size_t i = 0; i < a.population_best_edp.size(); ++i) {
    EXPECT_EQ(a.population_best_edp[i], b.population_best_edp[i]);
    EXPECT_EQ(a.population_mean_edp[i], b.population_mean_edp[i]);
  }
  ASSERT_EQ(a.best_networks.size(), b.best_networks.size());
  for (std::size_t i = 0; i < a.best_networks.size(); ++i) {
    EXPECT_EQ(a.best_networks[i].edp, b.best_networks[i].edp);
    EXPECT_EQ(a.best_networks[i].latency_cycles,
              b.best_networks[i].latency_cycles);
    EXPECT_EQ(a.best_networks[i].energy_nj, b.best_networks[i].energy_nj);
  }
}

TEST(WarmStart, SecondRunSkipsAllMappingSearchesBitIdentically) {
  const std::string path = temp_store_path("warm");
  std::remove(path.c_str());

  const cost::CostModel model;
  const std::vector<nn::Network> benchmarks{small_network()};

  const auto cold = search::run_naas(model, small_options(path), benchmarks);
  EXPECT_EQ(cold.store_entries_loaded, 0);
  EXPECT_GT(cold.mapping_searches, 0);

  const auto warm = search::run_naas(model, small_options(path), benchmarks);
  // Every layer shape the warm run needs is already in the store: zero
  // mapping-search CMA generations, zero cost-model calls.
  EXPECT_GT(warm.store_entries_loaded, 0);
  EXPECT_EQ(warm.mapping_searches, 0);
  EXPECT_EQ(warm.cost_evaluations, 0);
  expect_naas_results_identical(cold, warm);
  std::remove(path.c_str());
}

TEST(WarmStart, CorruptStoreFallsBackToColdSearch) {
  const std::string path = temp_store_path("corrupt_fallback");
  std::remove(path.c_str());

  const cost::CostModel model;
  const std::vector<nn::Network> benchmarks{small_network()};
  const auto cold = search::run_naas(model, small_options(path), benchmarks);

  // Vandalize the store; the next run must reject it, search cold, and
  // produce the same result as if no store existed.
  {
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 100, SEEK_SET);
    const int original = std::fgetc(f);
    ASSERT_NE(original, EOF);
    std::fseek(f, 100, SEEK_SET);
    std::fputc(original ^ 0x5a, f);  // guaranteed different byte
    std::fclose(f);
  }
  const auto recovered =
      search::run_naas(model, small_options(path), benchmarks);
  EXPECT_EQ(recovered.store_entries_loaded, 0);
  EXPECT_EQ(recovered.mapping_searches, cold.mapping_searches);
  expect_naas_results_identical(cold, recovered);

  // The recovery run flushed a fresh, valid store over the damaged one.
  EXPECT_EQ(search::ResultStore::load(path).status, search::StoreStatus::kOk);
  std::remove(path.c_str());
}

TEST(WarmStart, ReadonlyNeverWritesTheStore) {
  const std::string path = temp_store_path("readonly");
  std::remove(path.c_str());

  const cost::CostModel model;
  const std::vector<nn::Network> benchmarks{small_network()};
  auto opts = small_options(path);
  opts.cache_readonly = true;
  search::run_naas(model, opts, benchmarks);
  EXPECT_EQ(search::ResultStore::load(path).status,
            search::StoreStatus::kNotFound);
}

TEST(WarmStart, EvaluatorPreloadDoesNotCountAsWork) {
  const cost::CostModel model;
  search::MappingSearchOptions mopts;
  mopts.population = 6;
  mopts.iterations = 2;

  const auto arch = arch::nvdla_256_arch();
  const auto net = small_network();

  const std::string path = temp_store_path("evaluator");
  std::remove(path.c_str());
  {
    search::ArchEvaluator evaluator(model, mopts);
    evaluator.evaluate(arch, net);
    ASSERT_EQ(evaluator.save_store(path), search::StoreStatus::kOk);
  }
  search::ArchEvaluator warm(model, mopts);
  ASSERT_EQ(warm.load_store(path), search::StoreStatus::kOk);
  EXPECT_GT(warm.store_entries_loaded(), 0u);
  EXPECT_EQ(warm.cost_evaluations(), 0);
  warm.evaluate(arch, net);
  // All shapes came from the store: still zero searches performed here.
  EXPECT_EQ(warm.mapping_searches(), 0);
  EXPECT_EQ(warm.cost_evaluations(), 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace naas
