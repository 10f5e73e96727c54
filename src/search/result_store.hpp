#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/flags.hpp"
#include "search/mapping_search.hpp"

namespace naas::search {

class EvalCache;

/// Outcome of touching a persistent result store on disk.
enum class StoreStatus {
  kOk,           ///< loaded/saved successfully
  kNotFound,     ///< no file at the path (normal on a first cold run)
  kIoError,      ///< open/read/write/rename failed
  kBadMagic,     ///< not a result-store file
  kBadVersion,   ///< written by an incompatible format version
  kCorrupt,      ///< truncated, checksum mismatch, or invalid field values
};

/// Short name for logs ("ok", "not-found", ...).
const char* store_status_name(StoreStatus s);

/// (cache key, memoized mapping-search result) pairs as persisted.
using StoreEntries = std::vector<std::pair<std::uint64_t, MappingSearchResult>>;

/// Result of ResultStore::load / decode. On damage, `entries` carries the
/// *salvageable prefix*: every segment before the first damaged one, each
/// individually magic/version/checksum-validated. A crash-torn append
/// therefore costs only the torn segment, never the store (the serving
/// layer then heals the file by atomic rewrite). `entries` is empty when
/// nothing is trustworthy — bad magic (not a store file) or a version
/// mismatch at the first segment (every byte written by incompatible
/// code).
struct StoreLoadResult {
  StoreStatus status = StoreStatus::kNotFound;
  StoreEntries entries;  ///< all entries (kOk) or the salvageable prefix
};

/// Persistent, versioned, checksummed on-disk form of the mapping-result
/// cache (search::EvalCache): what lets a new process — a CI run, a sweep
/// shard, a benchmark rerun, a serving instance — warm-start from every
/// mapping search any earlier run already paid for.
///
/// A store file is a sequence of one or more self-contained *segments*.
/// Each segment (all little-endian, doubles as IEEE-754 bit patterns):
///
///   magic   8 bytes  "NAASMAPS"
///   u32     format version (kFormatVersion)
///   u32     algorithm epoch (kAlgorithmEpoch)
///   u64     entry count
///   entries u64 key, then the full MappingSearchResult (mapping orders as
///           u8 dims, tiles as i32, every CostReport metric as f64)
///   u64     FNV-1a checksum of everything above in this segment
///
/// `save` rewrites the file as a single segment; `append` adds one more
/// segment without touching the existing bytes, which is what lets a
/// long-lived serving process flush only its *new* entries (see
/// serve::EvalService) instead of rewriting a growing store on every
/// refresh. `load` parses all segments; duplicate keys across segments are
/// harmless (results are deterministic per key, and EvalCache::preload
/// keeps the first copy).
///
/// Damage is contained at segment granularity: a stale or damaged segment
/// is never decoded (checksums gate every byte), but the intact segments
/// *before* it are salvaged (StoreLoadResult::entries), so a crash-torn
/// append loses the tear, not the store. The caller logs the non-kOk
/// status, adopts the salvage, and — in the serving layer — heals the file
/// by atomic rewrite on the next refresh. Saves are atomic (tmp file +
/// rename) and sort entries by key so identical caches produce identical
/// bytes; appends are best-effort single-write and truncate back on
/// failure, so an in-process torn append degrades to a salvageable store,
/// not a wrong one.
class ResultStore {
 public:
  /// Bump when the serialized *layout* changes.
  static constexpr std::uint32_t kFormatVersion = 1;

  /// Bump when *evaluation semantics* change — CostModel arithmetic or
  /// energy constants, search_mapping, canonical_mapping, encoding decode.
  /// The cache key fingerprints the search options, not the algorithm;
  /// this constant covers the algorithm, so stores computed by older code
  /// are rejected as version-mismatched instead of silently served to a
  /// binary that would compute different numbers.
  static constexpr std::uint32_t kAlgorithmEpoch = 1;

  /// Serializes `entries` as one segment (order-insensitive; sorted
  /// internally).
  static std::string encode(StoreEntries entries);

  /// Parses one or more concatenated segments produced by encode(),
  /// validating magic, version, per-segment checksum, and field ranges.
  /// A damaged segment stops the parse; the returned entries are the
  /// checksum-validated segments before it (see StoreLoadResult).
  static StoreLoadResult decode(const void* data, std::size_t size);

  /// Rewrites the store atomically as a single segment (also the way to
  /// compact a many-segment append log). Returns kOk or kIoError.
  static StoreStatus save(const std::string& path, StoreEntries entries);

  /// Appends `entries` as one new segment without rewriting the existing
  /// file (creates it when missing; no-op kOk when `entries` is empty).
  /// The incremental-flush half of the serving story: cost is proportional
  /// to the *new* entries, not the store size. On a failed or short write
  /// the file is truncated back to its prior length so a torn segment
  /// cannot linger. `bytes_appended` (optional) reports how many bytes the
  /// file grew, which lets callers distinguish their own append from a
  /// concurrent writer's when deciding whether to reload.
  static StoreStatus append(const std::string& path, StoreEntries entries,
                            std::size_t* bytes_appended = nullptr);

  /// Reads and validates the store at `path`.
  static StoreLoadResult load(const std::string& path);
};

/// Logs the canonical warning for a rejected store load (silent for kOk
/// and kNotFound — a missing file is a normal cold start). Returns true
/// when a warning was emitted. Every load site routes its diagnostics
/// through here so the policy and wording exist once.
bool warn_store_rejected(const std::string& path, StoreStatus status);

/// Logs the canonical warning for a failed store write; true when emitted.
bool warn_store_write_failed(const std::string& path, StoreStatus status);

/// The shared warm-start policy: loads the store at `path` into `cache`
/// (no-op when `path` is empty, silent when the file does not exist yet)
/// and logs a warning when an existing file is rejected — the caller
/// proceeds cold. Returns the number of entries adopted.
std::size_t warm_start_cache(EvalCache& cache, const std::string& path);

/// The shared flush policy: saves `cache` to `path` unless disabled
/// (`path` empty) or `readonly`, logging a warning when the write fails.
void flush_cache(const EvalCache& cache, const std::string& path,
                 bool readonly);

/// The --cache-path and --cache-readonly flags of every front end that
/// warm-starts from a store: its file, and whether to only read it.
core::Flag cache_path_flag(std::string* path);
core::Flag cache_readonly_flag(bool* readonly);

}  // namespace naas::search
