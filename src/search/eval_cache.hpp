#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "search/mapping_search.hpp"

namespace naas::search {

/// Sharded, mutex-striped memoization table for per-(arch, layer)
/// mapping-search results — the concurrent replacement for ArchEvaluator's
/// single unordered_map.
///
/// Concurrency contract:
///  - Lookups and publishes on different shards never contend; the shard
///    index is a mix of the (already well-distributed) 64-bit key.
///  - Entry references are stable for the cache's lifetime (unordered_map
///    never relocates nodes on rehash), so `best_mapping` can keep handing
///    out `const MappingSearchResult&`.
///  - Two threads may race to compute the same key; `publish` keeps the
///    first result and tells the loser its duplicate was discarded. Because
///    mapping search is deterministic per key (the seed derives from the
///    layer shape, not evaluation order), both results are identical and
///    dropping one is free — and counting only successful publishes keeps
///    the evaluator's statistics independent of thread count.
class EvalCache {
 public:
  /// Cached result for `key`, or nullptr on miss.
  const MappingSearchResult* find(std::uint64_t key) const;

  /// Publishes `result` under `key` unless an entry already exists (another
  /// thread won the race). Returns the resident entry; `inserted` reports
  /// whether it was ours.
  const MappingSearchResult& publish(std::uint64_t key,
                                     MappingSearchResult&& result,
                                     bool* inserted);

  /// Total entries across all shards (linearizable only when quiescent).
  std::size_t size() const;

  void clear();

  /// Copy of every entry, sorted by key (deterministic bytes when handed to
  /// ResultStore::encode). Linearizable: taken under every shard lock, so
  /// it is a consistent cut even while publishes race on other threads.
  std::vector<std::pair<std::uint64_t, MappingSearchResult>> snapshot() const;

  /// Monotonic insertion counter: incremented once per entry that actually
  /// enters the cache (publish wins and preload adoptions alike). A caller
  /// that records `sequence()` at a quiescent point and later asks
  /// `snapshot_since` with it gets exactly the entries added in between —
  /// the incremental-flush primitive of the serving layer. While publishes
  /// are in flight, prefer the `high_mark` returned by snapshot_since: a
  /// bare sequence() read is not ordered against concurrent insertions on
  /// other shards.
  std::uint64_t sequence() const { return seq_.load(); }

  /// Entries whose insertion number is greater than `since`, sorted by key.
  /// `snapshot_since(0)` equals `snapshot()`.
  ///
  /// Linearizable cut: the scan holds every shard lock at once, so the
  /// result is exactly the entries with `since < seq <= *high_mark` — no
  /// entry torn across the scan. (A per-shard scan raced with concurrent
  /// inserts: an entry with a low insertion number could land in an
  /// already-scanned shard while a higher-numbered entry in a later shard
  /// was captured, so resuming from any mark either lost the low entry
  /// forever or returned the high one twice. The hammer test in
  /// test_result_store.cpp exercises exactly that interleaving.) Chain
  /// calls by passing `*high_mark` back as the next `since` to stream the
  /// cache incrementally without duplicates or holes, even under
  /// concurrent insertion.
  std::vector<std::pair<std::uint64_t, MappingSearchResult>> snapshot_since(
      std::uint64_t since, std::uint64_t* high_mark = nullptr) const;

  /// Bulk-inserts persisted entries (e.g. ResultStore::load). Existing keys
  /// win — a live entry is never overwritten by a stale store. Returns how
  /// many entries were actually inserted. Unlike publish, preloading does
  /// not count toward any statistics: warm-started entries were paid for by
  /// an earlier run.
  std::size_t preload(
      std::vector<std::pair<std::uint64_t, MappingSearchResult>> entries);

 private:
  static constexpr std::size_t kNumShards = 64;

  /// A resident result plus its insertion number (for snapshot_since).
  struct Entry {
    MappingSearchResult result;
    std::uint64_t seq = 0;
  };

  struct Shard {
    mutable std::mutex m;
    std::unordered_map<std::uint64_t, Entry> map;
  };

  static std::size_t shard_index(std::uint64_t key) {
    // Fibonacci mix so shard choice uses high-entropy bits even if the key
    // hash is weak in its low bits.
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 58);
  }

  std::array<Shard, kNumShards> shards_;
  std::atomic<std::uint64_t> seq_{0};
};

}  // namespace naas::search
