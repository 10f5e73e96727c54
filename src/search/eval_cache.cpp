#include "search/eval_cache.hpp"

#include <algorithm>
#include <utility>

namespace naas::search {

const MappingSearchResult* EvalCache::find(std::uint64_t key) const {
  const Shard& shard = shards_[shard_index(key)];
  std::lock_guard<std::mutex> lk(shard.m);
  const auto it = shard.map.find(key);
  return it == shard.map.end() ? nullptr : &it->second.result;
}

const MappingSearchResult& EvalCache::publish(std::uint64_t key,
                                              MappingSearchResult&& result,
                                              bool* inserted) {
  Shard& shard = shards_[shard_index(key)];
  std::lock_guard<std::mutex> lk(shard.m);
  const auto [it, fresh] = shard.map.emplace(key, Entry{std::move(result), 0});
  if (fresh) it->second.seq = seq_.fetch_add(1) + 1;
  if (inserted) *inserted = fresh;
  return it->second.result;
}

std::size_t EvalCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard.m);
    total += shard.map.size();
  }
  return total;
}

void EvalCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard.m);
    shard.map.clear();
  }
}

std::vector<std::pair<std::uint64_t, MappingSearchResult>>
EvalCache::snapshot() const {
  return snapshot_since(0);
}

std::vector<std::pair<std::uint64_t, MappingSearchResult>>
EvalCache::snapshot_since(std::uint64_t since, std::uint64_t* high_mark) const {
  // Acquire every shard lock (fixed index order; publish/preload/find take
  // exactly one, so no cycle is possible) before scanning: the scan and
  // the seq_ read then form one consistent cut across all shards. Without
  // the full lock a publish racing the scan could assign a lower insertion
  // number in an already-scanned shard than one captured from a later
  // shard, permanently losing (or duplicating) an entry for incremental
  // callers.
  std::array<std::unique_lock<std::mutex>, kNumShards> locks;
  for (std::size_t i = 0; i < kNumShards; ++i)
    locks[i] = std::unique_lock<std::mutex>(shards_[i].m);
  if (high_mark != nullptr) *high_mark = seq_.load();

  std::vector<std::pair<std::uint64_t, MappingSearchResult>> out;
  for (const Shard& shard : shards_) {
    for (const auto& [key, entry] : shard.map)
      if (entry.seq > since)
        out.emplace_back(key, entry.result);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::size_t EvalCache::preload(
    std::vector<std::pair<std::uint64_t, MappingSearchResult>> entries) {
  std::size_t inserted = 0;
  for (auto& [key, result] : entries) {
    Shard& shard = shards_[shard_index(key)];
    std::lock_guard<std::mutex> lk(shard.m);
    const auto [it, fresh] =
        shard.map.emplace(key, Entry{std::move(result), 0});
    if (fresh) {
      it->second.seq = seq_.fetch_add(1) + 1;
      ++inserted;
    }
  }
  return inserted;
}

}  // namespace naas::search
