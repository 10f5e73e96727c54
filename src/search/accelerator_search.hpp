#pragma once

#include <atomic>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arch/resources.hpp"
#include "core/task_graph.hpp"
#include "core/thread_pool.hpp"
#include "cost/backend.hpp"
#include "cost/network_cost.hpp"
#include "nn/network.hpp"
#include "search/eval_cache.hpp"
#include "search/mapping_search.hpp"
#include "search/result_store.hpp"
#include "search/surrogate.hpp"

namespace naas::search {

class EvalPipeline;

/// Evaluates accelerator candidates on benchmark networks, running the
/// inner per-layer mapping search and memoizing results by
/// (arch fingerprint, layer shape, mapping-search budget). The cache is
/// what makes the two-level loop affordable: repeated blocks, repeated
/// candidates, and baseline re-evaluations all hit it.
///
/// Evaluation runs on the asynchronous task-graph pipeline (EvalPipeline +
/// core::TaskGraph): every (arch, layer) work unit becomes one
/// search_mapping task, deduplicated by cache key, and all units across all
/// candidates and networks share one graph — no per-candidate or per-layer
/// joins. Results, cache contents, and every meter are bit-identical for
/// any thread count (and to evaluating the candidates one by one).
///
/// Thread safety: all evaluation entry points may be called concurrently
/// (the cache is mutex-striped and the statistics are atomic), though the
/// intended shape is one pipeline at a time fanning out internally.
class ArchEvaluator {
 public:
  /// `pool` (optional, not owned) supplies the worker threads; nullptr or a
  /// 1-thread pool reproduces the serial evaluator exactly.
  ArchEvaluator(const cost::CostModel& model, MappingSearchOptions mapping,
                core::ThreadPool* pool = nullptr);

  /// Network cost using the best searched mapping for each unique layer.
  /// Repeated layer shapes are deduplicated (count-weighted) and their
  /// cached mapping-search reports are reused directly, so no new
  /// cost-model evaluations happen for shapes already searched.
  cost::NetworkCost evaluate(const arch::ArchConfig& arch,
                             const nn::Network& net);

  /// Geometric mean of per-network EDP — the NAAS reward when searching
  /// one accelerator for a benchmark *set* ("NAAS tries to provide a
  /// balanced performance on all benchmarks by using geomean EDP as
  /// reward", Section III-B). +inf if any network is unmappable.
  double geomean_edp(const arch::ArchConfig& arch,
                     const std::vector<nn::Network>& benchmarks);

  /// Batched population scoring: geomean EDP for every candidate, returned
  /// by candidate index. One task graph carries one search task per unique
  /// uncached (arch, layer) unit plus a per-candidate assembly task, so
  /// slow layers of one candidate overlap everything else — results
  /// (including all cache contents and statistics) match evaluating the
  /// candidates one by one.
  std::vector<double> evaluate_population(
      std::span<const arch::ArchConfig> archs,
      const std::vector<nn::Network>& benchmarks);

  /// Best searched mapping for one layer (cached). A miss runs
  /// search_mapping on the calling thread; no task graph is built.
  const MappingSearchResult& best_mapping(const arch::ArchConfig& arch,
                                          const nn::Workload& layer);

  /// Pure assembly of a network cost from resident cache entries — zero
  /// new evaluations and no pipeline construction. This is the
  /// assembly-phase API the per-candidate graph tasks use once their
  /// layer searches have published; a missing key (unreachable when the
  /// caller gated on its searches) falls back to a synchronous search.
  cost::NetworkCost assemble_network(const arch::ArchConfig& arch,
                                     const nn::Network& net);

  /// Geomean over `benchmarks` by pure assembly (same residency contract
  /// as assemble_network). Bit-identical to geomean_edp on a warm cache.
  double assembled_geomean(const arch::ArchConfig& arch,
                           const std::vector<nn::Network>& benchmarks);

  long long cost_evaluations() const { return cost_evaluations_.load(); }
  long long mapping_searches() const { return mapping_searches_.load(); }

  /// Batched-cost-model work meters, aggregated over every mapping search
  /// this evaluator ran (warm-started cache entries contribute nothing,
  /// like the other meters): CMA generations scored through
  /// CostModel::evaluate_batch and candidates that flowed through it.
  /// Thread-count independent, like all evaluator statistics.
  long long generations_batched() const { return generations_batched_.load(); }
  long long candidates_batch_evaluated() const {
    return candidates_batch_evaluated_.load();
  }

  /// Scheduler work meter: every task-graph task run under this evaluator's
  /// pipelines (one per pipelined mapping search, plus the callers' own
  /// tasks such as candidate finalizes). Deterministic for any thread
  /// count. best_mapping misses run inline and meter none.
  long long tasks_executed() const;

  /// Surrogate-pruning meters: lower-bound consultations the outer search
  /// charged to this evaluator, and how many of them pruned (skipped) a
  /// candidate's full mapping-search evaluation. Zero unless a driver runs
  /// with SurrogateMode::kPrune.
  long long surrogate_consults() const { return surrogate_consults_.load(); }
  long long surrogate_pruned() const { return surrogate_pruned_.load(); }
  /// Meters one surrogate consultation (and whether it pruned).
  void note_surrogate_consult(bool pruned) {
    surrogate_consults_.fetch_add(1);
    if (pruned) surrogate_pruned_.fetch_add(1);
  }

  /// Aggregated TaskGraph accounting across every pipeline this evaluator
  /// ran (busy/wall seconds feed the pool-idle-fraction measurement in
  /// bench_async_pipeline).
  core::TaskGraph::Stats scheduler_stats() const;

  /// Unique (arch, layer, budget) entries memoized so far.
  std::size_t cache_size() const { return cache_.size(); }

  /// Warm-starts the cache from a persistent on-disk store (see
  /// search::ResultStore). Keys carry the mapping-budget fingerprint, so a
  /// store written under different options simply never hits; stale reuse
  /// is impossible. Rejected (corrupt / version-mismatched / unreadable)
  /// stores load nothing and the evaluator proceeds cold — the returned
  /// status says why. Preloaded entries do not count toward
  /// cost_evaluations()/mapping_searches(): those meter only work this
  /// process performed. Not safe to call concurrently with evaluation.
  StoreStatus load_store(const std::string& path);

  /// Flushes the full cache (preloaded + freshly computed entries) to
  /// `path` atomically. Call when evaluation is quiescent.
  StoreStatus save_store(const std::string& path) const;

  /// Bulk-adopts already-computed entries from somewhere other than a
  /// store file — a fleet peer's pull_store payload, a test fixture.
  /// Exactly a preload: existing keys win, nothing is metered as this
  /// process's work, and the count lands in store_entries_loaded().
  /// Returns how many entries were actually new. Not safe to call
  /// concurrently with evaluation.
  std::size_t adopt_entries(StoreEntries entries);

  /// Entries adopted from load_store()/adopt_entries() calls so far.
  std::size_t store_entries_loaded() const { return store_entries_loaded_; }

  /// Monotonic cache-insertion counter (see EvalCache::sequence). Record it
  /// at a quiescent point, and snapshot_since() with that mark later
  /// returns exactly the entries added in between — the incremental-flush
  /// primitive the serving layer appends to its store.
  std::uint64_t cache_sequence() const { return cache_.sequence(); }

  /// Entries added after the `since` mark, sorted by key (ready for
  /// ResultStore::append). A linearizable cut: `*high_mark` (optional)
  /// receives the sequence the scan is consistent with — pass it back as
  /// the next `since` to stream incrementally without duplicates or
  /// holes, even while publishes race (see EvalCache::snapshot_since).
  StoreEntries snapshot_since(std::uint64_t since,
                              std::uint64_t* high_mark = nullptr) const {
    return cache_.snapshot_since(since, high_mark);
  }

  /// The cost model evaluation runs under — surrogate bounds must be
  /// computed against the same model (energy parameters) that scores the
  /// real evaluations, or they would stop being bounds.
  const cost::CostModel& model() const { return model_; }

  core::ThreadPool* pool() const { return pool_; }

 private:
  friend class EvalPipeline;

  std::uint64_t cache_key(const arch::ArchConfig& arch,
                          const nn::Workload& layer) const;

  /// Cached entry for (arch, layer), or nullptr.
  const MappingSearchResult* find_cached(const arch::ArchConfig& arch,
                                         const nn::Workload& layer) const;

  /// The mapping-search options actually used for `layer`: the evaluator's
  /// budget with a layer-dependent seed (decorrelates searches across
  /// layers while staying independent of evaluation order). The single
  /// source of truth for every search path — best_mapping and the
  /// pipeline's tasks must seed identically or cache contents would
  /// depend on which path filled an entry.
  MappingSearchOptions layer_options(const nn::Workload& layer) const;

  /// Publishes a finished search under `key` and, when it is the first
  /// result for the key, counts it into the work meters. Returns the
  /// resident entry. Shared by best_mapping and the pipeline's tasks.
  const MappingSearchResult& publish(std::uint64_t key,
                                     MappingSearchResult result);
  /// Folds one pipeline run's scheduler stats into the aggregate.
  void absorb_scheduler_stats(const core::TaskGraph::Stats& delta);

  const cost::CostModel& model_;
  MappingSearchOptions mapping_;
  std::uint64_t options_fingerprint_ = 0;  ///< mixed into every cache key
  core::ThreadPool* pool_ = nullptr;
  EvalCache cache_;
  std::atomic<long long> cost_evaluations_{0};
  std::atomic<long long> mapping_searches_{0};
  std::atomic<long long> generations_batched_{0};
  std::atomic<long long> candidates_batch_evaluated_{0};
  std::atomic<long long> surrogate_consults_{0};
  std::atomic<long long> surrogate_pruned_{0};
  mutable std::mutex sched_mutex_;
  core::TaskGraph::Stats sched_stats_;
  std::size_t store_entries_loaded_ = 0;
};

/// Configuration of the outer accelerator-architecture search loop.
struct NaasOptions {
  arch::ResourceConstraint resources;
  int population = 16;
  int iterations = 15;
  std::uint64_t seed = 1;
  OrderEncoding hw_encoding = OrderEncoding::kImportance;
  /// false reproduces the sizing-only ablation (Fig. 8).
  bool search_connectivity = true;
  MappingSearchOptions mapping;
  /// Evaluation threads: 0 => ThreadPool::default_num_threads()
  /// (NAAS_NUM_THREADS env or hardware_concurrency); 1 => today's exact
  /// serial behavior. Results are bit-identical for every value.
  int num_threads = 0;
  /// Warm-start designs evaluated before the evolution loop (best-ever
  /// tracking only; they do not enter the CMA population statistics).
  /// Standard DSE practice: the known reference design for the envelope is
  /// always worth one evaluation.
  std::vector<arch::ArchConfig> seed_designs;
  /// Additionally seed the envelope's published baseline preset when one
  /// exists (EdgeTPU / NVDLA / Eyeriss / ShiDianNao). Disable for search-
  /// quality ablations (Fig. 9).
  bool seed_baseline = true;
  /// Persistent on-disk mapping-result store (empty = disabled). Loaded
  /// before the search so repeated layer shapes skip their mapping-search
  /// CMA loop entirely, and flushed after it so the next run (CI job, sweep
  /// shard, rerun) warm-starts from this one. Results are bit-identical to
  /// a cold run; corrupt or version-mismatched stores are rejected with a
  /// warning and the search runs cold.
  std::string cache_path;
  /// Load the store but never write it back (shared/read-only caches).
  bool cache_readonly = false;
  /// Analytical surrogate pruning (search/surrogate.*): under kPrune, each
  /// resource-feasible candidate's roofline lower bound is compared with
  /// the best geomean EDP known at its generation's start. Candidates
  /// whose bound already exceeds it are deferred; once the rest of the
  /// generation has reported, the ones whose bound is also strictly worse
  /// than the generation's mu-th best fitness skip the full mapping-search
  /// evaluation (the bound stands in as their fitness), and the rest are
  /// evaluated after all. Because the bound is exact and CmaEs::tell is
  /// rank-only (see CmaEs::parents), the pruned candidates sit outside the
  /// parent set under bound or true cost alike: the search trajectory, the
  /// returned best, and population_best_edp are all bit-identical to kOff
  /// at every thread count. Only population_mean_edp may differ (it
  /// averages the stand-in bounds), plus the work/meter counts that
  /// pruning exists to reduce. kOff (default) preserves legacy behavior
  /// exactly, consulting no bounds at all.
  SurrogateMode surrogate = SurrogateMode::kOff;
  /// Cost-kernel backend override (--cost-backend). nullopt leaves the
  /// caller's CostModel untouched; a value re-targets evaluation onto a
  /// copy of the model with that backend selected (kAuto picks the best
  /// available). Pure throughput knob: every backend is byte-identical to
  /// scalar, so results never depend on it.
  std::optional<cost::BackendKind> cost_backend;
};

/// Outcome of a NAAS accelerator+mapping co-search.
struct NaasResult {
  arch::ArchConfig best_arch;
  double best_geomean_edp = 0;
  std::vector<cost::NetworkCost> best_networks;  ///< costs on best_arch
  std::vector<double> population_mean_edp;  ///< per iteration (Fig. 4)
  std::vector<double> population_best_edp;  ///< per iteration
  long long cost_evaluations = 0;
  long long mapping_searches = 0;
  /// Batched-cost-model meters (see ArchEvaluator::generations_batched).
  long long generations_batched = 0;
  long long candidates_batch_evaluated = 0;
  /// Scheduler work meter (see ArchEvaluator::tasks_executed).
  long long tasks_executed = 0;
  /// Always 0. Kept only because the frozen benchmark source
  /// (naasbench/src/search_workloads.cpp) still reads them.
  long long speculative_hits = 0;
  long long speculative_wasted = 0;
  /// Surrogate-pruning meters (see NaasOptions::surrogate): lower-bound
  /// consultations and the candidates they pruned. Both 0 under kOff.
  long long surrogate_consults = 0;
  long long surrogate_pruned = 0;
  /// Entries warm-started from NaasOptions::cache_path (0 when disabled,
  /// missing, or rejected).
  long long store_entries_loaded = 0;
  /// Resolved cost-kernel backend that scored this search ("scalar",
  /// "avx2", ...) — what NaasOptions::cost_backend (or the model default)
  /// actually dispatched to.
  std::string cost_backend;
  double wall_seconds = 0;
};

/// Warm-starts `evaluator` from the store at `path` (no-op when `path` is
/// empty), logging a warning when an existing file is rejected. Returns the
/// number of entries adopted. Shared by every search entry point that
/// exposes a cache_path option.
long long warm_start_from_store(ArchEvaluator& evaluator,
                                const std::string& path);

/// Flushes `evaluator`'s cache back to `path` unless disabled (`path`
/// empty) or `readonly`; logs a warning when the write fails.
void flush_to_store(const ArchEvaluator& evaluator, const std::string& path,
                    bool readonly);

/// Runs the NAAS outer evolution loop (Fig. 1): sample accelerator
/// candidates within the resource envelope, score each by geomean EDP over
/// `benchmarks` (with the inner mapping search per layer), update the CMA
/// distribution, and return the fittest design.
///
/// The whole evolution runs as ONE task graph: every candidate's layer
/// searches interleave freely, each candidate reports its fitness through
/// CmaEs::tell_partial as it finishes, and the report that completes a
/// generation *schedules* the next one (no join anywhere). The returned
/// result is bit-identical for any `options.num_threads`.
NaasResult run_naas(const cost::CostModel& model, const NaasOptions& options,
                    const std::vector<nn::Network>& benchmarks);

}  // namespace naas::search
