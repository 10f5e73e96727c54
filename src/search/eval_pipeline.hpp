#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/task_graph.hpp"
#include "nn/network.hpp"
#include "search/mapping_search.hpp"

namespace naas::search {

class ArchEvaluator;

/// One task-graph run spanning any number of deduplicated mapping searches
/// plus caller-defined tasks (per-candidate finalizes, outer-loop generation
/// continuations). Every (arch, layer) work unit across every candidate,
/// network, and generation becomes one task that runs search_mapping and
/// publishes the result into the EvalCache, so a slow layer's search
/// overlaps every other search and no caller joins on a whole population.
///
/// Dedup: work units are keyed by the evaluator's cache key; the first
/// request submits the unit's task, later requests just return its id, so
/// dependents can sequence after residency.
///
/// Thread safety: request() may be called from graph task bodies (that is
/// how the outer search schedules generation g+1's work from generation
/// g's completion), but from ONE logical driver at a time — the pre-run
/// caller or the single bookkeeping task of the moment. Every pipeline
/// user satisfies this structurally: seed requests happen before run(),
/// and in-flight requests only ever come from the one generation
/// continuation that is active (serialized by the outer search's lock).
/// No task body touches the request map — search tasks only publish into
/// the (mutex-striped) cache and bump atomic meters — so the map needs no
/// lock of its own.
class EvalPipeline {
 public:
  explicit EvalPipeline(ArchEvaluator& evaluator);

  /// The underlying graph, for caller-defined tasks (finalizes,
  /// continuations, promises).
  core::TaskGraph& graph() { return graph_; }

  /// Ensures the mapping-search result for (arch, layer) will be resident
  /// in the evaluator's cache once the returned task completes. Returns
  /// nothing when the result is already resident (no task to wait on);
  /// otherwise the id of the unit's search-and-publish task.
  std::optional<core::TaskGraph::TaskId> request(const arch::ArchConfig& arch,
                                                 const nn::Workload& layer);

  /// request() over every unique layer shape of `net`, appending the ids
  /// of units not yet resident to `deps` (when given). The shared
  /// traversal for all callers, so a candidate's dependency set can never
  /// drift out of sync with the searches actually requested for it.
  void request_network(const arch::ArchConfig& arch, const nn::Network& net,
                       std::vector<core::TaskGraph::TaskId>* deps = nullptr);

  /// request_network over a benchmark set; returns the collected ids (the
  /// dependency set of one candidate's assembly task).
  std::vector<core::TaskGraph::TaskId> request_benchmarks(
      const arch::ArchConfig& arch, const std::vector<nn::Network>& benchmarks);

  /// Drives the graph to quiescence and folds the scheduler stats into the
  /// evaluator's work meters. Rethrows the first task error.
  void run();

 private:
  ArchEvaluator& evaluator_;
  core::TaskGraph graph_;
  /// Search-task id per requested key (one deduplicated (arch, layer)
  /// work unit each); 0 when the result was already resident at request
  /// time (nothing to depend on).
  std::unordered_map<std::uint64_t, core::TaskGraph::TaskId> published_;
  core::TaskGraph::Stats absorbed_;  ///< stats already folded into meters
};

}  // namespace naas::search
