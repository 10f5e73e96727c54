#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/task_graph.hpp"
#include "nn/network.hpp"
#include "search/mapping_search.hpp"

namespace naas::search {

class ArchEvaluator;

/// One task-graph run spanning any number of deduplicated mapping searches
/// plus caller-defined tasks (per-candidate finalizes, outer-loop generation
/// continuations). A request batches (arch, layer) work units from any
/// number of candidates and networks and submits one task per layer shape:
/// it draws that layer's CMA-ES normal stream once (mapping_normals; the
/// stream depends on the layer's seed and the budget, never on the arch)
/// and runs search_mapping for each of the group's accelerators from it,
/// publishing every result into the EvalCache. Groups from every
/// candidate, network, and generation share one graph, so no caller joins
/// on a whole population.
///
/// Dedup: work units are keyed by the evaluator's cache key; the first
/// request joins the unit to a group task, later requests just return that
/// task's id, so dependents can sequence after residency.
///
/// Thread safety: request() may be called from graph task bodies (that is
/// how the outer search schedules generation g+1's work from generation
/// g's completion), but from ONE logical driver at a time — the pre-run
/// caller or the single bookkeeping task of the moment. Every pipeline
/// user satisfies this structurally: seed requests happen before run(),
/// and in-flight requests only ever come from the one generation
/// continuation that is active (serialized by the outer search's lock).
/// No task body touches the request map — group tasks only publish into
/// the (mutex-striped) cache and bump atomic meters — so the map needs no
/// lock of its own.
class EvalPipeline {
 public:
  using TaskId = core::TaskGraph::TaskId;

  /// One mapping-search work unit. The pointees need to outlive only the
  /// request() call: group tasks keep their own copies.
  struct WorkUnit {
    const arch::ArchConfig* arch;
    const nn::Workload* layer;
  };

  explicit EvalPipeline(ArchEvaluator& evaluator);

  /// The underlying graph, for caller-defined tasks (finalizes,
  /// continuations, promises).
  core::TaskGraph& graph() { return graph_; }

  /// Ensures every unit's mapping-search result will be resident in the
  /// evaluator's cache once its task completes. Units already resident or
  /// already requested start no new search; the rest are grouped by layer
  /// shape, one task per group. Returns one id per unit, in order: the
  /// task that publishes it, or 0 when it was resident before this
  /// pipeline saw it (nothing to wait on).
  std::vector<TaskId> request(std::span<const WorkUnit> units);

  /// request() over every unique layer shape of `networks` for each of
  /// `archs`, as one batch, so each layer shape's searches share a task.
  /// Returns each arch's dependency set (the ids of its units that are not
  /// yet resident): the shared traversal for all callers, so a candidate's
  /// assembly task can never drift out of sync with the searches actually
  /// requested for it.
  std::vector<std::vector<TaskId>> request_benchmarks(
      std::span<const arch::ArchConfig> archs,
      std::span<const nn::Network> networks);

  /// Drives the graph to quiescence and folds the scheduler stats into the
  /// evaluator's work meters. Rethrows the first task error.
  void run();

 private:
  ArchEvaluator& evaluator_;
  core::TaskGraph graph_;
  /// Group-task id per requested key (one deduplicated (arch, layer) work
  /// unit each); 0 when the result was already resident at request time
  /// (nothing to depend on).
  std::unordered_map<std::uint64_t, TaskId> published_;
  core::TaskGraph::Stats absorbed_;  ///< stats already folded into meters
};

}  // namespace naas::search
