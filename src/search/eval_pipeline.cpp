#include "search/eval_pipeline.hpp"

#include <utility>

#include "search/accelerator_search.hpp"

namespace naas::search {

EvalPipeline::EvalPipeline(ArchEvaluator& evaluator)
    : evaluator_(evaluator), graph_(evaluator.pool()) {}

std::vector<EvalPipeline::TaskId> EvalPipeline::request(
    std::span<const WorkUnit> units) {
  /// The new units of one layer shape: (cache key, arch) per accelerator.
  struct Group {
    nn::Workload layer;
    std::vector<std::pair<std::uint64_t, arch::ArchConfig>> members;
    std::vector<TaskId*> slots;  ///< the members' published_ entries
  };
  std::vector<Group> groups;
  std::unordered_map<std::uint64_t, std::size_t> group_of_shape;
  // published_ never erases, so pointers to its values stay valid across
  // the insertions below.
  std::vector<const TaskId*> unit_slots;
  unit_slots.reserve(units.size());
  for (const WorkUnit& unit : units) {
    const std::uint64_t key = evaluator_.cache_key(*unit.arch, *unit.layer);
    const auto [it, fresh] = published_.try_emplace(key, 0);
    unit_slots.push_back(&it->second);
    // Requested before, or resident before this pipeline ever saw the key
    // (warm start or an earlier pipeline): nothing new to run.
    if (!fresh || evaluator_.cache_.find(key) != nullptr) continue;
    const auto [g, new_shape] = group_of_shape.try_emplace(
        nn::LayerShapeHash{}(*unit.layer), groups.size());
    if (new_shape) groups.push_back({*unit.layer, {}, {}});
    groups[g->second].members.emplace_back(key, *unit.arch);
    groups[g->second].slots.push_back(&it->second);
  }

  for (Group& group : groups) {
    const TaskId id = graph_.submit(
        [this, layer = std::move(group.layer),
         members = std::move(group.members)] {
          const MappingSearchOptions options = evaluator_.layer_options(layer);
          const std::vector<double> normals = mapping_normals(options);
          for (const auto& [key, arch] : members)
            evaluator_.publish(key, search_mapping(evaluator_.model_, arch,
                                                   layer, options, normals));
        });
    for (TaskId* slot : group.slots) *slot = id;
  }

  std::vector<TaskId> ids;
  ids.reserve(units.size());
  for (const TaskId* slot : unit_slots) ids.push_back(*slot);
  return ids;
}

std::vector<std::vector<EvalPipeline::TaskId>> EvalPipeline::request_benchmarks(
    std::span<const arch::ArchConfig> archs,
    std::span<const nn::Network> networks) {
  std::vector<std::vector<std::pair<nn::Workload, int>>> layers;
  layers.reserve(networks.size());
  for (const nn::Network& net : networks) layers.push_back(net.unique_layers());
  std::vector<WorkUnit> units;
  for (const arch::ArchConfig& arch : archs)
    for (const auto& net_layers : layers)
      for (const auto& [layer, count] : net_layers)
        units.push_back({&arch, &layer});

  const std::vector<TaskId> ids = request(units);
  std::vector<std::vector<TaskId>> deps(archs.size());
  const std::size_t per_arch = archs.empty() ? 0 : units.size() / archs.size();
  for (std::size_t i = 0; i < ids.size(); ++i)
    if (ids[i] != 0) deps[i / per_arch].push_back(ids[i]);
  return deps;
}

void EvalPipeline::run() {
  graph_.run();
  const core::TaskGraph::Stats now = graph_.stats();
  core::TaskGraph::Stats delta = now;
  delta.tasks_executed -= absorbed_.tasks_executed;
  delta.tasks_skipped -= absorbed_.tasks_skipped;
  delta.busy_seconds -= absorbed_.busy_seconds;
  delta.wall_seconds -= absorbed_.wall_seconds;
  absorbed_ = now;
  evaluator_.absorb_scheduler_stats(delta);
}

}  // namespace naas::search
