#include "search/eval_pipeline.hpp"

#include "search/accelerator_search.hpp"

namespace naas::search {

EvalPipeline::EvalPipeline(ArchEvaluator& evaluator)
    : evaluator_(evaluator), graph_(evaluator.pool()) {}

std::optional<core::TaskGraph::TaskId> EvalPipeline::request(
    const arch::ArchConfig& arch, const nn::Workload& layer) {
  const std::uint64_t key = evaluator_.cache_key(arch, layer);
  const auto [it, fresh] = published_.try_emplace(key, 0);
  if (!fresh) {
    if (it->second == 0) return std::nullopt;
    return it->second;
  }
  // Resident before this pipeline ever saw the key (warm start or an
  // earlier pipeline): nothing to run, nothing to wait on.
  if (evaluator_.cache_.find(key) != nullptr) return std::nullopt;

  it->second = graph_.submit([this, key, arch, layer] {
    evaluator_.publish(key, search_mapping(evaluator_.model_, arch, layer,
                                           evaluator_.layer_options(layer)));
  });
  return it->second;
}

void EvalPipeline::request_network(const arch::ArchConfig& arch,
                                   const nn::Network& net,
                                   std::vector<core::TaskGraph::TaskId>* deps) {
  for (const auto& [layer, count] : net.unique_layers()) {
    const auto id = request(arch, layer);
    if (id && deps != nullptr) deps->push_back(*id);
  }
}

std::vector<core::TaskGraph::TaskId> EvalPipeline::request_benchmarks(
    const arch::ArchConfig& arch, const std::vector<nn::Network>& benchmarks) {
  std::vector<core::TaskGraph::TaskId> deps;
  for (const auto& net : benchmarks) request_network(arch, net, &deps);
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
