#include "search/eval_pipeline.hpp"

#include <memory>
#include <utility>

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

  // The slot is shared by the chain (which fills it) and the publish task
  // (which moves it into the cache); the publish closure keeps it alive
  // until the graph has run it.
  auto slot = std::make_shared<MappingSearchResult>();
  const core::TaskGraph::TaskId done =
      submit_mapping_search(graph_, evaluator_.model_, arch, layer,
                            evaluator_.layer_options(layer), slot.get());
  it->second = graph_.submit(
      [this, key, slot] {
        bool inserted = false;
        const MappingSearchResult& entry =
            evaluator_.cache_.publish(key, std::move(*slot), &inserted);
        if (inserted) evaluator_.record_publish(entry);
      },
      {done});
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
