#include "search/mapping_search.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "mapping/canonical.hpp"
#include "search/cma_es.hpp"

namespace naas::search {
namespace {

/// Candidates per shard task. Fixed (instead of derived from the pool
/// size) so a chain's task breakdown — and therefore its tasks_executed
/// meter — is identical for every thread count; shard boundaries cannot
/// change results anyway (evaluate_batch is bit-identical at any batch
/// size, property-tested in test_cost_batch).
constexpr std::size_t kShardCandidates = 4;

/// Everything one mapping-search chain carries between its tasks. Owned by
/// a shared_ptr captured into every task body; only one task of a chain
/// runs at a time except the shard batch, and shards write disjoint slices.
struct ChainState {
  ChainState(core::TaskGraph& g, const cost::CostModel& m,
             const arch::ArchConfig& a, const nn::Workload& l,
             const MappingSearchOptions& o, MappingSearchResult* res)
      : graph(g), model(m), arch(a), layer(l), options(o), out(res) {}

  core::TaskGraph& graph;
  const cost::CostModel& model;
  arch::ArchConfig arch;
  nn::Workload layer;
  MappingSearchOptions options;
  MappingSearchResult* out;
  core::TaskGraph::TaskId done = 0;  ///< promise fulfilled by the finale

  std::optional<cost::LayerContext> ctx;
  std::optional<CmaEs> cma;
  MappingSearchResult result;
  int iter = 0;
  /// Per-generation decode/evaluate slots (candidate-indexed).
  std::vector<mapping::Mapping> mappings;
  std::vector<cost::CostReport> reports;
};

/// Folds one evaluated candidate into the running best. Always called in
/// candidate order (canonical seeds first, then genome index within each
/// generation), which fixes the tie-breaking independently of how the
/// evaluations themselves were scheduled.
double reduce(MappingSearchResult& result, const mapping::Mapping& m,
              const cost::CostReport& rep) {
  ++result.evaluations;
  if (rep.legal && rep.edp < result.best_edp) {
    result.best_edp = rep.edp;
    result.best = m;
    result.report = rep;
  }
  return rep.legal ? rep.edp : std::numeric_limits<double>::infinity();
}

void submit_generation(const std::shared_ptr<ChainState>& st);

/// Chain finale: hand the result to the caller and complete the promise so
/// dependents (cache publishes, candidate finalizes) become ready.
void finish_chain(const std::shared_ptr<ChainState>& st) {
  *st->out = std::move(st->result);
  st->graph.fulfill(st->done);
}

/// Samples the next generation and submits its shard tasks plus the
/// continuation that reduces, steps the optimizer, and schedules the
/// generation after — the loop of the old barrier engine unrolled into
/// continuation-passing form.
void submit_generation(const std::shared_ptr<ChainState>& st) {
  if (st->iter >= st->options.iterations) {
    finish_chain(st);
    return;
  }
  const auto& population = st->cma->begin_generation();
  const std::size_t n = population.size();
  st->mappings.assign(n, mapping::Mapping{});
  st->reports.assign(n, cost::CostReport{});

  std::vector<core::TaskGraph::TaskId> shard_ids;
  for (std::size_t lo = 0; lo < n; lo += kShardCandidates) {
    const std::size_t hi = std::min(n, lo + kShardCandidates);
    shard_ids.push_back(st->graph.submit(
        [st, lo, hi] {
          // (tasks_executed for the shards is credited by the continuation:
          // shards run concurrently and must only write their own slices.)
          const auto& pop = st->cma->pending_population();
          for (std::size_t i = lo; i < hi; ++i)
            st->mappings[i] =
                st->options.encoding.decode(pop[i], st->arch, st->layer);
          st->model.evaluate_batch(
              *st->ctx,
              std::span<const mapping::Mapping>(st->mappings)
                  .subspan(lo, hi - lo),
              std::span<cost::CostReport>(st->reports).subspan(lo, hi - lo));
        }));
  }

  const auto num_shards = static_cast<long long>(shard_ids.size());
  st->graph.submit(
      [st, n, num_shards] {
        st->result.tasks_executed += 1 + num_shards;
        ++st->result.generations_batched;
        st->result.candidates_batch_evaluated += static_cast<long long>(n);
        bool complete = false;
        for (std::size_t i = 0; i < n; ++i)
          complete = st->cma->tell_partial(
              i, reduce(st->result, st->mappings[i], st->reports[i]));
        (void)complete;  // always true here: the continuation reports all n
        ++st->iter;
        submit_generation(st);
      },
      shard_ids);
}

}  // namespace

core::TaskGraph::TaskId submit_mapping_search(
    core::TaskGraph& graph, const cost::CostModel& model,
    const arch::ArchConfig& arch, const nn::Workload& layer,
    const MappingSearchOptions& options, MappingSearchResult* out) {
  auto st = std::make_shared<ChainState>(graph, model, arch, layer, options,
                                         out);
  st->done = graph.make_promise();
  graph.submit([st] {
    ++st->result.tasks_executed;
    st->result.best_edp = std::numeric_limits<double>::infinity();
    // One context carries every per-(arch, layer) invariant for the whole
    // chain; all candidate scoring goes through the batched evaluator.
    st->ctx.emplace(st->model.make_context(st->arch, st->layer));

    if (st->options.seed_canonical) {
      std::array<mapping::Mapping, 3> seeds;
      std::array<cost::CostReport, 3> seed_reports;
      std::size_t k = 0;
      for (arch::Dataflow df : {arch::Dataflow::kWeightStationary,
                                arch::Dataflow::kOutputStationary,
                                arch::Dataflow::kRowStationary})
        seeds[k++] = mapping::canonical_mapping(st->arch, st->layer, df);
      st->model.evaluate_batch(*st->ctx, seeds, seed_reports);
      st->result.candidates_batch_evaluated +=
          static_cast<long long>(seeds.size());
      for (std::size_t i = 0; i < seeds.size(); ++i)
        reduce(st->result, seeds[i], seed_reports[i]);
    }

    CmaEsOptions cma_opts;
    cma_opts.dim = st->options.encoding.genome_size();
    cma_opts.population = st->options.population;
    cma_opts.seed = st->options.seed;
    st->cma.emplace(cma_opts);
    submit_generation(st);
  });
  return st->done;
}

MappingSearchResult search_mapping(const cost::CostModel& model,
                                   const arch::ArchConfig& arch,
                                   const nn::Workload& layer,
                                   const MappingSearchOptions& options,
                                   core::ThreadPool* pool) {
  core::TaskGraph graph(pool);
  MappingSearchResult result;
  submit_mapping_search(graph, model, arch, layer, options, &result);
  graph.run();
  return result;
}

}  // namespace naas::search
