#include "search/mapping_search.hpp"

#include <array>
#include <limits>
#include <vector>

#include "mapping/canonical.hpp"
#include "search/cma_es.hpp"

namespace naas::search {
namespace {

/// Folds one evaluated candidate into the running best. Always called in
/// candidate order (canonical seeds first, then genome index within each
/// generation), which fixes the tie-breaking.
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

}  // namespace

MappingSearchResult search_mapping(const cost::CostModel& model,
                                   const arch::ArchConfig& arch,
                                   const nn::Workload& layer,
                                   const MappingSearchOptions& options,
                                   core::ThreadPool* /*pool*/) {
  MappingSearchResult result;
  result.best_edp = std::numeric_limits<double>::infinity();
  // One context carries every per-(arch, layer) invariant for the whole
  // search; all candidate scoring goes through the batched evaluator.
  const cost::LayerContext ctx = model.make_context(arch, layer);

  if (options.seed_canonical) {
    std::array<mapping::Mapping, 3> seeds;
    std::array<cost::CostReport, 3> seed_reports;
    std::size_t k = 0;
    for (arch::Dataflow df : {arch::Dataflow::kWeightStationary,
                              arch::Dataflow::kOutputStationary,
                              arch::Dataflow::kRowStationary})
      seeds[k++] = mapping::canonical_mapping(arch, layer, df);
    model.evaluate_batch(ctx, seeds, seed_reports);
    result.candidates_batch_evaluated += static_cast<long long>(seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i)
      reduce(result, seeds[i], seed_reports[i]);
  }

  CmaEsOptions cma_opts;
  cma_opts.dim = options.encoding.genome_size();
  cma_opts.population = options.population;
  cma_opts.seed = options.seed;
  CmaEs cma(cma_opts);
  // Per-generation slots, reused: evaluate_batch rewrites every report.
  std::vector<mapping::Mapping> mappings;
  std::vector<cost::CostReport> reports;
  std::vector<double> fitness;
  for (int iter = 0; iter < options.iterations; ++iter) {
    const std::vector<std::vector<double>> population = cma.ask();
    const std::size_t n = population.size();
    mappings.resize(n);
    reports.resize(n);
    fitness.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      mappings[i] = options.encoding.decode(population[i], arch, layer);
    model.evaluate_batch(ctx, mappings, reports);
    ++result.generations_batched;
    result.candidates_batch_evaluated += static_cast<long long>(n);
    for (std::size_t i = 0; i < n; ++i)
      fitness[i] = reduce(result, mappings[i], reports[i]);
    // Nothing reads the optimizer after the last generation, so its final
    // covariance update and Cholesky factorization are skipped.
    if (iter + 1 < options.iterations) cma.tell(population, fitness);
  }
  return result;
}

}  // namespace naas::search
