#include "search/mapping_search.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.hpp"
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

/// Normals one CMA generation consumes (population x genome_size).
std::size_t normals_per_generation(const MappingSearchOptions& options) {
  return static_cast<std::size_t>(options.population) *
         static_cast<std::size_t>(options.encoding.genome_size());
}

/// Normals a whole search consumes; no generation runs below 1 iteration.
std::size_t normals_per_search(const MappingSearchOptions& options) {
  return static_cast<std::size_t>(std::max(0, options.iterations)) *
         normals_per_generation(options);
}

std::atomic<long long> normals_drawn{0};

}  // namespace

long long mapping_normals_drawn() { return normals_drawn.load(); }

std::vector<double> mapping_normals(const MappingSearchOptions& options) {
  normals_drawn.fetch_add(1, std::memory_order_relaxed);
  core::Rng rng(options.seed);
  std::vector<double> normals(normals_per_search(options));
  for (double& z : normals) z = rng.normal();
  return normals;
}

MappingSearchResult search_mapping(const cost::CostModel& model,
                                   const arch::ArchConfig& arch,
                                   const nn::Workload& layer,
                                   const MappingSearchOptions& options,
                                   std::span<const double> normals) {
  if (normals.size() != normals_per_search(options))
    throw std::invalid_argument(
        "search_mapping: normals stream holds " +
        std::to_string(normals.size()) + " values, the budget consumes " +
        std::to_string(normals_per_search(options)));
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

  // The seed reaches the optimizer only through `normals`.
  CmaEsOptions cma_opts;
  cma_opts.dim = options.encoding.genome_size();
  cma_opts.population = options.population;
  CmaEs cma(cma_opts);
  // Per-generation slots, reused: evaluate_batch rewrites every report.
  std::vector<mapping::Mapping> mappings;
  std::vector<cost::CostReport> reports;
  std::vector<double> fitness;
  const std::size_t per_generation = normals_per_generation(options);
  for (int iter = 0; iter < options.iterations; ++iter) {
    const std::vector<std::vector<double>> population = cma.ask_from(
        normals.subspan(static_cast<std::size_t>(iter) * per_generation,
                        per_generation));
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

MappingSearchResult search_mapping(const cost::CostModel& model,
                                   const arch::ArchConfig& arch,
                                   const nn::Workload& layer,
                                   const MappingSearchOptions& options,
                                   core::ThreadPool* /*pool*/) {
  return search_mapping(model, arch, layer, options, mapping_normals(options));
}

}  // namespace naas::search
