#include "nas/nas_search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "core/timer.hpp"
#include "search/cma_es.hpp"

namespace naas::nas {
namespace {

/// Scored subnet candidate inside the evolution loop.
struct Scored {
  nn::OfaConfig cfg;
  double accuracy = 0;
  double edp = std::numeric_limits<double>::infinity();
  /// Config fingerprint (the edp_cache key), the sort tie-breaker: equal-EDP
  /// members order the same way whatever order the sort meets them in.
  std::uint64_t fp = 0;
};

}  // namespace

SubnetResult evolve_subnet(search::ArchEvaluator& evaluator,
                           const arch::ArchConfig& arch,
                           const nn::OfaSpace& space,
                           const nn::AccuracyPredictor& predictor,
                           const SubnetEvolutionOptions& options) {
  core::Rng rng(options.seed);
  // Memoize subnet EDP by config fingerprint: mutation/crossover revisit
  // genotypes frequently.
  std::unordered_map<std::uint64_t, double> edp_cache;

  SubnetResult best;
  best.edp = std::numeric_limits<double>::infinity();

  auto score = [&](const nn::OfaConfig& cfg) {
    Scored s;
    s.cfg = space.repair(cfg);
    if (options.width_and_expand_only) {
      s.cfg.image_size = 224;
      s.cfg.depths = nn::OfaSpace::resnet50_config().depths;
    }
    s.accuracy = predictor.predict(s.cfg);
    if (s.accuracy < options.min_accuracy) return s;  // infeasible: inf EDP
    const std::uint64_t key = s.cfg.fingerprint();
    s.fp = key;
    auto it = edp_cache.find(key);
    if (it == edp_cache.end()) {
      const auto nc = evaluator.evaluate(arch, space.to_network(s.cfg));
      it = edp_cache.emplace(key, nc.legal ? nc.edp : s.edp).first;
    }
    s.edp = it->second;
    return s;
  };

  // Accuracy-constrained initial population ("sample a network candidate
  // ... which satisfies the pre-defined accuracy requirement").
  std::vector<Scored> population;
  for (int attempt = 0;
       attempt < options.max_sample_attempts &&
       static_cast<int>(population.size()) < options.population;
       ++attempt) {
    Scored s = score(space.sample(rng));
    if (std::isfinite(s.edp)) population.push_back(std::move(s));
  }
  if (population.empty()) {
    // The constraint may be unreachable by uniform sampling; fall back to
    // the full-capacity config so the caller still gets a feasible answer
    // when one exists at all.
    Scored s = score(nn::OfaSpace::full_config());
    if (std::isfinite(s.edp)) population.push_back(std::move(s));
  }

  auto update_best = [&best](const Scored& s) {
    if (s.edp < best.edp) {
      best.edp = s.edp;
      best.config = s.cfg;
      best.accuracy = s.accuracy;
    }
  };
  for (const auto& s : population) update_best(s);
  if (population.empty()) return best;  // edp stays +inf

  const auto by_edp = [](const Scored& a, const Scored& b) {
    if (a.edp != b.edp) return a.edp < b.edp;
    return a.fp < b.fp;  // total order; see Scored::fp
  };
  for (int iter = 0; iter < options.iterations; ++iter) {
    std::sort(population.begin(), population.end(), by_edp);
    // Parents are drawn from the best half, at least two, but never from
    // past the end: a floor that few samples meet can leave fewer than two.
    const int size = static_cast<int>(population.size());
    const int parents = std::min(size, std::max(2, size / 2));
    std::vector<Scored> next(population.begin(), population.begin() + parents);
    while (static_cast<int>(next.size()) < options.population) {
      const Scored& pa =
          population[static_cast<std::size_t>(rng.index(parents))];
      const Scored& pb =
          population[static_cast<std::size_t>(rng.index(parents))];
      nn::OfaConfig child = rng.bernoulli(0.5)
                                ? space.mutate(pa.cfg, rng, options.mutate_rate)
                                : space.crossover(pa.cfg, pb.cfg, rng);
      Scored s = score(child);
      if (std::isfinite(s.edp)) {
        update_best(s);
        next.push_back(std::move(s));
      } else if (rng.bernoulli(0.1)) {
        break;  // avoid spinning when the constraint rejects most children
      }
    }
    population = std::move(next);
  }
  return best;
}

CoSearchResult run_cosearch(const cost::CostModel& model,
                            const CoSearchOptions& options) {
  core::Timer timer;
  CoSearchResult result;
  result.best_edp = std::numeric_limits<double>::infinity();

  const search::HwEncodingSpec hw = search::make_hw_spec(
      options.resources, options.hw_encoding, options.search_connectivity);

  core::ThreadPool pool(options.num_threads);
  // --cost-backend override on a local model copy, as in run_naas.
  cost::CostModel backend_model = model;
  if (options.cost_backend) backend_model.set_backend(*options.cost_backend);
  result.cost_backend = backend_model.backend_name();
  search::ArchEvaluator evaluator(backend_model, options.mapping, &pool);
  result.store_entries_loaded =
      search::warm_start_from_store(evaluator, options.cache_path);
  const nn::OfaSpace space;
  const nn::AccuracyPredictor predictor;

  search::CmaEsOptions cma_opts;
  cma_opts.dim = hw.genome_size();
  cma_opts.population = options.hw_population;
  cma_opts.seed = options.seed;
  search::CmaEs cma(cma_opts);

  const auto is_valid = [&hw](const std::vector<double>& genome) {
    return hw.valid(genome);
  };

  // Warm start with the envelope's reference design (matches run_naas).
  if (options.seed_baseline) {
    try {
      const arch::ArchConfig seed = arch::baseline_for(options.resources);
      const bool connectivity_ok =
          options.search_connectivity ||
          (seed.num_array_dims == 2 &&
           seed.parallel_dims[0] == hw.fixed_parallel_dims[0] &&
           seed.parallel_dims[1] == hw.fixed_parallel_dims[1]);
      if (connectivity_ok && options.resources.allows(seed)) {
        const SubnetResult sr =
            evolve_subnet(evaluator, seed, space, predictor, options.subnet);
        if (sr.edp < result.best_edp) {
          result.best_edp = sr.edp;
          result.best_arch = seed;
          result.best_net = sr.config;
          result.best_accuracy = sr.accuracy;
        }
      }
    } catch (const std::invalid_argument&) {
      // No published baseline for this envelope.
    }
  }

  for (int iter = 0; iter < options.hw_iterations; ++iter) {
    const auto population = cma.ask(is_valid);
    std::vector<arch::ArchConfig> configs;
    configs.reserve(population.size());
    for (const auto& genome : population) configs.push_back(hw.decode(genome));
    // One evolution per feasible candidate, all at once: each depends only
    // on its accelerator and its seed, and each writes its own slot.
    std::vector<SubnetResult> found(configs.size());
    pool.parallel_for(configs.size(), [&](std::size_t k) {
      found[k].edp = std::numeric_limits<double>::infinity();
      if (!options.resources.allows(configs[k])) return;
      SubnetEvolutionOptions sub = options.subnet;
      sub.seed = options.subnet.seed + 7919 * (iter + 1) + k;
      found[k] = evolve_subnet(evaluator, configs[k], space, predictor, sub);
    });
    std::vector<double> fitness;
    fitness.reserve(found.size());
    for (std::size_t k = 0; k < found.size(); ++k) {
      fitness.push_back(found[k].edp);
      if (found[k].edp < result.best_edp) {
        result.best_edp = found[k].edp;
        result.best_arch = configs[k];
        result.best_net = found[k].config;
        result.best_accuracy = found[k].accuracy;
      }
    }
    cma.tell(population, fitness);
  }
  search::flush_to_store(evaluator, options.cache_path,
                         options.cache_readonly);
  result.cost_evaluations = evaluator.cost_evaluations();
  result.mapping_searches = evaluator.mapping_searches();
  result.generations_batched = evaluator.generations_batched();
  result.candidates_batch_evaluated = evaluator.candidates_batch_evaluated();
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace naas::nas
