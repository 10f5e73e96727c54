#include "nas/nas_search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "core/timer.hpp"
#include "search/cma_es.hpp"

namespace naas::nas {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Scored subnet candidate inside the evolution loop.
struct Scored {
  nn::OfaConfig cfg;
  double accuracy = 0;
  double edp = kInf;
  /// Config fingerprint (the edp_cache key), the sort tie-breaker: equal-EDP
  /// members order the same way whatever order the sort meets them in.
  std::uint64_t fp = 0;
};

/// One subnet evolution, advanced phase by phase. A phase is one round of
/// initial-population sampling, the full-config fallback, or one breeding
/// round. propose() draws the phase's subnets from the rng and the accuracy
/// predictor alone and lists the layer shapes their EDPs need; once a fill
/// has made those resident, absorb() scores the subnets in proposal order.
///
/// Proposing a whole phase before scoring it draws exactly the subnets that
/// scoring each one as it is drawn would:
/// - A sampling round stops where its accuracy-feasible samples would fill
///   the population. If one scores +inf, the next round continues from the
///   same rng state, so the samples scored are the same, in the same order.
/// - Breeding starts only once the population holds a finite member. On
///   one accelerator either every layer maps or none does, so every
///   accuracy-feasible child is finite and no rng draw waits on a score.
///   A child that breaks this throws std::logic_error.
class Evolution {
 public:
  Evolution(const arch::ArchConfig& arch, const nn::OfaSpace& space,
            const nn::AccuracyPredictor& predictor,
            const SubnetEvolutionOptions& options)
      : arch_(arch),
        space_(space),
        predictor_(predictor),
        options_(options),
        rng_(options.seed) {
    best_.edp = kInf;
  }

  bool done() const { return stage_ == Stage::kDone; }
  const SubnetResult& best() const { return best_; }
  const arch::ArchConfig& arch() const { return arch_; }
  /// Distinct layer shapes of this phase's subnets that have no EDP yet.
  const std::vector<nn::Workload>& shapes() const { return shapes_; }

  void propose() {
    if (stage_ == Stage::kSample) {
      // Accuracy-constrained initial population ("sample a network
      // candidate ... which satisfies the pre-defined accuracy
      // requirement").
      while (attempts_ < options_.max_sample_attempts &&
             static_cast<int>(population_.size() + proposed_.size()) <
                 options_.population) {
        ++attempts_;
        propose_if_feasible(space_.sample(rng_));
      }
    } else if (stage_ == Stage::kFallback) {
      // The constraint may be unreachable by uniform sampling; fall back to
      // the full-capacity config so the caller still gets a feasible answer
      // when one exists at all.
      propose_if_feasible(nn::OfaSpace::full_config());
    } else {
      std::sort(population_.begin(), population_.end(),
                [](const Scored& a, const Scored& b) {
                  if (a.edp != b.edp) return a.edp < b.edp;
                  return a.fp < b.fp;  // total order; see Scored::fp
                });
      // Parents are drawn from the best half, at least two, but never from
      // past the end: a floor that few samples meet can leave fewer than
      // two.
      const int size = static_cast<int>(population_.size());
      const int parents = std::min(size, std::max(2, size / 2));
      population_.resize(static_cast<std::size_t>(parents));
      while (static_cast<int>(population_.size() + proposed_.size()) <
             options_.population) {
        const Scored& pa =
            population_[static_cast<std::size_t>(rng_.index(parents))];
        const Scored& pb =
            population_[static_cast<std::size_t>(rng_.index(parents))];
        const nn::OfaConfig child =
            rng_.bernoulli(0.5)
                ? space_.mutate(pa.cfg, rng_, options_.mutate_rate)
                : space_.crossover(pa.cfg, pb.cfg, rng_);
        // Avoid spinning when the constraint rejects most children.
        if (!propose_if_feasible(child) && rng_.bernoulli(0.1)) break;
      }
    }
  }

  void absorb(search::ArchEvaluator& evaluator) {
    for (Scored& s : proposed_) {
      auto it = edp_cache_.find(s.fp);
      if (it == edp_cache_.end()) {
        const auto nc =
            evaluator.assemble_network(arch_, space_.to_network(s.cfg));
        it = edp_cache_.emplace(s.fp, nc.legal ? nc.edp : kInf).first;
      }
      s.edp = it->second;
      if (stage_ != Stage::kBreed) {
        if (std::isfinite(s.edp)) population_.push_back(std::move(s));
        continue;
      }
      if (!std::isfinite(s.edp))
        throw std::logic_error(
            "evolve_subnet: an accuracy-feasible child scored non-finite on "
            "an accelerator that maps a population member; the breeding "
            "rounds rest on every layer mapping or none on one accelerator");
      update_best(s);
      population_.push_back(std::move(s));
    }
    proposed_.clear();
    queued_fps_.clear();
    shapes_.clear();
    shape_seen_.clear();

    if (stage_ == Stage::kSample) {
      if (static_cast<int>(population_.size()) < options_.population &&
          attempts_ < options_.max_sample_attempts)
        return;  // another sampling round
      if (population_.empty()) {
        stage_ = Stage::kFallback;
        return;
      }
    } else if (stage_ == Stage::kBreed) {
      if (++iteration_ >= options_.iterations) stage_ = Stage::kDone;
      return;
    }
    // The initial population is final.
    for (const Scored& s : population_) update_best(s);
    stage_ = population_.empty() || options_.iterations <= 0 ? Stage::kDone
                                                             : Stage::kBreed;
  }

 private:
  enum class Stage { kSample, kFallback, kBreed, kDone };

  /// Repairs `cfg` and, when it meets the accuracy floor, queues it for
  /// scoring and lists the layer shapes it needs. Returns whether it did.
  bool propose_if_feasible(const nn::OfaConfig& cfg) {
    Scored s;
    s.cfg = space_.repair(cfg);
    if (options_.width_and_expand_only) {
      s.cfg.image_size = 224;
      s.cfg.depths = nn::OfaSpace::resnet50_config().depths;
    }
    s.accuracy = predictor_.predict(s.cfg);
    if (s.accuracy < options_.min_accuracy) return false;  // inf EDP
    s.fp = s.cfg.fingerprint();
    // Memoized by fingerprint: mutation and crossover revisit genotypes.
    if (!edp_cache_.contains(s.fp) && queued_fps_.insert(s.fp).second) {
      for (auto& [layer, count] : space_.to_network(s.cfg).unique_layers())
        if (shape_seen_.insert(nn::LayerShapeHash{}(layer)).second)
          shapes_.push_back(std::move(layer));
    }
    proposed_.push_back(std::move(s));
    return true;
  }

  void update_best(const Scored& s) {
    if (s.edp < best_.edp) {
      best_.edp = s.edp;
      best_.config = s.cfg;
      best_.accuracy = s.accuracy;
    }
  }

  const arch::ArchConfig& arch_;
  const nn::OfaSpace& space_;
  const nn::AccuracyPredictor& predictor_;
  const SubnetEvolutionOptions options_;
  core::Rng rng_;
  Stage stage_ = Stage::kSample;
  int attempts_ = 0;   ///< initial-population samples drawn so far
  int iteration_ = 0;  ///< breeding rounds absorbed so far
  /// The population; during a breeding round, the parents kept from it.
  std::vector<Scored> population_;
  std::vector<Scored> proposed_;  ///< this phase's subnets, in order
  std::unordered_map<std::uint64_t, double> edp_cache_;
  std::unordered_set<std::uint64_t> queued_fps_;
  std::vector<nn::Workload> shapes_;
  std::unordered_set<std::uint64_t> shape_seen_;
  SubnetResult best_;
};

/// Runs `evolutions` to the end in lockstep: per phase, each unfinished
/// evolution proposes, one fill makes every (accelerator, shape) unit they
/// listed resident, and each absorbs. Every cached value is a pure function
/// of its key, so each evolution ends exactly as it would alone. Propose
/// and absorb touch only their own evolution, so they run as pool loops.
void evolve_in_lockstep(search::ArchEvaluator& evaluator,
                        core::ThreadPool& pool,
                        std::vector<Evolution>& evolutions) {
  std::vector<Evolution*> live;
  std::vector<search::ArchEvaluator::WorkUnit> units;
  for (;;) {
    live.clear();
    for (Evolution& e : evolutions)
      if (!e.done()) live.push_back(&e);
    if (live.empty()) return;
    pool.parallel_for(live.size(), [&](std::size_t k) { live[k]->propose(); });
    units.clear();
    for (const Evolution* e : live)
      for (const nn::Workload& layer : e->shapes())
        units.push_back({&e->arch(), &layer});
    evaluator.fill(units);
    pool.parallel_for(live.size(),
                      [&](std::size_t k) { live[k]->absorb(evaluator); });
  }
}

}  // namespace

SubnetResult evolve_subnet(search::ArchEvaluator& evaluator,
                           const arch::ArchConfig& arch,
                           const nn::OfaSpace& space,
                           const nn::AccuracyPredictor& predictor,
                           const SubnetEvolutionOptions& options) {
  core::ThreadPool inline_loops(1);  // spawns no threads
  std::vector<Evolution> one;
  one.emplace_back(arch, space, predictor, options);
  evolve_in_lockstep(evaluator, inline_loops, one);
  return one.front().best();
}

CoSearchResult run_cosearch(const cost::CostModel& model,
                            const CoSearchOptions& options) {
  core::Timer timer;
  CoSearchResult result;
  result.best_edp = kInf;

  const search::HwEncodingSpec hw = search::make_hw_spec(
      options.resources, options.hw_encoding, options.search_connectivity);

  core::ThreadPool pool(options.num_threads);
  search::ArchEvaluator evaluator(model, options.mapping, &pool);
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

  // Warm start with the envelope's reference design (matches run_naas). It
  // never feeds the optimizer, so its evolution joins generation 0's.
  std::vector<arch::ArchConfig> seed_designs;
  if (options.seed_baseline) {
    try {
      const arch::ArchConfig seed = arch::baseline_for(options.resources);
      const bool connectivity_ok =
          options.search_connectivity ||
          (seed.num_array_dims == 2 &&
           seed.parallel_dims[0] == hw.fixed_parallel_dims[0] &&
           seed.parallel_dims[1] == hw.fixed_parallel_dims[1]);
      if (connectivity_ok && options.resources.allows(seed))
        seed_designs.push_back(seed);
    } catch (const std::invalid_argument&) {
      // No published baseline for this envelope.
    }
  }

  for (int iter = 0; iter < std::max(options.hw_iterations, 1); ++iter) {
    // This generation's designs: the seed design first (generation 0
    // only), then the candidates in CMA order.
    std::vector<arch::ArchConfig> designs;
    if (iter == 0) designs = seed_designs;
    const std::size_t first_candidate = designs.size();
    std::vector<std::vector<double>> population;
    if (iter < options.hw_iterations) population = cma.ask(is_valid);
    for (const auto& genome : population) designs.push_back(hw.decode(genome));

    std::vector<Evolution> evolutions;
    evolutions.reserve(designs.size());
    std::vector<const Evolution*> evolution_of(designs.size(), nullptr);
    for (std::size_t k = 0; k < designs.size(); ++k) {
      SubnetEvolutionOptions sub = options.subnet;
      if (k >= first_candidate) {
        if (!options.resources.allows(designs[k])) continue;
        sub.seed = options.subnet.seed + 7919 * (iter + 1) +
                   (k - first_candidate);
      }
      evolution_of[k] = &evolutions.emplace_back(designs[k], space,
                                                 predictor, sub);
    }
    evolve_in_lockstep(evaluator, pool, evolutions);

    // Fold the best in design order and score the candidates.
    std::vector<double> fitness;
    fitness.reserve(population.size());
    for (std::size_t k = 0; k < designs.size(); ++k) {
      const Evolution* e = evolution_of[k];
      const double edp = e != nullptr ? e->best().edp : kInf;
      if (k >= first_candidate) fitness.push_back(edp);
      if (edp < result.best_edp) {
        result.best_edp = edp;
        result.best_arch = designs[k];
        result.best_net = e->best().config;
        result.best_accuracy = e->best().accuracy;
      }
    }
    if (!population.empty()) cma.tell(population, fitness);
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
