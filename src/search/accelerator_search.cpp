#include "search/accelerator_search.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "core/serialize.hpp"
#include "core/stats.hpp"
#include "core/timer.hpp"
#include "search/cma_es.hpp"
#include "search/eval_pipeline.hpp"

namespace naas::search {
namespace {

using core::hash_mix;

/// Fingerprint of everything about MappingSearchOptions that changes what
/// search_mapping returns. Mixed into every cache key so two evaluators
/// with different budgets (or a copied evaluator whose options were edited)
/// can never share stale entries.
std::uint64_t options_fingerprint(const MappingSearchOptions& o) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  h = hash_mix(h, static_cast<std::uint64_t>(o.population));
  h = hash_mix(h, static_cast<std::uint64_t>(o.iterations));
  h = hash_mix(h, o.seed);
  h = hash_mix(h, o.seed_canonical ? 1 : 0);
  h = hash_mix(h, static_cast<std::uint64_t>(o.encoding.order_encoding));
  h = hash_mix(h, o.encoding.search_order ? 1 : 0);
  h = hash_mix(h, static_cast<std::uint64_t>(o.encoding.fixed_dataflow));
  h = hash_mix(h, o.encoding.grow_tiles ? 1 : 0);
  return h;
}

}  // namespace

ArchEvaluator::ArchEvaluator(const cost::CostModel& model,
                             MappingSearchOptions mapping,
                             core::ThreadPool* pool)
    : model_(model),
      mapping_(std::move(mapping)),
      options_fingerprint_(options_fingerprint(mapping_)),
      pool_(pool) {}

StoreStatus ArchEvaluator::load_store(const std::string& path) {
  StoreLoadResult loaded = ResultStore::load(path);
  // A damaged store still yields its checksum-validated prefix; adopting
  // it keeps crash-torn appends cheap (the caller sees the non-kOk status
  // and heals the file separately).
  store_entries_loaded_ += cache_.preload(std::move(loaded.entries));
  return loaded.status;
}

StoreStatus ArchEvaluator::save_store(const std::string& path) const {
  return ResultStore::save(path, cache_.snapshot());
}

std::size_t ArchEvaluator::adopt_entries(StoreEntries entries) {
  const std::size_t inserted = cache_.preload(std::move(entries));
  store_entries_loaded_ += inserted;
  return inserted;
}

std::uint64_t ArchEvaluator::cache_key(const arch::ArchConfig& arch,
                                       const nn::Workload& layer) const {
  const std::uint64_t a = arch_fingerprint(arch);
  const std::uint64_t l = nn::LayerShapeHash{}(layer);
  return hash_mix(hash_mix(options_fingerprint_, a), l);
}

const MappingSearchResult* ArchEvaluator::find_cached(
    const arch::ArchConfig& arch, const nn::Workload& layer) const {
  return cache_.find(cache_key(arch, layer));
}

MappingSearchOptions ArchEvaluator::layer_options(
    const nn::Workload& layer) const {
  MappingSearchOptions opts = mapping_;
  // Layer-dependent seed keeps runs deterministic while decorrelating
  // searches across layers. Crucially the seed does NOT depend on
  // evaluation/request order, so concurrent cache fills are reproducible.
  opts.seed = mapping_.seed ^ nn::LayerShapeHash{}(layer);
  return opts;
}

const MappingSearchResult& ArchEvaluator::publish(
    std::uint64_t key, MappingSearchResult result) {
  bool inserted = false;
  const MappingSearchResult& entry =
      cache_.publish(key, std::move(result), &inserted);
  if (inserted) {
    // Count only the published search: if another thread computed the same
    // key concurrently, one duplicate is discarded and the statistics stay
    // identical to the serial run.
    cost_evaluations_.fetch_add(entry.evaluations);
    mapping_searches_.fetch_add(1);
    generations_batched_.fetch_add(entry.generations_batched);
    candidates_batch_evaluated_.fetch_add(entry.candidates_batch_evaluated);
  }
  return entry;
}

void ArchEvaluator::absorb_scheduler_stats(
    const core::TaskGraph::Stats& delta) {
  std::lock_guard<std::mutex> lk(sched_mutex_);
  sched_stats_.tasks_executed += delta.tasks_executed;
  sched_stats_.tasks_skipped += delta.tasks_skipped;
  sched_stats_.busy_seconds += delta.busy_seconds;
  sched_stats_.wall_seconds += delta.wall_seconds;
  sched_stats_.workers = std::max(sched_stats_.workers, delta.workers);
}

long long ArchEvaluator::tasks_executed() const {
  std::lock_guard<std::mutex> lk(sched_mutex_);
  return sched_stats_.tasks_executed;
}

core::TaskGraph::Stats ArchEvaluator::scheduler_stats() const {
  std::lock_guard<std::mutex> lk(sched_mutex_);
  return sched_stats_;
}

const MappingSearchResult& ArchEvaluator::best_mapping(
    const arch::ArchConfig& arch, const nn::Workload& layer) {
  const std::uint64_t key = cache_key(arch, layer);
  if (const MappingSearchResult* hit = cache_.find(key)) return *hit;
  return publish(key,
                 search_mapping(model_, arch, layer, layer_options(layer)));
}

cost::NetworkCost ArchEvaluator::assemble_network(const arch::ArchConfig& arch,
                                                  const nn::Network& net) {
  // Pure assembly from the memoized mapping-search reports: no
  // re-evaluation of the cost model per unique layer (the search already
  // kept the winning candidate's full report).
  return cost::evaluate_network_reports(
      arch, net,
      [this](const arch::ArchConfig& a, const nn::Workload& l) {
        const MappingSearchResult* r = find_cached(a, l);
        if (r == nullptr) r = &best_mapping(a, l);  // unreachable when piped
        if (!std::isfinite(r->best_edp)) {
          cost::CostReport rep;
          rep.legal = false;
          rep.illegal_reason = "mapping search found no legal mapping";
          return rep;
        }
        return r->report;
      });
}

double ArchEvaluator::assembled_geomean(
    const arch::ArchConfig& arch, const std::vector<nn::Network>& benchmarks) {
  std::vector<double> edps;
  edps.reserve(benchmarks.size());
  for (const auto& net : benchmarks) {
    const auto nc = assemble_network(arch, net);
    if (!nc.legal) return std::numeric_limits<double>::infinity();
    edps.push_back(nc.edp);
  }
  return core::geomean(edps);
}

cost::NetworkCost ArchEvaluator::evaluate(const arch::ArchConfig& arch,
                                          const nn::Network& net) {
  {
    // Fill phase: one search task per unique layer shape not yet resident,
    // all on one graph. Skipped entirely on a fully warm cache.
    EvalPipeline pipeline(*this);
    if (!pipeline.request_benchmarks({&arch, 1}, {&net, 1}).front().empty())
      pipeline.run();
  }
  return assemble_network(arch, net);
}

double ArchEvaluator::geomean_edp(const arch::ArchConfig& arch,
                                  const std::vector<nn::Network>& benchmarks) {
  // The one-candidate case of evaluate_population: every benchmark's layer
  // searches fill on one graph (no per-network quiesce barrier).
  return evaluate_population(std::span<const arch::ArchConfig>(&arch, 1),
                             benchmarks)
      .front();
}

std::vector<double> ArchEvaluator::evaluate_population(
    std::span<const arch::ArchConfig> archs,
    const std::vector<nn::Network>& benchmarks) {
  std::vector<double> edps(archs.size(),
                           std::numeric_limits<double>::infinity());
  if (archs.empty()) return edps;
  // One graph: every candidate's unique (arch, layer) searches —
  // deduplicated across the whole population, one task per layer shape —
  // plus a per-candidate assembly task that becomes ready the moment
  // exactly its own layers are resident.
  EvalPipeline pipeline(*this);
  const auto deps = pipeline.request_benchmarks(archs, benchmarks);
  for (std::size_t i = 0; i < archs.size(); ++i) {
    pipeline.graph().submit(
        [this, archs, &benchmarks, &edps, i] {
          edps[i] = assembled_geomean(archs[i], benchmarks);
        },
        deps[i]);
  }
  pipeline.run();
  return edps;
}

long long warm_start_from_store(ArchEvaluator& evaluator,
                                const std::string& path) {
  if (path.empty()) return 0;
  const std::size_t before = evaluator.store_entries_loaded();
  warn_store_rejected(path, evaluator.load_store(path));
  return static_cast<long long>(evaluator.store_entries_loaded() - before);
}

void flush_to_store(const ArchEvaluator& evaluator, const std::string& path,
                    bool readonly) {
  if (path.empty() || readonly) return;
  warn_store_write_failed(path, evaluator.save_store(path));
}

NaasResult run_naas(const cost::CostModel& model, const NaasOptions& options,
                    const std::vector<nn::Network>& benchmarks) {
  if (benchmarks.empty())
    throw std::invalid_argument("run_naas: no benchmark networks");

  core::Timer timer;
  NaasResult result;
  result.best_geomean_edp = std::numeric_limits<double>::infinity();

  const HwEncodingSpec hw = make_hw_spec(
      options.resources, options.hw_encoding, options.search_connectivity);

  core::ThreadPool pool(options.num_threads);
  // --cost-backend re-targets evaluation onto a local copy of the model:
  // CostModel is a value type (energy params + backend pointer), and the
  // byte-identity contract makes the swap invisible to every result.
  cost::CostModel backend_model = model;
  if (options.cost_backend) backend_model.set_backend(*options.cost_backend);
  result.cost_backend = backend_model.backend_name();
  ArchEvaluator evaluator(backend_model, options.mapping, &pool);
  result.store_entries_loaded =
      warm_start_from_store(evaluator, options.cache_path);

  CmaEsOptions cma_opts;
  cma_opts.dim = hw.genome_size();
  cma_opts.population = options.population;
  cma_opts.seed = options.seed;
  CmaEs cma(cma_opts);

  const auto is_valid = [&hw](const std::vector<double>& genome) {
    return hw.valid(genome);
  };

  // The whole evolution — seed scoring and every generation — lives on ONE
  // task graph. Candidates report fitness through CmaEs::tell_partial as
  // they finish; the report that completes a generation schedules the next
  // one from inside its own task, so there is no join anywhere between the
  // start of the search and quiescence.
  EvalPipeline pipeline(evaluator);
  core::TaskGraph& graph = pipeline.graph();
  const core::TaskGraph::TaskId evolution_done = graph.make_promise();

  /// Cross-task state of the outer evolution. `mutex` serializes fitness
  /// reporting (tell_partial) and the generation bookkeeping; per-slot
  /// writes are distinct, so the lock guards the optimizer, not the data.
  struct Outer {
    std::mutex mutex;
    std::vector<arch::ArchConfig> configs;  ///< current generation decodes
    std::vector<double> edps;               ///< per-genome fitness slots
    int iter = 0;
    /// Admitted (fully evaluated) genomes still outstanding this
    /// generation; when the count hits zero the deferred surrogate-prune
    /// decisions resolve against the generation's mu-th-best fitness.
    std::size_t admitted_pending = 0;
    /// Deferred surrogate candidates: (slot, lower bound) for genomes whose
    /// bound exceeded the admission threshold. They report only after the
    /// admitted results are in (see resolve_pruned_locked).
    std::vector<std::pair<std::size_t, double>> pruned;
  } outer;

  std::function<void()> start_generation;  // assigned below; tasks recurse

  // Runs under outer.mutex, from the tell_partial call that filled the
  // generation's last slot: fold the generation into the running best (in
  // genome order, matching the barrier engine's tie-breaking exactly),
  // record the convergence statistics, and schedule the next generation.
  const auto generation_complete = [&] {
    std::vector<double> finite_edps;
    for (std::size_t k = 0; k < outer.edps.size(); ++k) {
      const double edp = outer.edps[k];
      if (std::isfinite(edp)) {
        finite_edps.push_back(edp);
        if (edp < result.best_geomean_edp) {
          result.best_geomean_edp = edp;
          result.best_arch = outer.configs[k];
        }
      }
    }
    result.population_mean_edp.push_back(core::mean(finite_edps));
    result.population_best_edp.push_back(
        finite_edps.empty()
            ? std::numeric_limits<double>::infinity()
            : *std::min_element(finite_edps.begin(), finite_edps.end()));
    ++outer.iter;
    if (outer.iter < options.iterations) {
      start_generation();
    } else {
      graph.fulfill(evolution_done);
    }
  };

  // Fitness report for genome `k`; the completing report runs the
  // generation bookkeeping inline (continuation style, no join).
  const auto report_locked = [&](std::size_t k, double edp) {
    outer.edps[k] = edp;
    if (cma.tell_partial(k, edp)) generation_complete();
  };
  const auto report = [&](std::size_t k, double edp) {
    std::lock_guard<std::mutex> lk(outer.mutex);
    report_locked(k, edp);
  };

  // Requests the layer searches of genomes `slots` as one batch (one task
  // per layer shape) and submits each genome's assembly task, gated on
  // exactly its own searches. Pure assembly: every key is resident when it
  // runs, so no pipeline is needed there. `report_fn` is a named callable
  // of this scope, alive until the graph drains. Runs under outer.mutex.
  const auto submit_assemblies = [&](const std::vector<std::size_t>& slots,
                                     const auto& report_fn) {
    std::vector<arch::ArchConfig> archs;
    archs.reserve(slots.size());
    for (const std::size_t k : slots) archs.push_back(outer.configs[k]);
    const auto deps = pipeline.request_benchmarks(archs, benchmarks);
    for (std::size_t j = 0; j < slots.size(); ++j) {
      graph.submit(
          [&outer, &evaluator, &benchmarks, &report_fn, k = slots[j]] {
            report_fn(
                k, evaluator.assembled_geomean(outer.configs[k], benchmarks));
          },
          deps[j]);
    }
  };

  // Resolves this generation's deferred surrogate candidates once every
  // admitted genome has reported. CmaEs::tell is rank-only (see
  // CmaEs::parents), so a pruned candidate may keep its lower bound as
  // fitness exactly when the bound is strictly worse than the generation's
  // mu-th best reported fitness: the candidate then sits outside the parent
  // set under either its bound or its (>= bound) true cost, and the
  // distribution update is bit-identical to surrogate-off. A bound that is
  // not strictly worse could re-rank the parents, so that candidate is
  // rescued — evaluated for real like any admitted genome. Every input here
  // (the reported fitness vector, the bounds, mu) is deterministic, so the
  // kept/rescued split — and with it every meter — is thread-count and
  // schedule independent. Runs under outer.mutex.
  const auto resolve_pruned_locked = [&] {
    if (outer.pruned.empty()) return;
    std::vector<std::pair<std::size_t, double>> pruned;
    pruned.swap(outer.pruned);
    std::vector<char> deferred(outer.edps.size(), 0);
    for (const auto& [k, lb] : pruned) deferred[k] = 1;
    std::vector<double> reported;
    reported.reserve(outer.edps.size());
    for (std::size_t k = 0; k < outer.edps.size(); ++k)
      if (!deferred[k]) reported.push_back(outer.edps[k]);
    const std::size_t mu = std::min<std::size_t>(
        static_cast<std::size_t>(cma.parents()), outer.edps.size());
    double threshold = std::numeric_limits<double>::infinity();
    if (mu > 0 && reported.size() >= mu) {
      std::nth_element(reported.begin(),
                       reported.begin() + static_cast<std::ptrdiff_t>(mu - 1),
                       reported.end());
      threshold = reported[mu - 1];
    }
    std::vector<std::size_t> rescued;
    for (const auto& [k, lb] : pruned) {
      const bool keep = lb > threshold;
      evaluator.note_surrogate_consult(keep);
      if (keep) {
        // Outside the parent set and above the admission threshold: its
        // mapping searches can change neither the distribution update nor
        // the returned best. The bound stands in as its fitness.
        report_locked(k, lb);
      } else {
        rescued.push_back(k);
      }
    }
    submit_assemblies(rescued, report);
  };

  // Fitness report from an admitted genome's assembly task; the last one
  // triggers the deferred prune resolution above. Resolution runs BEFORE
  // this slot's tell_partial: the threshold must see this fitness, and the
  // kept/rescued reports must land while this slot still holds the
  // generation open (tell_partial completing the generation recurses into
  // the next one, which would repoint outer.pruned).
  const auto report_admitted = [&](std::size_t k, double edp) {
    std::lock_guard<std::mutex> lk(outer.mutex);
    outer.edps[k] = edp;
    if (--outer.admitted_pending == 0) resolve_pruned_locked();
    if (cma.tell_partial(k, edp)) generation_complete();
  };

  // Samples a generation, submits one assembly task per admitted genome
  // (gated on exactly its layer searches), and reports infeasible genomes
  // immediately. Surrogate-deferred genomes resolve when the admitted
  // results are in. Called with outer.mutex held.
  start_generation = [&] {
    const auto& population = cma.begin_generation(is_valid);
    const std::size_t lambda = population.size();
    outer.configs.assign(lambda, arch::ArchConfig{});
    outer.edps.assign(lambda, std::numeric_limits<double>::infinity());
    // Admission threshold of this generation's surrogate gate: the best
    // geomean EDP known when the generation starts. Generation starts are
    // structural (the completing report of the previous generation, or the
    // seed finalize), so the threshold — and the pruned set — is identical
    // for every thread count.
    const double admission = result.best_geomean_edp;
    std::vector<std::size_t> infeasible;
    std::vector<std::size_t> admitted;
    outer.pruned.clear();
    for (std::size_t k = 0; k < lambda; ++k) {
      outer.configs[k] = hw.decode(population[k]);
      if (!options.resources.allows(outer.configs[k])) {
        infeasible.push_back(k);
        continue;
      }
      if (options.surrogate == SurrogateMode::kPrune &&
          std::isfinite(admission)) {
        const double lb = surrogate_geomean_edp_bound(
            backend_model, outer.configs[k], benchmarks);
        if (lb > admission) {
          // The bound is exact, so this candidate's true geomean EDP is at
          // least `lb` > the best already found: paying for its mapping
          // searches cannot change the returned design. Whether it may
          // also skip them without perturbing the distribution update is
          // decided against the generation's parent ranks once the
          // admitted results are in (resolve_pruned_locked); the consult
          // meter is noted there, with the final verdict.
          outer.pruned.emplace_back(k, lb);
          continue;
        }
        evaluator.note_surrogate_consult(false);
      }
      admitted.push_back(k);
    }
    outer.admitted_pending = admitted.size();
    submit_assemblies(admitted, report_admitted);
    // Infeasible genomes cost nothing to score; reporting them last keeps
    // a generation with no admitted candidate correct (the final report
    // completes the generation and recurses into the next one right here).
    for (const std::size_t k : infeasible)
      report_locked(k, std::numeric_limits<double>::infinity());
    // No admitted genome will fire the resolution trigger: resolve the
    // deferred candidates now (with nothing finite reported, they are all
    // rescued — rank fidelity cannot spare any of them).
    if (admitted.empty()) resolve_pruned_locked();
  };

  // Warm start: evaluate the seed designs (reference baseline + any user
  // seeds) so the returned best is never worse than the known design run
  // with NAAS's mapping search. The seeds score as ordinary tasks on the
  // same graph; their completion starts generation 0.
  std::vector<arch::ArchConfig> eligible;
  {
    std::vector<arch::ArchConfig> seeds = options.seed_designs;
    if (options.seed_baseline) {
      try {
        seeds.push_back(arch::baseline_for(options.resources));
      } catch (const std::invalid_argument&) {
        // Custom envelope without a published baseline: nothing to seed.
      }
    }
    for (auto& seed : seeds) {
      if (!options.search_connectivity &&
          !(seed.num_array_dims == 2 &&
            seed.parallel_dims[0] == hw.fixed_parallel_dims[0] &&
            seed.parallel_dims[1] == hw.fixed_parallel_dims[1])) {
        continue;  // sizing-only arm may not adopt foreign connectivity
      }
      if (!options.resources.allows(seed)) continue;
      eligible.push_back(std::move(seed));
    }
  }
  std::vector<double> seed_edps(eligible.size(),
                                std::numeric_limits<double>::infinity());
  std::vector<core::TaskGraph::TaskId> seed_tasks;
  const auto seed_deps = pipeline.request_benchmarks(eligible, benchmarks);
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    seed_tasks.push_back(graph.submit(
        [&evaluator, &eligible, &benchmarks, &seed_edps, i] {
          seed_edps[i] = evaluator.assembled_geomean(eligible[i], benchmarks);
        },
        seed_deps[i]));
  }
  graph.submit(
      [&] {
        std::lock_guard<std::mutex> lk(outer.mutex);
        for (std::size_t i = 0; i < eligible.size(); ++i) {
          if (std::isfinite(seed_edps[i]) &&
              seed_edps[i] < result.best_geomean_edp) {
            result.best_geomean_edp = seed_edps[i];
            result.best_arch = eligible[i];
          }
        }
        if (options.iterations > 0) {
          start_generation();
        } else {
          graph.fulfill(evolution_done);
        }
      },
      seed_tasks);

  pipeline.run();  // drives the whole evolution; folds scheduler meters

  if (std::isfinite(result.best_geomean_edp)) {
    for (const auto& net : benchmarks)
      result.best_networks.push_back(
          evaluator.evaluate(result.best_arch, net));
  }
  flush_to_store(evaluator, options.cache_path, options.cache_readonly);
  result.cost_evaluations = evaluator.cost_evaluations();
  result.mapping_searches = evaluator.mapping_searches();
  result.generations_batched = evaluator.generations_batched();
  result.candidates_batch_evaluated = evaluator.candidates_batch_evaluated();
  result.tasks_executed = evaluator.tasks_executed();
  result.surrogate_consults = evaluator.surrogate_consults();
  result.surrogate_pruned = evaluator.surrogate_pruned();
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace naas::search
