#include "search/accelerator_search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/serialize.hpp"
#include "core/stats.hpp"
#include "core/timer.hpp"
#include "search/cma_es.hpp"

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
        if (r == nullptr) r = &best_mapping(a, l);  // unreachable after fill
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

void ArchEvaluator::fill(std::span<const WorkUnit> units) {
  /// The uncached units of one layer shape: (cache key, arch) per
  /// accelerator, in first-appearance order.
  struct Group {
    const nn::Workload* layer;
    std::vector<std::pair<std::uint64_t, const arch::ArchConfig*>> members;
  };
  std::vector<Group> groups;
  std::unordered_map<std::uint64_t, std::size_t> group_of_shape;
  std::unordered_set<std::uint64_t> queued;
  for (const WorkUnit& unit : units) {
    const std::uint64_t key = cache_key(*unit.arch, *unit.layer);
    if (cache_.find(key) != nullptr || !queued.insert(key).second) continue;
    const auto [g, new_shape] = group_of_shape.try_emplace(
        nn::LayerShapeHash{}(*unit.layer), groups.size());
    if (new_shape) groups.push_back({unit.layer, {}});
    groups[g->second].members.emplace_back(key, unit.arch);
  }
  const auto search_group = [&](std::size_t g) {
    const Group& group = groups[g];
    const MappingSearchOptions options = layer_options(*group.layer);
    const std::vector<double> normals = mapping_normals(options);
    for (const auto& [key, arch] : group.members)
      publish(key, search_mapping(model_, *arch, *group.layer, options,
                                  normals));
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(groups.size(), search_group);
  } else {
    for (std::size_t g = 0; g < groups.size(); ++g) search_group(g);
  }
}

void ArchEvaluator::fill_benchmarks(std::span<const arch::ArchConfig> archs,
                                    std::span<const nn::Network> networks) {
  std::vector<std::vector<std::pair<nn::Workload, int>>> layers;
  layers.reserve(networks.size());
  for (const nn::Network& net : networks) layers.push_back(net.unique_layers());
  std::vector<WorkUnit> units;
  for (const arch::ArchConfig& arch : archs)
    for (const auto& net_layers : layers)
      for (const auto& [layer, count] : net_layers)
        units.push_back({&arch, &layer});
  fill(units);
}

cost::NetworkCost ArchEvaluator::evaluate(const arch::ArchConfig& arch,
                                          const nn::Network& net) {
  fill_benchmarks({&arch, 1}, {&net, 1});
  return assemble_network(arch, net);
}

double ArchEvaluator::geomean_edp(const arch::ArchConfig& arch,
                                  const std::vector<nn::Network>& benchmarks) {
  return evaluate_population(std::span<const arch::ArchConfig>(&arch, 1),
                             benchmarks)
      .front();
}

std::vector<double> ArchEvaluator::evaluate_population(
    std::span<const arch::ArchConfig> archs,
    const std::vector<nn::Network>& benchmarks) {
  fill_benchmarks(archs, benchmarks);
  std::vector<double> edps;
  edps.reserve(archs.size());
  for (const arch::ArchConfig& arch : archs)
    edps.push_back(assembled_geomean(arch, benchmarks));
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
  // Folds scored designs into the running best in candidate order (the
  // first of equal EDPs wins).
  const auto fold_best = [&](std::span<const arch::ArchConfig> archs,
                             std::span<const double> edps) {
    for (std::size_t i = 0; i < archs.size(); ++i) {
      if (std::isfinite(edps[i]) && edps[i] < result.best_geomean_edp) {
        result.best_geomean_edp = edps[i];
        result.best_arch = archs[i];
      }
    }
  };

  // Warm start: evaluate the seed designs (reference baseline + any user
  // seeds) so the returned best is never worse than the known design run
  // with NAAS's mapping search.
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
  fold_best(eligible, evaluator.evaluate_population(eligible, benchmarks));

  for (int iter = 0; iter < options.iterations; ++iter) {
    const auto population = cma.ask(is_valid);
    std::vector<arch::ArchConfig> configs;
    configs.reserve(population.size());
    for (const auto& genome : population) configs.push_back(hw.decode(genome));
    // Infeasible genomes score +inf without evaluation; the feasible ones
    // share one fill, so each layer shape's searches draw one stream.
    std::vector<arch::ArchConfig> feasible;
    std::vector<std::size_t> slots;
    for (std::size_t k = 0; k < configs.size(); ++k) {
      if (!options.resources.allows(configs[k])) continue;
      feasible.push_back(configs[k]);
      slots.push_back(k);
    }
    const std::vector<double> scored =
        evaluator.evaluate_population(feasible, benchmarks);
    std::vector<double> edps(configs.size(),
                             std::numeric_limits<double>::infinity());
    for (std::size_t j = 0; j < slots.size(); ++j) edps[slots[j]] = scored[j];
    cma.tell(population, edps);

    fold_best(configs, edps);
    std::vector<double> finite_edps;
    for (const double edp : edps)
      if (std::isfinite(edp)) finite_edps.push_back(edp);
    result.population_mean_edp.push_back(core::mean(finite_edps));
    result.population_best_edp.push_back(
        finite_edps.empty()
            ? std::numeric_limits<double>::infinity()
            : *std::min_element(finite_edps.begin(), finite_edps.end()));
  }

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
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace naas::search
