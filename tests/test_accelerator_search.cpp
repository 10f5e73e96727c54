#include "search/accelerator_search.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <utility>

#include "arch/presets.hpp"
#include "nn/model_zoo.hpp"
#include "search/mapping_search.hpp"
#include "search/random_search.hpp"

namespace naas::search {
namespace {

/// A small single-network benchmark keeps the two-level search fast enough
/// for unit testing.
std::vector<nn::Network> tiny_benchmark() {
  return {nn::make_cifar_net()};
}

NaasOptions small_options(const arch::ResourceConstraint& rc,
                          std::uint64_t seed = 1) {
  NaasOptions opts;
  opts.resources = rc;
  opts.population = 8;
  opts.iterations = 5;
  opts.seed = seed;
  opts.mapping.population = 8;
  opts.mapping.iterations = 4;
  return opts;
}

TEST(ArchEvaluatorTest, CachesMappingSearches) {
  const cost::CostModel model;
  MappingSearchOptions mopts;
  mopts.population = 6;
  mopts.iterations = 3;
  ArchEvaluator ev(model, mopts);
  const auto arch = arch::nvdla_256_arch();
  const nn::Network net = nn::make_cifar_net();

  ev.evaluate(arch, net);
  const long long first = ev.cost_evaluations();
  ev.evaluate(arch, net);  // identical -> fully cached
  EXPECT_EQ(ev.cost_evaluations(), first);
  EXPECT_EQ(ev.mapping_searches(),
            static_cast<long long>(net.unique_layers().size()));
}

TEST(ArchEvaluatorTest, GeomeanAggregatesNetworks) {
  const cost::CostModel model;
  MappingSearchOptions mopts;
  mopts.population = 6;
  mopts.iterations = 3;
  ArchEvaluator ev(model, mopts);
  const auto arch = arch::nvdla_256_arch();
  const auto nets = std::vector<nn::Network>{nn::make_cifar_net(),
                                             nn::make_squeezenet()};
  const double a = ev.evaluate(arch, nets[0]).edp;
  const double b = ev.evaluate(arch, nets[1]).edp;
  EXPECT_NEAR(ev.geomean_edp(arch, nets), std::sqrt(a * b),
              1e-6 * std::sqrt(a * b));
}

TEST(ArchEvaluatorTest, OneNormalStreamPerLayerGroup) {
  // The fill's grouping, at any thread count: scoring K candidates whose
  // uncached (arch, layer) searches span N distinct layer shapes draws
  // exactly N normal streams (each group draws its layer's stream once and
  // searches every accelerator that needs the layer from it), not one per
  // searched unit. A best_mapping miss draws its own stream.
  const cost::CostModel model;
  MappingSearchOptions mopts;
  mopts.population = 4;
  mopts.iterations = 2;
  const std::vector<nn::Network> nets{nn::make_cifar_net(),
                                      nn::make_squeezenet()};
  // The repeated candidate shares every unit with the first.
  const std::vector<arch::ArchConfig> archs{
      arch::nvdla_256_arch(), arch::eyeriss_arch(), arch::nvdla_256_arch()};
  // Resident on both accelerators before scoring, so its shape draws no
  // stream in the fill.
  const nn::Workload warm = nets[0].unique_layers().front().first;
  std::set<std::pair<std::uint64_t, std::uint64_t>> units;
  std::set<std::uint64_t> shapes;
  for (const auto& a : archs)
    for (const auto& net : nets)
      for (const auto& [layer, count] : net.unique_layers()) {
        units.emplace(arch_fingerprint(a), nn::LayerShapeHash{}(layer));
        shapes.insert(nn::LayerShapeHash{}(layer));
      }
  const auto uncached = static_cast<long long>(units.size()) - 2;
  const auto groups = static_cast<long long>(shapes.size()) - 1;
  ASSERT_LT(groups, uncached);  // one draw per unit would be told apart

  for (int threads : {1, 4}) {
    core::ThreadPool pool(threads);
    ArchEvaluator ev(model, mopts, &pool);
    const long long start = mapping_normals_drawn();
    ev.best_mapping(archs[0], warm);
    ev.best_mapping(archs[1], warm);
    EXPECT_EQ(ev.mapping_searches(), 2) << threads;
    EXPECT_EQ(mapping_normals_drawn() - start, 2) << threads;

    const long long before_fill = mapping_normals_drawn();
    ev.evaluate_population(archs, nets);
    EXPECT_EQ(ev.mapping_searches(), 2 + uncached) << threads;
    EXPECT_EQ(mapping_normals_drawn() - before_fill, groups) << threads;
  }
}

TEST(ArchEvaluatorTest, PopulationOfSharedLayersMatchesOneByOne) {
  // Candidates that share layers share normal streams. Scoring them
  // together must still equal scoring them one by one on a fresh
  // evaluator, bit for bit: every value, every cache entry, and every work
  // meter; only the number of streams drawn falls.
  const cost::CostModel model;
  MappingSearchOptions mopts;
  mopts.population = 6;
  mopts.iterations = 3;
  const std::vector<nn::Network> nets{nn::make_cifar_net(),
                                      nn::make_squeezenet()};
  const std::vector<arch::ArchConfig> archs{
      arch::nvdla_256_arch(), arch::eyeriss_arch(), arch::shidiannao_arch(),
      arch::nvdla_256_arch()};
  for (int threads : {1, 4}) {
    core::ThreadPool pool(threads);
    ArchEvaluator together(model, mopts, &pool);
    ArchEvaluator alone(model, mopts, &pool);
    const long long start = mapping_normals_drawn();
    const std::vector<double> edps = together.evaluate_population(archs, nets);
    const long long drawn_together = mapping_normals_drawn() - start;
    ASSERT_EQ(edps.size(), archs.size());
    for (std::size_t i = 0; i < archs.size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(edps[i]),
                std::bit_cast<std::uint64_t>(alone.geomean_edp(archs[i], nets)))
          << threads << " threads, candidate " << i;
    const long long drawn_alone =
        mapping_normals_drawn() - start - drawn_together;
    EXPECT_EQ(together.cost_evaluations(), alone.cost_evaluations());
    EXPECT_EQ(together.mapping_searches(), alone.mapping_searches());
    EXPECT_EQ(together.generations_batched(), alone.generations_batched());
    EXPECT_EQ(together.candidates_batch_evaluated(),
              alone.candidates_batch_evaluated());
    EXPECT_EQ(together.cache_size(), alone.cache_size());
    EXPECT_EQ(ResultStore::encode(together.snapshot_since(0)),
              ResultStore::encode(alone.snapshot_since(0)))
        << threads;
    EXPECT_LT(drawn_together, drawn_alone) << threads;
  }
}

TEST(NaasSearch, FindsDesignWithinEnvelope) {
  const cost::CostModel model;
  const auto rc = arch::nvdla_256_resources();
  const auto res = run_naas(model, small_options(rc), tiny_benchmark());
  ASSERT_TRUE(std::isfinite(res.best_geomean_edp));
  EXPECT_TRUE(rc.allows(res.best_arch));
  EXPECT_EQ(res.best_networks.size(), 1u);
  EXPECT_GT(res.cost_evaluations, 0);
  EXPECT_EQ(static_cast<int>(res.population_mean_edp.size()), 5);
}

TEST(NaasSearch, BeatsBaselinePresetOnItsOwnResources) {
  // The searched design space contains the baseline, so with canonical
  // seeding the searched result must be at least as good as the baseline
  // evaluated with searched mappings — and in practice strictly better
  // than the baseline with canonical mappings.
  const cost::CostModel model;
  const auto rc = arch::eyeriss_resources();
  NaasOptions opts = small_options(rc, 3);
  opts.iterations = 8;
  const auto res = run_naas(model, opts, tiny_benchmark());
  ASSERT_TRUE(std::isfinite(res.best_geomean_edp));

  const auto baseline = cost::evaluate_network_canonical(
      model, arch::eyeriss_arch(), tiny_benchmark()[0]);
  ASSERT_TRUE(baseline.legal);
  EXPECT_LT(res.best_geomean_edp, baseline.edp);
}

TEST(NaasSearch, ConvergesOnAverage) {
  // Fig. 4 property: late-phase population mean EDP below the first
  // iteration's mean.
  const cost::CostModel model;
  NaasOptions opts = small_options(arch::shidiannao_resources(), 11);
  opts.iterations = 8;
  const auto res = run_naas(model, opts, tiny_benchmark());
  ASSERT_GE(res.population_mean_edp.size(), 8u);
  const double first = res.population_mean_edp.front();
  const double last = res.population_mean_edp.back();
  EXPECT_LT(last, first);
}

TEST(NaasSearch, DeterministicForSeed) {
  const cost::CostModel model;
  const auto opts = small_options(arch::nvdla_256_resources(), 17);
  const auto a = run_naas(model, opts, tiny_benchmark());
  const auto b = run_naas(model, opts, tiny_benchmark());
  EXPECT_DOUBLE_EQ(a.best_geomean_edp, b.best_geomean_edp);
  EXPECT_EQ(arch_fingerprint(a.best_arch), arch_fingerprint(b.best_arch));
}

TEST(NaasSearch, ResultIdenticalAcrossThreadCounts) {
  // Every visible output and work meter of a search is a pure function of
  // (inputs, options): the pooled run must match the serial one bit for
  // bit, per-generation statistics included.
  const cost::CostModel model;
  NaasOptions opts = small_options(arch::eyeriss_resources(), 5);
  opts.num_threads = 1;
  const auto serial = run_naas(model, opts, tiny_benchmark());
  opts.num_threads = 4;
  const auto pooled = run_naas(model, opts, tiny_benchmark());

  EXPECT_EQ(pooled.best_geomean_edp, serial.best_geomean_edp);
  EXPECT_EQ(arch_fingerprint(pooled.best_arch),
            arch_fingerprint(serial.best_arch));
  EXPECT_EQ(pooled.population_best_edp, serial.population_best_edp);
  EXPECT_EQ(pooled.population_mean_edp, serial.population_mean_edp);
  ASSERT_EQ(pooled.best_networks.size(), serial.best_networks.size());
  for (std::size_t i = 0; i < serial.best_networks.size(); ++i) {
    const cost::NetworkCost& p = pooled.best_networks[i];
    const cost::NetworkCost& s = serial.best_networks[i];
    EXPECT_EQ(p.edp, s.edp) << i;
    EXPECT_EQ(p.latency_cycles, s.latency_cycles) << i;
    EXPECT_EQ(p.energy_nj, s.energy_nj) << i;
    ASSERT_EQ(p.per_layer.size(), s.per_layer.size()) << i;
    for (std::size_t l = 0; l < s.per_layer.size(); ++l)
      EXPECT_EQ(p.per_layer[l].report.edp, s.per_layer[l].report.edp) << l;
  }
  EXPECT_EQ(pooled.cost_evaluations, serial.cost_evaluations);
  EXPECT_EQ(pooled.mapping_searches, serial.mapping_searches);
  EXPECT_EQ(pooled.generations_batched, serial.generations_batched);
}

TEST(NaasSearch, SizingOnlyModeRestrictsConnectivity) {
  const cost::CostModel model;
  NaasOptions opts = small_options(arch::nvdla_256_resources(), 5);
  opts.search_connectivity = false;
  const auto res = run_naas(model, opts, tiny_benchmark());
  ASSERT_TRUE(std::isfinite(res.best_geomean_edp));
  EXPECT_EQ(res.best_arch.num_array_dims, 2);
  EXPECT_EQ(res.best_arch.parallel_dims[0], nn::Dim::kC);
  EXPECT_EQ(res.best_arch.parallel_dims[1], nn::Dim::kK);
}

TEST(NaasSearch, ThrowsOnEmptyBenchmarks) {
  const cost::CostModel model;
  EXPECT_THROW(
      run_naas(model, small_options(arch::nvdla_256_resources()), {}),
      std::invalid_argument);
}

TEST(RandomSearchTest, ProducesValidDesignButNoAdaptation) {
  const cost::CostModel model;
  const auto rc = arch::nvdla_256_resources();
  const auto res =
      run_random_search(model, small_options(rc, 23), tiny_benchmark());
  ASSERT_TRUE(std::isfinite(res.best_geomean_edp));
  EXPECT_TRUE(rc.allows(res.best_arch));
  EXPECT_EQ(res.population_mean_edp.size(), 5u);
}

TEST(RandomSearchTest, NaasMeanBeatsRandomMeanLate) {
  // Fig. 4's qualitative claim, on a tiny budget: once adapted, the NAAS
  // population mean sits below random search's stationary mean. Tail
  // averages keep the comparison robust to per-iteration sampling noise.
  const cost::CostModel model;
  NaasOptions opts = small_options(arch::eyeriss_resources(), 31);
  opts.iterations = 10;
  const auto naas = run_naas(model, opts, tiny_benchmark());
  const auto rand = run_random_search(model, opts, tiny_benchmark());
  ASSERT_GE(naas.population_mean_edp.size(), 3u);
  ASSERT_FALSE(rand.population_mean_edp.empty());
  auto tail_mean = [](const std::vector<double>& xs, std::size_t n) {
    double acc = 0;
    for (std::size_t i = xs.size() - n; i < xs.size(); ++i) acc += xs[i];
    return acc / static_cast<double>(n);
  };
  const double naas_late = tail_mean(naas.population_mean_edp, 3);
  double rand_all = 0;
  for (double x : rand.population_mean_edp) rand_all += x;
  rand_all /= static_cast<double>(rand.population_mean_edp.size());
  EXPECT_LT(naas_late, rand_all);
}

}  // namespace
}  // namespace naas::search
