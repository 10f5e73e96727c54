#include "nas/nas_search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "arch/presets.hpp"
#include "core/rng.hpp"
#include "core/serialize.hpp"
#include "core/thread_pool.hpp"

namespace naas::nas {
namespace {

search::MappingSearchOptions tiny_mapping() {
  search::MappingSearchOptions opts;
  opts.population = 6;
  opts.iterations = 3;
  return opts;
}

TEST(SubnetEvolution, RespectsAccuracyConstraint) {
  const cost::CostModel model;
  search::ArchEvaluator ev(model, tiny_mapping());
  const nn::OfaSpace space;
  const nn::AccuracyPredictor predictor;

  SubnetEvolutionOptions opts;
  opts.min_accuracy = 77.5;
  opts.population = 6;
  opts.iterations = 3;
  opts.seed = 5;
  const SubnetResult res =
      evolve_subnet(ev, arch::eyeriss_arch(), space, predictor, opts);
  ASSERT_TRUE(std::isfinite(res.edp));
  EXPECT_GE(res.accuracy, opts.min_accuracy);
  EXPECT_DOUBLE_EQ(predictor.predict(res.config), res.accuracy);
}

TEST(SubnetEvolution, LooserConstraintNeverWorseEdp) {
  const cost::CostModel model;
  search::ArchEvaluator ev(model, tiny_mapping());
  const nn::OfaSpace space;
  const nn::AccuracyPredictor predictor;

  SubnetEvolutionOptions strict;
  strict.min_accuracy = 78.8;
  strict.population = 6;
  strict.iterations = 4;
  strict.seed = 7;
  SubnetEvolutionOptions loose = strict;
  loose.min_accuracy = 74.0;

  const auto arch = arch::nvdla_256_arch();
  const auto rs = evolve_subnet(ev, arch, space, predictor, strict);
  const auto rl = evolve_subnet(ev, arch, space, predictor, loose);
  ASSERT_TRUE(std::isfinite(rs.edp));
  ASSERT_TRUE(std::isfinite(rl.edp));
  // The loose constraint admits every strict-feasible subnet (same seed =>
  // superset of candidates is not guaranteed, but smaller nets dominate
  // EDP so the loose optimum must be at least as good within tolerance).
  EXPECT_LE(rl.edp, rs.edp * 1.05);
}

TEST(SubnetEvolution, InfeasibleConstraintReportsInfinity) {
  const cost::CostModel model;
  search::ArchEvaluator ev(model, tiny_mapping());
  SubnetEvolutionOptions opts;
  opts.min_accuracy = 99.0;  // unreachable
  opts.population = 4;
  opts.iterations = 2;
  const SubnetResult res =
      evolve_subnet(ev, arch::eyeriss_arch(), nn::OfaSpace{},
                    nn::AccuracyPredictor{}, opts);
  EXPECT_TRUE(std::isinf(res.edp));
}

TEST(SubnetEvolution, SingleFeasibleSampleBreedsFromItself) {
  // A floor that exactly one of the initial samples meets leaves a
  // population of one. The breeding loop must pick parents from that one
  // member only: drawing from max(2, size / 2) read past the end of the
  // population (a crash at full budget, a silently wrong parent at the
  // default one).
  const cost::CostModel model;
  search::ArchEvaluator ev(model, tiny_mapping());
  const nn::OfaSpace space;
  const nn::AccuracyPredictor predictor;

  SubnetEvolutionOptions opts;
  opts.population = 6;
  opts.iterations = 4;
  opts.seed = 11;
  // The initial population scores the repaired samples of Rng(seed), in
  // order; every attempt is spent because at most one sample is feasible.
  std::vector<double> accuracies;
  core::Rng rng(opts.seed);
  for (int i = 0; i < opts.max_sample_attempts; ++i)
    accuracies.push_back(predictor.predict(space.repair(space.sample(rng))));
  std::sort(accuracies.begin(), accuracies.end(), std::greater<>());
  ASSERT_LT(accuracies[1], accuracies[0]);
  opts.min_accuracy = accuracies[0];
  ASSERT_EQ(std::count_if(accuracies.begin(), accuracies.end(),
                          [&](double a) { return a >= opts.min_accuracy; }),
            1);

  const SubnetResult res =
      evolve_subnet(ev, arch::eyeriss_arch(), space, predictor, opts);
  ASSERT_TRUE(std::isfinite(res.edp));
  EXPECT_GE(res.accuracy, opts.min_accuracy);
  EXPECT_DOUBLE_EQ(predictor.predict(res.config), res.accuracy);
}

TEST(CoSearch, ReturnsMatchedTuple) {
  const cost::CostModel model;
  CoSearchOptions opts;
  opts.resources = arch::eyeriss_resources();
  opts.hw_population = 6;
  opts.hw_iterations = 3;
  opts.seed = 3;
  opts.mapping = tiny_mapping();
  opts.subnet.min_accuracy = 77.0;
  opts.subnet.population = 5;
  opts.subnet.iterations = 2;

  const CoSearchResult res = run_cosearch(model, opts);
  ASSERT_TRUE(std::isfinite(res.best_edp));
  EXPECT_TRUE(opts.resources.allows(res.best_arch));
  EXPECT_GE(res.best_accuracy, opts.subnet.min_accuracy);
  EXPECT_GT(res.cost_evaluations, 0);
  EXPECT_GT(res.wall_seconds, 0.0);
}

TEST(CoSearch, JointBeatsFixedNetOnEdp) {
  // The co-search may shrink the network (within the accuracy constraint),
  // so its EDP should be no worse than forcing the full ResNet50-shaped
  // subnet on the same searched accelerator budget.
  const cost::CostModel model;
  CoSearchOptions opts;
  opts.resources = arch::eyeriss_resources();
  opts.hw_population = 6;
  opts.hw_iterations = 4;
  opts.seed = 9;
  opts.mapping = tiny_mapping();
  opts.subnet.min_accuracy = 76.5;
  opts.subnet.population = 6;
  opts.subnet.iterations = 3;
  const CoSearchResult joint = run_cosearch(model, opts);
  ASSERT_TRUE(std::isfinite(joint.best_edp));

  search::ArchEvaluator ev(model, tiny_mapping());
  const auto fixed_net =
      nn::OfaSpace{}.to_network(nn::OfaSpace::resnet50_config());
  const auto fixed_cost = ev.evaluate(joint.best_arch, fixed_net);
  ASSERT_TRUE(fixed_cost.legal);
  EXPECT_LE(joint.best_edp, fixed_cost.edp * 1.02);
}

TEST(CoSearch, ResultIdenticalAcrossThreadCounts) {
  // Every output and work meter of a co-search is a pure function of
  // (inputs, options). With several threads a generation's subnet
  // evolutions propose and score their subnets concurrently, and each
  // phase's shared fill runs its layer groups concurrently; the pooled run
  // must still match the serial one bit for bit.
  const cost::CostModel model;
  CoSearchOptions opts;
  opts.resources = arch::nvdla_256_resources();
  opts.hw_population = 6;
  opts.hw_iterations = 2;
  opts.seed = 4;
  opts.mapping = tiny_mapping();
  opts.subnet.min_accuracy = 76.0;
  opts.subnet.population = 5;
  opts.subnet.iterations = 2;
  opts.num_threads = 1;
  const CoSearchResult serial = run_cosearch(model, opts);
  opts.num_threads = 4;
  const CoSearchResult pooled = run_cosearch(model, opts);

  ASSERT_TRUE(std::isfinite(serial.best_edp));
  EXPECT_EQ(search::arch_fingerprint(pooled.best_arch),
            search::arch_fingerprint(serial.best_arch));
  EXPECT_EQ(pooled.best_net.fingerprint(), serial.best_net.fingerprint());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(pooled.best_edp),
            std::bit_cast<std::uint64_t>(serial.best_edp));
  EXPECT_EQ(pooled.best_accuracy, serial.best_accuracy);
  EXPECT_EQ(pooled.mapping_searches, serial.mapping_searches);
  EXPECT_EQ(pooled.cost_evaluations, serial.cost_evaluations);
  EXPECT_EQ(pooled.generations_batched, serial.generations_batched);
  EXPECT_EQ(pooled.candidates_batch_evaluated,
            serial.candidates_batch_evaluated);
}

/// Appends a search outcome and the four work meters to `bits`.
void digest_meters(core::ByteWriter& bits, long long mapping_searches,
                   long long cost_evaluations, long long generations_batched,
                   long long candidates_batch_evaluated) {
  bits.i64(mapping_searches);
  bits.i64(cost_evaluations);
  bits.i64(generations_batched);
  bits.i64(candidates_batch_evaluated);
}

void digest_subnet(core::ByteWriter& bits, const nn::OfaConfig& config,
                   double accuracy, double edp) {
  bits.u64(config.fingerprint());
  bits.f64(accuracy);
  bits.f64(edp);
}

TEST(SubnetEvolution, ResultMatchesRecordedDigest) {
  // Pins every output bit and work meter of single subnet evolutions, at 1
  // and 4 evaluation threads: a 75% floor on NVDLA-256, the 78.6% default
  // floor on Eyeriss (populations of one), 77% on EdgeTPU, the NHAS
  // width-only space on an unseeded mapping search, and a design whose
  // 2-byte L1 holds no tile at all, which must spend every sample attempt
  // and report +inf. The expected value was recorded from the one-subnet-
  // at-a-time loop; never re-record it to make a change pass.
  const cost::CostModel model;
  const nn::OfaSpace space;
  const nn::AccuracyPredictor predictor;
  arch::ArchConfig no_l1 = arch::nvdla_256_arch();
  no_l1.l1_bytes = 2;
  struct Case {
    arch::ArchConfig arch;
    double min_accuracy;
    bool width_only;
    std::uint64_t seed;
  };
  const Case cases[] = {
      {arch::nvdla_256_arch(), 75.0, false, 3},
      {arch::eyeriss_arch(), 78.6, false, 5},
      {arch::edge_tpu_arch(), 77.0, false, 7},
      {arch::nvdla_256_arch(), 76.0, true, 9},
      {no_l1, 75.0, false, 11},
  };
  for (const int threads : {1, 4}) {
    core::ThreadPool pool(threads);
    core::ByteWriter bits;
    for (const Case& c : cases) {
      search::MappingSearchOptions mapping = tiny_mapping();
      mapping.seed_canonical = !c.width_only;
      search::ArchEvaluator ev(model, mapping, &pool);
      SubnetEvolutionOptions opts;
      opts.min_accuracy = c.min_accuracy;
      opts.population = 6;
      opts.iterations = 3;
      opts.seed = c.seed;
      opts.width_and_expand_only = c.width_only;
      const SubnetResult res =
          evolve_subnet(ev, c.arch, space, predictor, opts);
      if (c.arch.l1_bytes == 2) {
        EXPECT_TRUE(std::isinf(res.edp));
        EXPECT_GT(ev.mapping_searches(), 0);
      } else {
        EXPECT_TRUE(std::isfinite(res.edp));
      }
      digest_subnet(bits, res.config, res.accuracy, res.edp);
      digest_meters(bits, ev.mapping_searches(), ev.cost_evaluations(),
                    ev.generations_batched(), ev.candidates_batch_evaluated());
    }
    EXPECT_EQ(core::fnv1a64(bits.bytes()), 0x935b4748be8e26c3ULL)
        << threads << " threads";
  }
}

TEST(CoSearch, ResultMatchesRecordedDigest) {
  // Pins every output bit and work meter of whole co-searches, at 1 and 4
  // threads: NVDLA-256 at the naasbench cosearch_ofa budget and 75% floor,
  // Eyeriss at the 78.6% default floor (populations of one), EdgeTPU at
  // 77%, the NHAS space (sizing-only accelerators, width-only subnets,
  // unseeded tiling search), a search without the seed design, and one
  // that runs only the seed design's evolution. The expected value was
  // recorded from the one-subnet-at-a-time loop; never re-record it to
  // make a change pass.
  const cost::CostModel model;
  std::vector<CoSearchOptions> configs;
  {
    CoSearchOptions o;
    o.resources = arch::nvdla_256_resources();
    o.hw_population = 4;
    o.hw_iterations = 2;
    o.seed = 2;
    o.mapping.population = 8;
    o.mapping.iterations = 5;
    o.mapping.seed = 2;
    o.subnet.min_accuracy = 75.0;
    o.subnet.population = 8;
    o.subnet.iterations = 4;
    configs.push_back(o);
  }
  {
    CoSearchOptions o;
    o.resources = arch::eyeriss_resources();
    o.hw_population = 4;
    o.hw_iterations = 2;
    o.seed = 3;
    o.mapping = tiny_mapping();
    o.subnet.population = 5;
    o.subnet.iterations = 3;
    configs.push_back(o);
  }
  {
    CoSearchOptions o;
    o.resources = arch::edge_tpu_resources();
    o.hw_population = 4;
    o.hw_iterations = 2;
    o.seed = 4;
    o.mapping = tiny_mapping();
    o.subnet.min_accuracy = 77.0;
    o.subnet.population = 5;
    o.subnet.iterations = 2;
    configs.push_back(o);
  }
  {
    CoSearchOptions o;
    o.resources = arch::nvdla_256_resources();
    o.hw_population = 4;
    o.hw_iterations = 2;
    o.seed = 5;
    o.search_connectivity = false;
    o.mapping = tiny_mapping();
    o.mapping.encoding.search_order = false;
    o.mapping.encoding.fixed_dataflow = arch::Dataflow::kWeightStationary;
    o.mapping.seed_canonical = false;
    o.subnet.min_accuracy = 76.0;
    o.subnet.population = 5;
    o.subnet.iterations = 2;
    o.subnet.width_and_expand_only = true;
    configs.push_back(o);
  }
  {
    CoSearchOptions o;
    o.resources = arch::nvdla_256_resources();
    o.hw_population = 4;
    o.hw_iterations = 2;
    o.seed = 6;
    o.seed_baseline = false;
    o.mapping = tiny_mapping();
    o.subnet.min_accuracy = 76.0;
    o.subnet.population = 5;
    o.subnet.iterations = 2;
    configs.push_back(o);
  }
  {
    CoSearchOptions o;
    o.resources = arch::nvdla_256_resources();
    o.hw_iterations = 0;
    o.seed = 7;
    o.mapping = tiny_mapping();
    o.subnet.min_accuracy = 76.0;
    o.subnet.population = 5;
    o.subnet.iterations = 2;
    configs.push_back(o);
  }
  for (const int threads : {1, 4}) {
    core::ByteWriter bits;
    for (CoSearchOptions o : configs) {
      o.num_threads = threads;
      const CoSearchResult r = run_cosearch(model, o);
      EXPECT_TRUE(std::isfinite(r.best_edp));
      bits.u64(search::arch_fingerprint(r.best_arch));
      digest_subnet(bits, r.best_net, r.best_accuracy, r.best_edp);
      digest_meters(bits, r.mapping_searches, r.cost_evaluations,
                    r.generations_batched, r.candidates_batch_evaluated);
    }
    EXPECT_EQ(core::fnv1a64(bits.bytes()), 0xe8314c60559c0de2ULL)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace naas::nas
