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
  // evolutions run concurrently and may search shared (arch, layer) units
  // at the same time; the pooled run must still match the serial one bit
  // for bit.
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

}  // namespace
}  // namespace naas::nas
