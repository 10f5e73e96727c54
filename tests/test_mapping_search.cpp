#include "search/mapping_search.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "arch/presets.hpp"
#include "mapping/canonical.hpp"
#include "mapping/legality.hpp"

namespace naas::search {
namespace {

MappingSearchOptions small_budget(std::uint64_t seed = 1) {
  MappingSearchOptions opts;
  opts.population = 10;
  opts.iterations = 6;
  opts.seed = seed;
  return opts;
}

TEST(MappingSearch, ReturnsLegalMapping) {
  const cost::CostModel model;
  const auto arch = arch::nvdla_256_arch();
  const nn::Workload layer = nn::make_conv("c", 64, 128, 3, 1, 28);
  const auto res = search_mapping(model, arch, layer, small_budget());
  EXPECT_TRUE(std::isfinite(res.best_edp));
  EXPECT_TRUE(mapping::check(res.best, layer, arch).legal);
  EXPECT_GT(res.evaluations, 0);
}

TEST(MappingSearch, BeatsOrMatchesCanonicalWhenSeeded) {
  const cost::CostModel model;
  const auto arch = arch::eyeriss_arch();
  const nn::Workload layer = nn::make_conv("c", 96, 96, 3, 1, 28);
  const auto res = search_mapping(model, arch, layer, small_budget());
  double best_canonical = std::numeric_limits<double>::infinity();
  for (auto df : {arch::Dataflow::kWeightStationary,
                  arch::Dataflow::kOutputStationary,
                  arch::Dataflow::kRowStationary}) {
    const auto rep =
        model.evaluate(arch, layer, mapping::canonical_mapping(arch, layer, df));
    if (rep.legal) best_canonical = std::min(best_canonical, rep.edp);
  }
  EXPECT_LE(res.best_edp, best_canonical);
}

TEST(MappingSearch, SearchImprovesOverCanonicalOnSomeLayer) {
  // The searched mapping should strictly beat every canonical preset on at
  // least one realistic layer (otherwise the mapping space search would be
  // pointless).
  const cost::CostModel model;
  const auto arch = arch::nvdla_256_arch();
  const nn::Workload layers[] = {
      nn::make_conv("a", 64, 128, 3, 1, 28),
      nn::make_conv("b", 256, 256, 3, 1, 14),
      nn::make_dwconv("c", 96, 3, 1, 56),
      nn::make_conv("d", 3, 64, 7, 2, 112),
  };
  bool strict_improvement = false;
  for (const auto& layer : layers) {
    MappingSearchOptions opts = small_budget(7);
    opts.iterations = 12;
    const auto res = search_mapping(model, arch, layer, opts);
    double best_canonical = std::numeric_limits<double>::infinity();
    for (auto df : {arch::Dataflow::kWeightStationary,
                    arch::Dataflow::kOutputStationary,
                    arch::Dataflow::kRowStationary}) {
      const auto rep = model.evaluate(
          arch, layer, mapping::canonical_mapping(arch, layer, df));
      if (rep.legal) best_canonical = std::min(best_canonical, rep.edp);
    }
    if (res.best_edp < best_canonical * 0.999) strict_improvement = true;
  }
  EXPECT_TRUE(strict_improvement);
}

TEST(MappingSearch, DeterministicForSeed) {
  const cost::CostModel model;
  const auto arch = arch::shidiannao_arch();
  const nn::Workload layer = nn::make_conv("c", 32, 64, 3, 1, 28);
  const auto a = search_mapping(model, arch, layer, small_budget(5));
  const auto b = search_mapping(model, arch, layer, small_budget(5));
  EXPECT_DOUBLE_EQ(a.best_edp, b.best_edp);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(MappingSearch, UnseededStillFindsLegalMapping) {
  const cost::CostModel model;
  const auto arch = arch::nvdla_256_arch();
  const nn::Workload layer = nn::make_fc("fc", 4096, 1000);
  MappingSearchOptions opts = small_budget(3);
  opts.seed_canonical = false;
  const auto res = search_mapping(model, arch, layer, opts);
  EXPECT_TRUE(std::isfinite(res.best_edp));
  EXPECT_TRUE(mapping::check(res.best, layer, arch).legal);
}

TEST(MappingSearch, ReportMatchesBestMapping) {
  const cost::CostModel model;
  const auto arch = arch::eyeriss_arch();
  const nn::Workload layer = nn::make_conv("c", 48, 48, 3, 1, 14);
  const auto res = search_mapping(model, arch, layer, small_budget(9));
  const auto rep = model.evaluate(arch, layer, res.best);
  EXPECT_DOUBLE_EQ(rep.edp, res.best_edp);
  EXPECT_DOUBLE_EQ(rep.edp, res.report.edp);
}

TEST(MappingSearch, MoreBudgetNeverWorse) {
  const cost::CostModel model;
  const auto arch = arch::nvdla_1024_arch();
  const nn::Workload layer = nn::make_conv("c", 128, 256, 3, 1, 14);
  MappingSearchOptions tiny = small_budget(21);
  tiny.population = 6;
  tiny.iterations = 2;
  MappingSearchOptions big = small_budget(21);
  big.population = 12;
  big.iterations = 12;
  const auto small_res = search_mapping(model, arch, layer, tiny);
  const auto big_res = search_mapping(model, arch, layer, big);
  // Not guaranteed in general for stochastic search, but with canonical
  // seeding both include the same floor; the larger budget explores a
  // superset of generations from the same optimizer trajectory.
  EXPECT_LE(big_res.best_edp, small_res.best_edp * 1.001);
}

}  // namespace
}  // namespace naas::search
