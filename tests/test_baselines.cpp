#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "arch/presets.hpp"
#include "baselines/nasaic.hpp"
#include "baselines/nhas.hpp"
#include "nn/model_zoo.hpp"
#include "search/result_store.hpp"
#include "test_temp.hpp"

namespace naas::baselines {
namespace {

TEST(Nasaic, FindsAllocationForCifarNet) {
  const cost::CostModel model;
  NasaicOptions opts;
  opts.total_pes = 512;
  opts.pe_step = 128;
  const NasaicResult res = run_nasaic(model, nn::make_cifar_net(), opts);
  ASSERT_TRUE(std::isfinite(res.edp));
  EXPECT_GT(res.dla_pes, 0);
  EXPECT_GT(res.shi_pes, 0);
  EXPECT_EQ(res.dla_pes + res.shi_pes, 512);
  EXPECT_EQ(res.layers_on_dla + res.layers_on_shi,
            nn::make_cifar_net().num_layers());
  EXPECT_DOUBLE_EQ(res.edp, res.latency_cycles * res.energy_nj);
}

TEST(Nasaic, UsesBothIpsWhenWorkloadIsMixed) {
  // A network mixing conv (DLA-friendly) and depthwise (Shi-friendly)
  // layers should offload to both IPs.
  const cost::CostModel model;
  NasaicOptions opts;
  opts.total_pes = 512;
  opts.pe_step = 128;
  const NasaicResult res = run_nasaic(model, nn::make_mobilenet_v2(), opts);
  ASSERT_TRUE(std::isfinite(res.edp));
  EXPECT_GT(res.layers_on_dla, 0);
  EXPECT_GT(res.layers_on_shi, 0);
}

TEST(Nasaic, LargerBudgetNeverWorse) {
  const cost::CostModel model;
  NasaicOptions small;
  small.total_pes = 256;
  small.pe_step = 64;
  NasaicOptions big = small;
  big.total_pes = 1024;
  big.total_onchip_bytes = 2LL * 1024 * 1024;
  const auto net = nn::make_cifar_net();
  const auto rs = run_nasaic(model, net, small);
  const auto rb = run_nasaic(model, net, big);
  EXPECT_LE(rb.latency_cycles, rs.latency_cycles * 1.001);
}

TEST(Nasaic, WarmStartFromStoreIsBitIdentical) {
  const std::string path =
      test::unique_temp_path("naas_store_nasaic_test.bin");
  std::remove(path.c_str());

  const cost::CostModel model;
  NasaicOptions opts;
  opts.total_pes = 256;
  opts.pe_step = 64;
  opts.num_threads = 1;
  opts.cache_path = path;
  const auto net = nn::make_cifar_net();
  const auto cold = run_nasaic(model, net, opts);
  ASSERT_EQ(search::ResultStore::load(path).status,
            search::StoreStatus::kOk);
  const auto warm = run_nasaic(model, net, opts);
  EXPECT_EQ(warm.edp, cold.edp);
  EXPECT_EQ(warm.latency_cycles, cold.latency_cycles);
  EXPECT_EQ(warm.energy_nj, cold.energy_nj);
  EXPECT_EQ(warm.dla_pes, cold.dla_pes);
  EXPECT_EQ(warm.shi_pes, cold.shi_pes);
  std::remove(path.c_str());
}

TEST(Nasaic, ToStringDescribesAllocation) {
  const cost::CostModel model;
  NasaicOptions opts;
  opts.total_pes = 256;
  opts.pe_step = 64;
  const auto res = run_nasaic(model, nn::make_cifar_net(), opts);
  const std::string s = res.to_string();
  EXPECT_NE(s.find("DLA"), std::string::npos);
  EXPECT_NE(s.find("EDP"), std::string::npos);
}

TEST(Nhas, SearchesSizingOnlyDesign) {
  const cost::CostModel model;
  nas::CoSearchOptions opts;
  opts.resources = arch::eyeriss_resources();
  opts.hw_population = 5;
  opts.hw_iterations = 3;
  opts.seed = 13;
  opts.mapping.population = 6;
  opts.mapping.iterations = 3;
  opts.subnet.min_accuracy = 76.5;
  opts.subnet.population = 5;
  opts.subnet.iterations = 2;
  const auto res = run_nhas(model, opts);
  ASSERT_TRUE(std::isfinite(res.best_edp));
  // NHAS never changes connectivity: on Eyeriss resources it resizes the
  // given row-stationary R x Y' design.
  EXPECT_EQ(res.best_arch.num_array_dims, 2);
  EXPECT_EQ(res.best_arch.parallel_dims[0], nn::Dim::kR);
  EXPECT_EQ(res.best_arch.parallel_dims[1], nn::Dim::kYp);
  EXPECT_TRUE(opts.resources.allows(res.best_arch));
}

TEST(Nhas, FullNaasBeatsNhasOnEdp) {
  // Fig. 10's mechanism: with the same budgets, adding connectivity +
  // loop-order freedom must reach an EDP at least as good as NHAS. NAAS's
  // genome is three times larger, so it needs a non-trivial (but still
  // test-sized) outer budget before the superset space pays off.
  const cost::CostModel model;
  nas::CoSearchOptions opts;
  opts.resources = arch::eyeriss_resources();
  opts.hw_population = 8;
  opts.hw_iterations = 8;
  opts.seed = 29;
  opts.mapping.population = 8;
  opts.mapping.iterations = 4;
  opts.subnet.min_accuracy = 76.5;
  opts.subnet.population = 5;
  opts.subnet.iterations = 2;

  const auto nhas = run_nhas(model, opts);
  const auto naas = nas::run_cosearch(model, opts);
  ASSERT_TRUE(std::isfinite(nhas.best_edp));
  ASSERT_TRUE(std::isfinite(naas.best_edp));
  EXPECT_LE(naas.best_edp, nhas.best_edp * 1.05);
}

}  // namespace
}  // namespace naas::baselines
