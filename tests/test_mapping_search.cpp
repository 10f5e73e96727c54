#include "search/mapping_search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "arch/presets.hpp"
#include "core/rng.hpp"
#include "core/serialize.hpp"
#include "mapping/canonical.hpp"
#include "mapping/legality.hpp"
#include "nn/model_zoo.hpp"

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

TEST(MappingSearch, ResultBitsMatchRecordedDigest) {
  // Pins every output bit of 1,152 searches: best EDP, evaluation count,
  // and the best mapping's tiles and orders. Any change that moves a
  // decoded mapping or a cost (decoder, legality and footprint helpers,
  // cost model, or an optimizer change big enough to survive decoding)
  // changes the digest. A last-bit change inside the optimizer is usually
  // rounded away by decoding; CmaEs.AskTellStreamMatchesRecordedDigest and
  // Matrix.CholeskyMatchesRowOrderReference pin those bits. Units: about
  // six unique layers from each of five zoo networks (CNN, transformer and
  // LLM-decode kinds) on four seeded NVDLA-256-envelope candidates, at
  // nine (population, iterations) budgets. The expected value was recorded
  // from the straightforward row-order implementation; never re-record it
  // to make a change pass. The searches run twice, drawing their own normals
  // and reading a caller-drawn mapping_normals stream, and both runs must
  // match it.
  const cost::CostModel model;
  const HwEncodingSpec hw = make_hw_spec(arch::nvdla_256_resources(),
                                         OrderEncoding::kImportance, true);
  core::Rng rng(2024);
  std::vector<arch::ArchConfig> archs;
  while (archs.size() < 4) {
    std::vector<double> genome(static_cast<std::size_t>(hw.genome_size()));
    for (double& g : genome) g = rng.uniform();
    if (hw.valid(genome)) archs.push_back(hw.decode(genome));
  }
  std::vector<nn::Workload> layers;
  for (const char* name : {"resnet50", "mobilenetv2", "squeezenet",
                           "bert_base_encoder", "llm_decode"}) {
    const auto unique = nn::make_network(name).unique_layers();
    const std::size_t step = std::max<std::size_t>(1, unique.size() / 6);
    for (std::size_t i = 0; i < unique.size(); i += step)
      layers.push_back(unique[i].first);
  }

  for (const bool predrawn : {false, true}) {
    core::ByteWriter bits;
    std::uint64_t seed = 1;
    for (int population : {4, 8, 12}) {
      for (int iterations : {1, 4, 10}) {
        for (const arch::ArchConfig& arch : archs) {
          for (const nn::Workload& layer : layers) {
            MappingSearchOptions opts;
            opts.population = population;
            opts.iterations = iterations;
            opts.seed = seed++;
            const MappingSearchResult res =
                predrawn ? search_mapping(model, arch, layer, opts,
                                          mapping_normals(opts))
                         : search_mapping(model, arch, layer, opts);
            bits.f64(res.best_edp);
            bits.i64(res.evaluations);
            for (const mapping::LevelMapping* level :
                 {&res.best.dram, &res.best.pe}) {
              for (int t : level->tile) bits.i32(t);
              for (nn::Dim d : level->order) bits.i32(static_cast<int>(d));
            }
            for (nn::Dim d : res.best.pe_order) bits.i32(static_cast<int>(d));
          }
        }
      }
    }
    EXPECT_EQ(core::fnv1a64(bits.bytes()), 0x258bd20b71331362ULL)
        << (predrawn ? "mapping_normals stream" : "own draws");
  }
}

TEST(MappingSearch, WrongLengthNormalsThrow) {
  const cost::CostModel model;
  const auto arch = arch::nvdla_256_arch();
  const nn::Workload layer = nn::make_conv("c", 64, 128, 3, 1, 28);
  const MappingSearchOptions opts = small_budget();
  std::vector<double> normals = mapping_normals(opts);
  ASSERT_EQ(normals.size(),
            static_cast<std::size_t>(opts.iterations * opts.population *
                                     opts.encoding.genome_size()));
  normals.pop_back();
  EXPECT_THROW(search_mapping(model, arch, layer, opts, normals),
               std::invalid_argument);
  normals.resize(normals.size() + 2, 0.0);
  EXPECT_THROW(search_mapping(model, arch, layer, opts, normals),
               std::invalid_argument);
  EXPECT_THROW(
      search_mapping(model, arch, layer, opts, std::span<const double>{}),
      std::invalid_argument);
}

}  // namespace
}  // namespace naas::search
