// Property tests for the analytical surrogate (search/surrogate.*): its
// roofline bound must hold — bound <= true cost — for every legal mapping
// of every (accelerator, layer) pair, across all five layer kinds. A bound
// that overshot even once would claim a cost floor that some mapping
// beats, so it could no longer rule out a design without a search.

#include "search/surrogate.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "arch/presets.hpp"
#include "core/rng.hpp"
#include "mapping/canonical.hpp"
#include "mapping/legality.hpp"
#include "nn/model_zoo.hpp"
#include "search/accelerator_search.hpp"
#include "test_seed.hpp"

namespace naas::search {
namespace {

/// Random workload spanning all five kinds the cost model distinguishes.
nn::Workload random_layer(core::Rng& rng) {
  const int kernel = 1 + 2 * rng.uniform_int(0, 2);  // 1, 3, 5
  const int stride = rng.uniform_int(1, 2);
  const int out_hw = rng.uniform_int(1, 28);
  const int batch = rng.uniform_int(1, 2);
  switch (rng.uniform_int(0, 4)) {
    case 0:
      return nn::make_conv("cv", rng.uniform_int(1, 64),
                           rng.uniform_int(1, 64), kernel, stride, out_hw,
                           batch);
    case 1:
      return nn::make_dwconv("dw", rng.uniform_int(1, 96), kernel, stride,
                             out_hw, batch);
    case 2:
      return nn::make_fc("fc", rng.uniform_int(1, 512),
                         rng.uniform_int(1, 512), batch);
    case 3:
      return nn::make_matmul("mm", rng.uniform_int(1, 64),
                             rng.uniform_int(1, 128), rng.uniform_int(1, 128),
                             batch);
    default:
      return nn::make_attention_scores("attn", rng.uniform_int(1, 64),
                                       rng.uniform_int(1, 64),
                                       rng.uniform_int(1, 32),
                                       rng.uniform_int(1, 4), batch);
  }
}

arch::ArchConfig random_arch(core::Rng& rng) {
  if (rng.bernoulli(0.25)) {
    const arch::ArchConfig presets[] = {
        arch::nvdla_256_arch(), arch::eyeriss_arch(), arch::shidiannao_arch()};
    return presets[rng.uniform_int(0, 2)];
  }
  arch::ArchConfig cfg;
  cfg.name = "rand";
  cfg.num_array_dims = rng.uniform_int(1, 3);
  const nn::Dim dims[] = {nn::Dim::kK, nn::Dim::kC, nn::Dim::kYp,
                          nn::Dim::kXp, nn::Dim::kR, nn::Dim::kS,
                          nn::Dim::kN};
  std::vector<nn::Dim> pool(dims, dims + 7);
  rng.shuffle(pool);
  for (int a = 0; a < arch::kMaxArrayDims; ++a) {
    cfg.array_dims[static_cast<std::size_t>(a)] = rng.uniform_int(1, 16);
    cfg.parallel_dims[static_cast<std::size_t>(a)] =
        pool[static_cast<std::size_t>(a)];
  }
  cfg.l1_bytes = 1LL << rng.uniform_int(6, 11);
  cfg.l2_bytes = 1LL << rng.uniform_int(12, 18);
  cfg.noc_bandwidth = 1 << rng.uniform_int(2, 6);
  cfg.dram_bandwidth = 1 << rng.uniform_int(2, 6);
  return cfg;
}

/// Mostly-legal random mapping: random tiles/orders pulled toward legality
/// by repair (canonical is mixed in so every round has a legal candidate).
mapping::Mapping random_mapping(core::Rng& rng, const arch::ArchConfig& arch,
                                const nn::Workload& layer) {
  if (rng.bernoulli(0.25)) return mapping::canonical_mapping(arch, layer);
  mapping::Mapping m = mapping::canonical_mapping(arch, layer);
  for (nn::Dim d : nn::all_dims()) {
    const int bound = layer.dim_size(d);
    mapping::set_tile(m.dram.tile, d, rng.uniform_int(1, bound));
    mapping::set_tile(m.pe.tile, d, rng.uniform_int(1, bound));
  }
  std::vector<nn::Dim> dims;
  for (nn::Dim d : nn::all_dims()) dims.push_back(d);
  rng.shuffle(dims);
  for (std::size_t i = 0; i < m.dram.order.size(); ++i) m.dram.order[i] = dims[i];
  rng.shuffle(dims);
  for (std::size_t i = 0; i < m.pe.order.size(); ++i) m.pe.order[i] = dims[i];
  rng.shuffle(dims);
  for (std::size_t i = 0; i < m.pe_order.size(); ++i) m.pe_order[i] = dims[i];
  return mapping::repair(m, layer, arch);
}

TEST(Surrogate, BoundNeverExceedsTrueCostOnRandomTriples) {
  const cost::CostModel model;
  core::Rng rng(test::sweep_seed(20260808));
  int legal_by_kind[5] = {0, 0, 0, 0, 0};
  for (int round = 0; round < 200; ++round) {
    const nn::Workload layer = random_layer(rng);
    const arch::ArchConfig arch = random_arch(rng);
    const cost::LayerContext ctx = model.make_context(arch, layer);
    const SurrogateBound bound = surrogate_layer_bound(ctx);
    if (!ctx.arch_valid || ctx.degenerate) {
      EXPECT_TRUE(std::isinf(bound.edp));
      continue;
    }
    for (int i = 0; i < 8; ++i) {
      const mapping::Mapping m = random_mapping(rng, arch, layer);
      const cost::CostReport rep = model.evaluate(arch, layer, m);
      if (!rep.legal) continue;
      ++legal_by_kind[static_cast<int>(layer.kind)];
      EXPECT_LE(bound.latency_cycles, rep.latency_cycles)
          << layer.to_string() << " @ " << arch.name;
      EXPECT_LE(bound.energy_nj, rep.energy_nj)
          << layer.to_string() << " @ " << arch.name;
      EXPECT_LE(bound.edp, rep.edp) << layer.to_string() << " @ " << arch.name;
    }
  }
  for (int k = 0; k < 5; ++k)
    EXPECT_GT(legal_by_kind[k], 0) << "kind " << k << " never exercised";
}

TEST(Surrogate, CompulsoryBytesAreTheWholeTensors) {
  // For stride <= kernel the input halo extent is the whole input, so the
  // floor is exactly one pass over every operand — the DRAM traffic of a
  // mapping that holds the whole layer as one L2 tile.
  const cost::CostModel model;
  const arch::ArchConfig arch = arch::eyeriss_arch();
  for (const nn::Workload& layer :
       {nn::make_conv("c", 4, 4, 3, 1, 8), nn::make_conv("s", 8, 16, 3, 2, 7),
        nn::make_dwconv("dw", 16, 3, 1, 6), nn::make_fc("fc", 64, 10, 2)}) {
    const double whole = static_cast<double>(
        layer.input_elems() + layer.weight_elems() + layer.output_elems());
    EXPECT_DOUBLE_EQ(compulsory_bytes(model.make_context(arch, layer)), whole)
        << layer.to_string();
  }
}

TEST(Surrogate, NetworkBoundBelowSearchedCost) {
  // The bound must also hold against the OPTIMAL mapping the search finds
  // (it holds for every legal mapping, so in particular for the best one),
  // composed network-wide and across the benchmark geomean.
  const cost::CostModel model;
  MappingSearchOptions mopts;
  mopts.population = 6;
  mopts.iterations = 3;
  ArchEvaluator evaluator(model, mopts);
  const std::vector<nn::Network> benchmarks{nn::make_network("cifarnet")};
  for (const arch::ArchConfig& arch :
       {arch::nvdla_256_arch(), arch::eyeriss_arch()}) {
    const cost::NetworkCost nc = evaluator.evaluate(arch, benchmarks[0]);
    ASSERT_TRUE(nc.legal);
    EXPECT_LE(surrogate_network_edp_bound(model, arch, benchmarks[0]), nc.edp);
    EXPECT_LE(surrogate_geomean_edp_bound(model, arch, benchmarks),
              evaluator.geomean_edp(arch, benchmarks));
  }
}

}  // namespace
}  // namespace naas::search
