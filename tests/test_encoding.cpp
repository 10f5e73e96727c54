#include "search/encoding.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <tuple>

#include "core/rng.hpp"
#include "mapping/canonical.hpp"
#include "mapping/footprint.hpp"
#include "mapping/legality.hpp"
#include "nn/model_zoo.hpp"
#include "nn/ofa_space.hpp"

namespace naas::search {
namespace {

/// The straightforward mapping decoder, kept as the reference the library's
/// decoder must match bit for bit: bounds read through
/// Workload::dim_size/ArchConfig::parallel_extent, tile genes interpolated
/// as exp(log(lo) + g * (log(hi) - log(lo))), ranks from an insertion sort,
/// and grow_to_fit's full doubling scan. Footprints use the library's
/// tile_footprint and index-encoded orders the library's order_from_index,
/// which are the definitions, not the code under test.
namespace ref {

double log_lerp(double gene, double lo, double hi) {
  gene = std::clamp(gene, 0.0, 1.0);
  return std::exp(std::log(lo) + gene * (std::log(hi) - std::log(lo)));
}

std::array<int, 6> rank_descending(const std::array<double, 6>& imp) {
  std::array<int, 6> idx{0, 1, 2, 3, 4, 5};
  for (std::size_t i = 1; i < idx.size(); ++i) {
    const int v = idx[i];
    const double key = imp[static_cast<std::size_t>(v)];
    std::size_t j = i;
    for (; j > 0 && key > imp[static_cast<std::size_t>(idx[j - 1])]; --j)
      idx[j] = idx[j - 1];
    idx[j] = v;
  }
  return idx;
}

mapping::LoopOrder order_from_importance(const std::array<double, 6>& imp) {
  const std::array<int, 6> idx = rank_descending(imp);
  mapping::LoopOrder order{};
  order[0] = nn::Dim::kN;
  for (std::size_t i = 0; i < 6; ++i)
    order[i + 1] = searchable_dims()[static_cast<std::size_t>(idx[i])];
  return order;
}

int pe_share(const nn::Workload& layer, const arch::ArchConfig& arch,
             const mapping::TileSizes& dram_tile, nn::Dim d) {
  const int t2 =
      std::clamp(mapping::tile_of(dram_tile, d), 1, layer.dim_size(d));
  const int extent = arch.parallel_extent(d);
  return std::max(1, (t2 + extent - 1) / extent);
}

template <typename BoundFn>
void clamp_tiles(mapping::TileSizes& tiles, BoundFn bound) {
  for (nn::Dim d : nn::all_dims()) {
    const int b = std::max(1, bound(d));
    mapping::set_tile(tiles, d, std::clamp(mapping::tile_of(tiles, d), 1, b));
  }
}

mapping::Mapping repair(mapping::Mapping m, const nn::Workload& layer,
                        const arch::ArchConfig& arch) {
  using mapping::is_valid_order;
  if (!is_valid_order(m.dram.order)) m.dram.order = mapping::default_order();
  if (!is_valid_order(m.pe.order)) m.pe.order = mapping::default_order();
  if (!is_valid_order(m.pe_order)) m.pe_order = mapping::default_order();
  const mapping::ShrinkPriority prio = mapping::default_shrink_priority();
  clamp_tiles(m.dram.tile, [&](nn::Dim d) { return layer.dim_size(d); });
  clamp_tiles(m.pe.tile,
              [&](nn::Dim d) { return pe_share(layer, arch, m.dram.tile, d); });
  auto shrink_one = [&prio](mapping::TileSizes& tiles) {
    for (nn::Dim d : prio) {
      const int t = mapping::tile_of(tiles, d);
      if (t > 1) {
        mapping::set_tile(tiles, d, t / 2);
        return true;
      }
    }
    return false;
  };
  while (mapping::tile_footprint(layer, m.pe.tile).total() > arch.l1_bytes) {
    if (!shrink_one(m.pe.tile)) break;
  }
  while (mapping::tile_footprint(layer, m.dram.tile).total() > arch.l2_bytes) {
    if (!shrink_one(m.dram.tile)) break;
    clamp_tiles(m.pe.tile, [&](nn::Dim d) {
      return pe_share(layer, arch, m.dram.tile, d);
    });
  }
  return m;
}

mapping::Mapping grow_to_fit(mapping::Mapping m, const nn::Workload& layer,
                             const arch::ArchConfig& arch,
                             const mapping::ShrinkPriority& dram_priority,
                             const mapping::ShrinkPriority& pe_priority) {
  auto grow = [&layer](mapping::TileSizes& tiles,
                       const mapping::ShrinkPriority& prio, auto bound_fn,
                       long long cap) {
    for (nn::Dim d : prio) {
      const int bound = std::max(1, bound_fn(d));
      int cur = mapping::tile_of(tiles, d);
      if (cur >= bound) continue;
      mapping::set_tile(tiles, d, bound);
      if (mapping::tile_footprint(layer, tiles).total() <= cap) continue;
      mapping::set_tile(tiles, d, cur);
      while (cur < bound) {
        const int next = std::min(bound, cur * 2);
        mapping::set_tile(tiles, d, next);
        if (mapping::tile_footprint(layer, tiles).total() > cap) {
          mapping::set_tile(tiles, d, cur);
          break;
        }
        cur = next;
      }
    }
  };
  grow(m.dram.tile, dram_priority,
       [&](nn::Dim d) { return layer.dim_size(d); }, arch.l2_bytes);
  grow(m.pe.tile, pe_priority,
       [&](nn::Dim d) { return pe_share(layer, arch, m.dram.tile, d); },
       arch.l1_bytes);
  return m;
}

mapping::Mapping decode(const MapEncodingSpec& spec,
                        const std::vector<double>& genome,
                        const arch::ArchConfig& arch,
                        const nn::Workload& layer) {
  mapping::Mapping m;
  std::size_t g = 0;
  auto read_order = [&]() -> mapping::LoopOrder {
    if (spec.order_encoding == OrderEncoding::kImportance) {
      std::array<double, 6> imp{};
      for (std::size_t i = 0; i < 6; ++i) imp[i] = genome[g + i];
      g += 6;
      return order_from_importance(imp);
    }
    return order_from_index(genome[g++]);
  };
  std::array<double, 6> dram_tile_genes{};
  std::array<double, 6> pe_tile_genes{};
  auto read_tiles = [&](auto bound_fn, std::array<double, 6>& kept_genes) {
    mapping::TileSizes tiles{1, 1, 1, 1, 1, 1, 1};
    std::size_t i = 0;
    for (nn::Dim d : searchable_dims()) {
      kept_genes[i++] = genome[g];
      const int bound = std::max(1, bound_fn(d));
      const double t = log_lerp(genome[g++], 1.0, static_cast<double>(bound));
      mapping::set_tile(tiles, d,
                        std::clamp(static_cast<int>(std::lround(t)), 1, bound));
    }
    mapping::set_tile(tiles, nn::Dim::kN, layer.dim_size(nn::Dim::kN));
    return tiles;
  };
  auto growth_priority = [](const std::array<double, 6>& genes) {
    mapping::LoopOrder order = order_from_importance(genes);
    std::rotate(order.begin(), order.begin() + 1, order.end());
    return order;
  };
  const mapping::LoopOrder fixed =
      mapping::canonical_order(spec.fixed_dataflow);
  m.dram.order = spec.search_order ? read_order() : fixed;
  m.dram.tile = read_tiles([&](nn::Dim d) { return layer.dim_size(d); },
                           dram_tile_genes);
  m.pe.order = spec.search_order ? read_order() : fixed;
  m.pe.tile = read_tiles(
      [&](nn::Dim d) { return pe_share(layer, arch, m.dram.tile, d); },
      pe_tile_genes);
  m.pe_order = spec.search_order ? read_order() : fixed;
  m = ref::repair(std::move(m), layer, arch);
  if (!spec.grow_tiles) return m;
  return ref::grow_to_fit(std::move(m), layer, arch,
                          growth_priority(dram_tile_genes),
                          growth_priority(pe_tile_genes));
}

}  // namespace ref

bool same_mapping(const mapping::Mapping& a, const mapping::Mapping& b) {
  return a.dram.order == b.dram.order && a.dram.tile == b.dram.tile &&
         a.pe.order == b.pe.order && a.pe.tile == b.pe.tile &&
         a.pe_order == b.pe_order;
}

TEST(Encoding, ImportanceOrderSortsDescending) {
  // Fig. 3 right: importances (K,C,Y',X',R,S) = (3,5,2,4,5,1) with C tied R
  // at 5 -> C first by stable tie-break, then R, K... N always outermost.
  const auto order =
      order_from_importance({3.0, 5.0, 2.0, 4.0, 5.0, 1.0});
  EXPECT_EQ(order[0], nn::Dim::kN);
  EXPECT_EQ(order[1], nn::Dim::kC);
  EXPECT_EQ(order[2], nn::Dim::kR);
  EXPECT_EQ(order[3], nn::Dim::kXp);
  EXPECT_EQ(order[4], nn::Dim::kK);
  EXPECT_EQ(order[5], nn::Dim::kYp);
  EXPECT_EQ(order[6], nn::Dim::kS);
  EXPECT_TRUE(mapping::is_valid_order(order));
}

TEST(Encoding, ImportanceOrderAlwaysPermutation) {
  core::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    std::array<double, 6> imp{};
    for (auto& v : imp) v = rng.uniform();
    EXPECT_TRUE(mapping::is_valid_order(order_from_importance(imp)));
  }
}

TEST(Encoding, ImportanceOrderIsLocallySmooth) {
  // A tiny perturbation that does not cross another value keeps the order:
  // the property that makes importance encoding optimizable.
  const std::array<double, 6> imp{0.9, 0.7, 0.5, 0.3, 0.2, 0.1};
  auto nudged = imp;
  nudged[2] += 0.01;
  EXPECT_EQ(order_from_importance(imp), order_from_importance(nudged));
}

TEST(Encoding, IndexOrderCoversManyPermutations) {
  std::set<std::string> seen;
  for (int i = 0; i < 720; ++i) {
    const auto order = order_from_index((i + 0.5) / 720.0);
    EXPECT_TRUE(mapping::is_valid_order(order));
    seen.insert(mapping::order_to_string(order));
  }
  EXPECT_EQ(seen.size(), 720u);  // bijective decode
}

TEST(Encoding, IndexOrderBoundaryGenes) {
  EXPECT_TRUE(mapping::is_valid_order(order_from_index(0.0)));
  EXPECT_TRUE(mapping::is_valid_order(order_from_index(1.0)));
  EXPECT_TRUE(mapping::is_valid_order(order_from_index(-0.5)));
}

TEST(Encoding, ParallelImportancePicksTopK) {
  // Fig. 3 left: importances (4,6,2,2,3,1) -> C (6) then K (4).
  const auto dims = parallel_from_importance({4, 6, 2, 2, 3, 1}, 2);
  ASSERT_EQ(dims.size(), 2u);
  EXPECT_EQ(dims[0], nn::Dim::kC);
  EXPECT_EQ(dims[1], nn::Dim::kK);
}

TEST(Encoding, ParallelImportanceDistinct) {
  core::Rng rng(7);
  for (int k = 1; k <= 3; ++k) {
    for (int i = 0; i < 100; ++i) {
      std::array<double, 6> imp{};
      for (auto& v : imp) v = rng.uniform();
      const auto dims = parallel_from_importance(imp, k);
      ASSERT_EQ(static_cast<int>(dims.size()), k);
      std::set<nn::Dim> uniq(dims.begin(), dims.end());
      EXPECT_EQ(static_cast<int>(uniq.size()), k);
    }
  }
}

TEST(Encoding, ImportanceDecodeMatchesStableSort) {
  // Both importance decoders rank dims by descending importance with ties
  // in index order: exactly std::stable_sort's result. One trial in three
  // draws from three levels, so most vectors carry ties, and one in three
  // from {+0, -0, 0.5}: +0 and -0 compare equal, so they tie too.
  core::Rng rng(29);
  for (int trial = 0; trial < 3000; ++trial) {
    std::array<double, 6> imp{};
    for (auto& v : imp) {
      switch (trial % 3) {
        case 0: v = rng.uniform(); break;
        case 1: v = 0.25 * rng.uniform_int(0, 2); break;
        default: {
          const int level = rng.uniform_int(0, 2);
          v = level == 0 ? 0.0 : level == 1 ? -0.0 : 0.5;
        }
      }
    }
    std::array<int, 6> idx{0, 1, 2, 3, 4, 5};
    std::stable_sort(idx.begin(), idx.end(), [&](int a, int b) {
      return imp[static_cast<std::size_t>(a)] >
             imp[static_cast<std::size_t>(b)];
    });
    std::array<nn::Dim, 6> expected{};
    for (std::size_t i = 0; i < 6; ++i)
      expected[i] = searchable_dims()[static_cast<std::size_t>(idx[i])];

    const auto order = order_from_importance(imp);
    EXPECT_EQ(order[0], nn::Dim::kN);
    for (std::size_t i = 0; i < 6; ++i)
      EXPECT_EQ(order[i + 1], expected[i]) << "trial " << trial;
    for (int k = 1; k <= 6; ++k) {
      const auto dims = parallel_from_importance(imp, k);
      ASSERT_EQ(static_cast<int>(dims.size()), k);
      for (std::size_t i = 0; i < dims.size(); ++i)
        EXPECT_EQ(dims[i], expected[i]) << "trial " << trial << " k " << k;
    }
  }
}

TEST(Encoding, ParallelIndexCoversArrangements) {
  std::set<std::string> seen;
  const int count = 6 * 5;  // P(6,2)
  for (int i = 0; i < count; ++i) {
    const auto dims = parallel_from_index((i + 0.5) / count, 2);
    ASSERT_EQ(dims.size(), 2u);
    EXPECT_NE(dims[0], dims[1]);
    seen.insert(std::string(nn::dim_name(dims[0])) + ">" +
                nn::dim_name(dims[1]));
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(count));
}

TEST(Encoding, HwGenomeSizes) {
  HwEncodingSpec spec;
  spec.resources = arch::nvdla_256_resources();
  EXPECT_EQ(spec.genome_size(), 13);
  spec.parallel_encoding = OrderEncoding::kIndex;
  EXPECT_EQ(spec.genome_size(), 8);
  spec.search_connectivity = false;
  EXPECT_EQ(spec.genome_size(), 5);
}

TEST(Encoding, HwDecodeStructurallyValidEverywhere) {
  HwEncodingSpec spec;
  spec.resources = arch::eyeriss_resources();
  core::Rng rng(13);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> g(static_cast<std::size_t>(spec.genome_size()));
    for (auto& v : g) v = rng.uniform();
    const arch::ArchConfig cfg = spec.decode(g);
    EXPECT_TRUE(cfg.valid()) << cfg.to_string();
    EXPECT_EQ(cfg.dram_bandwidth, spec.resources.dram_bandwidth);
    EXPECT_EQ(cfg.l1_bytes % arch::kBufferStride, 0);
    EXPECT_EQ(cfg.l2_bytes % arch::kBufferStride, 0);
    EXPECT_LE(cfg.noc_bandwidth, spec.resources.max_noc_bandwidth);
  }
}

TEST(Encoding, HwValidMatchesEnvelope) {
  HwEncodingSpec spec;
  spec.resources = arch::shidiannao_resources();
  core::Rng rng(17);
  int valid_count = 0;
  for (int i = 0; i < 300; ++i) {
    std::vector<double> g(static_cast<std::size_t>(spec.genome_size()));
    for (auto& v : g) v = rng.uniform();
    const bool v = spec.valid(g);
    EXPECT_EQ(v, spec.resources.allows(spec.decode(g)));
    valid_count += v;
  }
  // The decoder deliberately folds the envelope into the gene ranges
  // (PE-product gene, remaining-budget buffer genes) so the optimizer is
  // not fighting the constraint boundary: the vast majority of uniform
  // samples must decode valid.
  EXPECT_GT(valid_count, 270);
}

TEST(Encoding, SizingOnlyDecodeUsesFixedConnectivity) {
  HwEncodingSpec spec;
  spec.resources = arch::nvdla_1024_resources();
  spec.search_connectivity = false;
  core::Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> g(5);
    for (auto& v : g) v = rng.uniform();
    const arch::ArchConfig cfg = spec.decode(g);
    EXPECT_EQ(cfg.num_array_dims, 2);
    EXPECT_EQ(cfg.parallel_dims[0], nn::Dim::kC);
    EXPECT_EQ(cfg.parallel_dims[1], nn::Dim::kK);
    EXPECT_TRUE(cfg.valid());
  }
}

TEST(Encoding, MapGenomeSizes) {
  MapEncodingSpec spec;
  EXPECT_EQ(spec.genome_size(), 30);
  spec.order_encoding = OrderEncoding::kIndex;
  EXPECT_EQ(spec.genome_size(), 15);
  spec.search_order = false;
  EXPECT_EQ(spec.genome_size(), 12);
}

TEST(Encoding, MapDecodeAlwaysLegal) {
  const arch::ArchConfig archs[] = {arch::nvdla_256_arch(),
                                    arch::eyeriss_arch()};
  const nn::Workload layers[] = {
      nn::make_conv("c", 64, 128, 3, 1, 28),
      nn::make_dwconv("dw", 96, 3, 2, 56),
      nn::make_fc("fc", 512, 1000),
  };
  for (OrderEncoding enc :
       {OrderEncoding::kImportance, OrderEncoding::kIndex}) {
    MapEncodingSpec spec;
    spec.order_encoding = enc;
    core::Rng rng(29);
    for (const auto& arch : archs) {
      for (const auto& layer : layers) {
        for (int i = 0; i < 50; ++i) {
          std::vector<double> g(static_cast<std::size_t>(spec.genome_size()));
          for (auto& v : g) v = rng.uniform();
          const auto m = spec.decode(g, arch, layer);
          const auto rep = mapping::check(m, layer, arch);
          EXPECT_TRUE(rep.legal) << rep.reason;
        }
      }
    }
  }
}

TEST(Encoding, MapDecodeMatchesReferenceDecoder) {
  // Over a million decodes of the library decoder against ref::decode, bit
  // for bit: every unique layer of the zoo and of four OFA subnets (7x7/s2
  // and 3x3/s2 halos, depthwise, fc, matmul, attention), on seeded
  // candidates with 1, 2 and 3 array axes (one of each with a 64 B L1)
  // plus the presets, under both order encodings with search_order and
  // grow_tiles each on and off. Genomes rotate through uniform genes, genes
  // just outside [0, 1], edge values (0, 1, -0.0, 0.5), three-level ties
  // with signed zeros, and NaN tile genes.
  std::vector<nn::Workload> layers;
  {
    std::set<std::tuple<int, int, int, int, int, int, int, int, int>> seen;
    auto add = [&](const nn::Network& net) {
      for (const auto& [l, count] : net.unique_layers()) {
        if (seen.insert({static_cast<int>(l.kind), l.batch, l.out_channels,
                         l.in_channels, l.out_h, l.out_w, l.kernel_h,
                         l.kernel_w, l.stride})
                .second)
          layers.push_back(l);
      }
    };
    for (const char* name :
         {"vgg16", "resnet50", "unet", "mobilenetv2", "squeezenet", "mnasnet",
          "cifarnet", "bert_base_encoder", "vit_b16_encoder", "llm_decode",
          "llm_decode_8k"})
      add(nn::make_network(name));
    const nn::OfaSpace ofa;
    core::Rng ofa_rng(41);
    add(ofa.to_network(nn::OfaSpace::full_config()));
    for (int i = 0; i < 3; ++i) add(ofa.to_network(ofa.sample(ofa_rng)));
  }

  std::vector<arch::ArchConfig> archs = {
      arch::nvdla_256_arch(), arch::eyeriss_arch(), arch::shidiannao_arch(),
      arch::edge_tpu_arch()};
  {
    const HwEncodingSpec hw = make_hw_spec(
        arch::nvdla_1024_resources(), OrderEncoding::kImportance, true);
    core::Rng hw_rng(43);
    for (int axes = 1; axes <= 3; ++axes) {
      for (int i = 0; i < 3; ++i) {
        std::vector<double> g(static_cast<std::size_t>(hw.genome_size()));
        for (double& v : g) v = hw_rng.uniform();
        g[3] = (axes - 0.5) / 3.0;
        arch::ArchConfig cfg = hw.decode(g);
        ASSERT_EQ(cfg.num_array_dims, axes);
        if (i == 0) cfg.l1_bytes = 64;
        archs.push_back(cfg);
      }
    }
  }

  std::vector<MapEncodingSpec> specs;
  for (OrderEncoding enc : {OrderEncoding::kImportance, OrderEncoding::kIndex})
    for (bool search_order : {true, false})
      for (bool grow : {true, false}) {
        MapEncodingSpec spec;
        spec.order_encoding = enc;
        spec.search_order = search_order;
        spec.grow_tiles = grow;
        if (!search_order) spec.fixed_dataflow = arch::Dataflow::kRowStationary;
        specs.push_back(spec);
      }

  const long long combos = static_cast<long long>(layers.size() *
                                                  archs.size() * specs.size());
  const long long per_combo = (1'000'000 + combos - 1) / combos;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double edges[] = {0.0, -0.0, 1.0, 0.5, 0.25, -1e-12, 1.0 + 1e-12,
                          -std::numeric_limits<double>::denorm_min(), -0.5,
                          1.5};
  core::Rng rng(47);
  long long decodes = 0, mismatches = 0;
  std::vector<double> g;
  for (const MapEncodingSpec& spec : specs) {
    const int order_genes = !spec.search_order ? 0
                            : spec.order_encoding == OrderEncoding::kImportance
                                ? 6
                                : 1;
    auto is_tile_gene = [order_genes](int i) {
      return (i >= order_genes && i < order_genes + 6) ||
             (i >= 2 * order_genes + 6 && i < 2 * order_genes + 12);
    };
    g.resize(static_cast<std::size_t>(spec.genome_size()));
    for (const arch::ArchConfig& arch : archs) {
      for (const nn::Workload& layer : layers) {
        for (long long k = 0; k < per_combo; ++k) {
          for (int i = 0; i < static_cast<int>(g.size()); ++i) {
            double& v = g[static_cast<std::size_t>(i)];
            switch (k % 5) {
              case 0: v = rng.uniform(); break;
              case 1: v = rng.uniform(-0.05, 1.05); break;
              case 2: v = edges[rng.uniform_int(0, 9)]; break;
              case 3:
                v = 0.5 * rng.uniform_int(0, 2);
                if (v == 0.0 && rng.uniform_int(0, 1) == 1) v = -0.0;
                break;
              default:
                v = is_tile_gene(i) && rng.uniform_int(0, 2) == 0
                        ? nan
                        : rng.uniform();
            }
          }
          const mapping::Mapping got = spec.decode(g, arch, layer);
          const mapping::Mapping want = ref::decode(spec, g, arch, layer);
          ++decodes;
          if (!same_mapping(got, want) && ++mismatches <= 5) {
            ADD_FAILURE() << layer.name << " on " << arch.to_string()
                          << " genome kind " << k % 5 << "\ngot:\n"
                          << got.to_string() << "\nwant:\n"
                          << want.to_string();
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GE(decodes, 1'000'000);
}

TEST(Encoding, MapDecodeFixedOrderUsesDataflow) {
  MapEncodingSpec spec;
  spec.search_order = false;
  spec.fixed_dataflow = arch::Dataflow::kOutputStationary;
  const auto arch = arch::nvdla_256_arch();
  const nn::Workload layer = nn::make_conv("c", 32, 32, 3, 1, 14);
  std::vector<double> g(static_cast<std::size_t>(spec.genome_size()), 0.5);
  const auto m = spec.decode(g, arch, layer);
  EXPECT_EQ(m.dram.order, mapping::output_stationary_order());
  EXPECT_EQ(m.pe.order, mapping::output_stationary_order());
}

TEST(Encoding, ArchFingerprintDiscriminates) {
  const auto a = arch::nvdla_256_arch();
  auto b = a;
  EXPECT_EQ(arch_fingerprint(a), arch_fingerprint(b));
  b.l2_bytes += 16;
  EXPECT_NE(arch_fingerprint(a), arch_fingerprint(b));
  auto c = a;
  c.parallel_dims[0] = nn::Dim::kYp;
  EXPECT_NE(arch_fingerprint(a), arch_fingerprint(c));
}

}  // namespace
}  // namespace naas::search
