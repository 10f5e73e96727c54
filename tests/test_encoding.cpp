#include "search/encoding.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/rng.hpp"
#include "mapping/canonical.hpp"
#include "mapping/legality.hpp"

namespace naas::search {
namespace {

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
  // in index order: exactly std::stable_sort's result. Every other trial
  // draws from three levels, so most vectors carry ties.
  core::Rng rng(29);
  for (int trial = 0; trial < 2000; ++trial) {
    std::array<double, 6> imp{};
    for (auto& v : imp)
      v = trial % 2 == 0 ? rng.uniform() : 0.25 * rng.uniform_int(0, 2);
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
