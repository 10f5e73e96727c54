// Cross-backend differential harness: every SIMD cost backend must be
// BYTE-IDENTICAL to the scalar reference on serialized CostReports — the
// contract that makes --cost-backend a pure throughput knob (goldens,
// stores, and search results can never depend on it). The suite fuzzes
// random (arch, layer, mapping-batch) tuples across all five layer kinds
// and asserts equality at batch sizes 1, 7, and 64, over 16 independent
// seeds per run (the CTest seed sweep multiplies that via NAAS_TEST_SEED).
//
// On hosts without a SIMD backend (no AVX2, or a -DNAAS_FORCE_SCALAR
// build) the differential tests skip; the dispatch-contract tests below
// run everywhere.

#include "cost/backend.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "arch/presets.hpp"
#include "core/rng.hpp"
#include "core/serialize.hpp"
#include "cost/cost_model.hpp"
#include "mapping/canonical.hpp"
#include "mapping/legality.hpp"
#include "nn/layer.hpp"
#include "test_seed.hpp"

namespace naas::cost {
namespace {

/// Exact byte image of a report (same encoding as test_cost_batch.cpp):
/// every double as its IEEE bit pattern, plus legality flag and reason.
std::string serialize_report(const CostReport& r) {
  core::ByteWriter w;
  w.u8(r.legal ? 1 : 0);
  w.str(r.illegal_reason);
  for (double v : {r.macs, r.compute_cycles, r.noc_cycles, r.dram_cycles,
                   r.latency_cycles, r.energy.mac_pj, r.energy.l1_pj,
                   r.energy.l2_pj, r.energy.noc_pj, r.energy.dram_pj,
                   r.energy_nj, r.edp, r.pe_utilization, r.dram_bytes,
                   r.l2_read_bytes, r.l2_write_bytes, r.l1_access_bytes,
                   r.noc_delivery_bytes, r.reduction_hop_bytes})
    w.f64(v);
  return w.bytes();
}

/// The SIMD backend kinds this build + CPU can actually run.
std::vector<BackendKind> simd_backends() {
  std::vector<BackendKind> kinds;
  if (backend_available(BackendKind::kAvx2))
    kinds.push_back(BackendKind::kAvx2);
  return kinds;
}

/// One random layer spanning all five kinds: conv, depthwise conv, FC,
/// matmul, and attention (both score and context shapes).
nn::Workload random_layer_any_kind(core::Rng& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0: {
      const int kernel = 1 + 2 * rng.uniform_int(0, 2);
      return nn::make_conv("cv", rng.uniform_int(1, 64),
                           rng.uniform_int(1, 64), kernel,
                           rng.uniform_int(1, 2), rng.uniform_int(1, 28),
                           rng.uniform_int(1, 2));
    }
    case 1: {
      const int kernel = 1 + 2 * rng.uniform_int(0, 2);
      return nn::make_dwconv("dw", rng.uniform_int(1, 96), kernel,
                             rng.uniform_int(1, 2), rng.uniform_int(1, 28),
                             rng.uniform_int(1, 2));
    }
    case 2:
      return nn::make_fc("fc", rng.uniform_int(1, 512),
                         rng.uniform_int(1, 512), rng.uniform_int(1, 4));
    case 3:
      return nn::make_matmul("mm", rng.uniform_int(1, 256),
                             rng.uniform_int(1, 512),
                             rng.uniform_int(1, 512), rng.uniform_int(1, 4));
    case 4:
      return nn::make_attention_scores("qk", rng.uniform_int(1, 128),
                                       rng.uniform_int(1, 128),
                                       rng.uniform_int(1, 96),
                                       rng.uniform_int(1, 8),
                                       rng.uniform_int(1, 2));
    default:
      return nn::make_attention_context("av", rng.uniform_int(1, 128),
                                        rng.uniform_int(1, 128),
                                        rng.uniform_int(1, 96),
                                        rng.uniform_int(1, 8),
                                        rng.uniform_int(1, 2));
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
  const nn::Dim dims[] = {nn::Dim::kK,  nn::Dim::kC, nn::Dim::kYp,
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

mapping::LoopOrder random_order(core::Rng& rng, bool allow_invalid) {
  std::vector<nn::Dim> dims;
  for (nn::Dim d : nn::all_dims()) dims.push_back(d);
  rng.shuffle(dims);
  mapping::LoopOrder order;
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = dims[i];
  if (allow_invalid && rng.bernoulli(0.1)) order[0] = order[1];  // duplicate
  return order;
}

/// Candidate generator mixing repaired-legal, perturbed, out-of-range, and
/// malformed-order mappings, so the differential batches exercise the
/// legality short-circuits and live-slot compaction alongside the SIMD
/// lanes (the compaction is what makes lane grouping non-trivial).
mapping::Mapping random_candidate(core::Rng& rng, const arch::ArchConfig& arch,
                                  const nn::Workload& layer) {
  mapping::Mapping m;
  m.dram.order = random_order(rng, true);
  m.pe.order = random_order(rng, true);
  m.pe_order = random_order(rng, true);
  for (nn::Dim d : nn::all_dims()) {
    const int bound = layer.dim_size(d);
    mapping::set_tile(m.dram.tile, d, rng.uniform_int(0, 2 * bound));
    mapping::set_tile(m.pe.tile, d, rng.uniform_int(0, bound + 1));
  }
  if (rng.bernoulli(0.5)) m = mapping::repair(m, layer, arch);
  return m;
}

/// Asserts scalar-vs-`kind` byte equality for one (arch, layer, batch)
/// tuple at every required batch size.
void expect_backends_identical(BackendKind kind, const arch::ArchConfig& arch,
                               const nn::Workload& layer,
                               const std::vector<mapping::Mapping>& cands,
                               const char* tag) {
  const CostModel scalar_model(EnergyModel{}, BackendKind::kScalar);
  const CostModel simd_model(EnergyModel{}, kind);
  ASSERT_STREQ("scalar", scalar_model.backend_name());
  ASSERT_EQ(kind, simd_model.backend_kind());

  const LayerContext scalar_ctx = scalar_model.make_context(arch, layer);
  const LayerContext simd_ctx = simd_model.make_context(arch, layer);
  for (std::size_t batch_size : {std::size_t{1}, std::size_t{7},
                                 std::size_t{64}}) {
    std::vector<CostReport> ref(cands.size()), got(cands.size());
    for (std::size_t lo = 0; lo < cands.size(); lo += batch_size) {
      const std::size_t len = std::min(batch_size, cands.size() - lo);
      const auto maps =
          std::span<const mapping::Mapping>(cands).subspan(lo, len);
      scalar_model.evaluate_batch(scalar_ctx, maps,
                                  std::span<CostReport>(ref).subspan(lo, len));
      simd_model.evaluate_batch(simd_ctx, maps,
                                std::span<CostReport>(got).subspan(lo, len));
    }
    for (std::size_t i = 0; i < cands.size(); ++i)
      ASSERT_EQ(serialize_report(ref[i]), serialize_report(got[i]))
          << tag << ": layer " << layer.to_string() << " candidate " << i
          << " diverged on backend '" << backend_kind_name(kind)
          << "' at batch size " << batch_size
          << " (scalar legal=" << ref[i].legal << ", simd legal="
          << got[i].legal << ", reason='" << got[i].illegal_reason << "')";
  }
}

// ---------------------------------------------------- differential fuzz

TEST(BackendDifferential, RandomTuplesAllKindsAllBatchSizes) {
  const auto kinds = simd_backends();
  if (kinds.empty())
    GTEST_SKIP() << "no SIMD cost backend available on this build/CPU";
  // 16 base seeds per run; each drives several random (arch, layer, batch)
  // tuples. NAAS_TEST_SEED shifts all 16 to fresh streams.
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    core::Rng rng(test::sweep_seed(0xD1FFu * 1000 + seed));
    for (int round = 0; round < 6; ++round) {
      const nn::Workload layer = random_layer_any_kind(rng);
      const arch::ArchConfig arch = random_arch(rng);
      std::vector<mapping::Mapping> cands;
      for (int i = 0; i < 64; ++i)
        cands.push_back(random_candidate(rng, arch, layer));
      for (BackendKind kind : kinds)
        expect_backends_identical(kind, arch, layer, cands, "fuzz");
    }
  }
}

TEST(BackendDifferential, EveryLayerKindCoveredExplicitly) {
  // The fuzz loop samples kinds randomly; this pins one deterministic
  // workload per kind so a regression names the kind in its test line.
  const auto kinds = simd_backends();
  if (kinds.empty())
    GTEST_SKIP() << "no SIMD cost backend available on this build/CPU";
  const nn::Workload layers[] = {
      nn::make_conv("cv", 64, 64, 3, 1, 28, 2),
      nn::make_dwconv("dw", 96, 3, 1, 14, 2),
      nn::make_fc("fc", 512, 1000, 4),
      nn::make_matmul("mm", 128, 768, 3072, 4),
      nn::make_attention_scores("qk", 128, 128, 64, 12, 2),
      nn::make_attention_context("av", 128, 128, 64, 12, 2),
  };
  core::Rng rng(test::sweep_seed(0xBEEF));
  for (const nn::Workload& layer : layers) {
    const arch::ArchConfig arch = arch::nvdla_256_arch();
    std::vector<mapping::Mapping> cands;
    cands.push_back(mapping::canonical_mapping(arch, layer));
    for (int i = 0; i < 63; ++i)
      cands.push_back(random_candidate(rng, arch, layer));
    for (BackendKind kind : kinds)
      expect_backends_identical(kind, arch, layer, cands, "kind-pinned");
  }
}

// ------------------------------------------- degenerate archs under SIMD

TEST(BackendDifferential, DegenerateArchsAgreeWithScalar) {
  const auto kinds = simd_backends();
  if (kinds.empty())
    GTEST_SKIP() << "no SIMD cost backend available on this build/CPU";
  core::Rng rng(test::sweep_seed(0xDE6E));

  // PE-count overflow: a plausibly-sized request whose product overflows
  // the int PE budget must fail identically through every backend.
  arch::ArchConfig overflow = arch::nvdla_256_arch();
  overflow.array_dims[0] = 65536;
  overflow.array_dims[1] = 65536;

  // Non-positive DRAM bandwidth: the divide-by-bandwidth stages must be
  // gated out before any lane arithmetic could produce an inf/NaN.
  arch::ArchConfig zero_bw = arch::nvdla_256_arch();
  zero_bw.dram_bandwidth = 0;

  const nn::Workload conv = nn::make_conv("cv", 32, 32, 3, 1, 14);
  for (const arch::ArchConfig& arch : {overflow, zero_bw}) {
    std::vector<mapping::Mapping> cands;
    for (int i = 0; i < 64; ++i)
      cands.push_back(random_candidate(rng, arch, conv));
    for (BackendKind kind : kinds)
      expect_backends_identical(kind, arch, conv, cands, "degenerate-arch");
  }
}

TEST(BackendDifferential, PinnedGemmDimsRejectIdentically) {
  // Matmul/attention pin Xp/R/S to extent 1; tiles > 1 on a pinned dim
  // must take the illegal path with the same reason on every backend, and
  // the surviving lanes must still compact identically around them.
  const auto kinds = simd_backends();
  if (kinds.empty())
    GTEST_SKIP() << "no SIMD cost backend available on this build/CPU";
  const nn::Workload mm = nn::make_matmul("mm", 64, 128, 256, 2);
  const arch::ArchConfig arch = arch::nvdla_256_arch();
  core::Rng rng(test::sweep_seed(0x6E44));

  std::vector<mapping::Mapping> cands;
  for (int i = 0; i < 64; ++i) {
    mapping::Mapping m = random_candidate(rng, arch, mm);
    if (i % 2 == 0) {
      // Force a pinned-dim violation on half the batch.
      const nn::Dim pinned[] = {nn::Dim::kXp, nn::Dim::kR, nn::Dim::kS};
      mapping::set_tile(m.dram.tile, pinned[i % 3], 2 + (i % 5));
    }
    cands.push_back(m);
  }
  for (BackendKind kind : kinds)
    expect_backends_identical(kind, arch, mm, cands, "pinned-gemm");
}

// ---------------------------------------------------- dispatch contract

TEST(BackendDispatch, ScalarIsAlwaysAvailable) {
  EXPECT_TRUE(backend_available(BackendKind::kScalar));
  EXPECT_TRUE(backend_available(BackendKind::kAuto));
  EXPECT_EQ(&scalar_backend(), backend_for(BackendKind::kScalar));
  EXPECT_STREQ("scalar", scalar_backend().name());
}

TEST(BackendDispatch, AutoResolvesToAnAvailableBackend) {
  const BackendKind resolved = resolve_backend(BackendKind::kAuto);
  EXPECT_NE(BackendKind::kAuto, resolved);
  EXPECT_TRUE(backend_available(resolved));
  // auto prefers SIMD whenever any SIMD backend exists.
  if (!simd_backends().empty())
    EXPECT_NE(BackendKind::kScalar, resolved);
  else
    EXPECT_EQ(BackendKind::kScalar, resolved);
}

TEST(BackendDispatch, UnavailableExplicitRequestFallsBackToScalar) {
  if (!backend_available(BackendKind::kAvx2))
    EXPECT_EQ(BackendKind::kScalar, resolve_backend(BackendKind::kAvx2));
}

TEST(BackendDispatch, KindNamesRoundTrip) {
  for (BackendKind k :
       {BackendKind::kScalar, BackendKind::kAvx2, BackendKind::kAuto}) {
    const auto parsed = parse_backend_kind(backend_kind_name(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(k, *parsed);
  }
  EXPECT_FALSE(parse_backend_kind("").has_value());
  EXPECT_FALSE(parse_backend_kind("avx512").has_value());
  EXPECT_FALSE(parse_backend_kind("neon").has_value());
  EXPECT_FALSE(parse_backend_kind("Scalar").has_value());
}

TEST(BackendDispatch, ModelReportsItsResolvedBackend) {
  const CostModel scalar_model(EnergyModel{}, BackendKind::kScalar);
  EXPECT_EQ(BackendKind::kScalar, scalar_model.backend_kind());
  EXPECT_STREQ("scalar", scalar_model.backend_name());

  CostModel auto_model(EnergyModel{}, BackendKind::kAuto);
  EXPECT_NE(BackendKind::kAuto, auto_model.backend_kind());
  EXPECT_TRUE(backend_available(auto_model.backend_kind()));

  auto_model.set_backend(BackendKind::kScalar);
  EXPECT_STREQ("scalar", auto_model.backend_name());
}

}  // namespace
}  // namespace naas::cost
