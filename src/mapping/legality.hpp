#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <string>

#include "arch/accelerator.hpp"
#include "mapping/mapping.hpp"
#include "nn/layer.hpp"

namespace naas::mapping {

/// Result of a mapping legality check.
struct LegalityReport {
  bool legal = true;
  std::string reason;  ///< empty when legal
};

/// Per-PE temporal share of an L2 tile extent `t2` along a dim of size
/// `dim` spread over `extent` PEs: ceil(clamp(t2, 1, dim) / extent), at
/// least 1.
inline int pe_share(int t2, int dim, int extent) {
  return std::max(1, (std::clamp(t2, 1, dim) + extent - 1) / extent);
}

/// Per-PE temporal share along `d` after spatial partitioning of the L2
/// tile: ceil(dram_tile[d] / parallel_extent(d)), at least 1.
inline int pe_share(const nn::Workload& layer, const arch::ArchConfig& arch,
                    const TileSizes& dram_tile, nn::Dim d) {
  return pe_share(tile_of(dram_tile, d), layer.dim_size(d),
                  arch.parallel_extent(d));
}

/// A layer's tile bounds on one accelerator, indexed like TileSizes: the
/// dim sizes and the parallel extents. `repair`, `grow_to_fit` and the
/// mapping decoder build it once per call and read every tile bound and PE
/// share from it, instead of a Workload::dim_size switch and an
/// ArchConfig::parallel_extent scan per tile.
struct TileBounds {
  TileBounds(const nn::Workload& layer, const arch::ArchConfig& arch) {
    for (nn::Dim d : nn::all_dims()) {
      const auto i = static_cast<std::size_t>(static_cast<int>(d));
      dim[i] = layer.dim_size(d);
      extent[i] = arch.parallel_extent(d);
    }
  }

  /// pe_share along dim index `i`.
  int share(const TileSizes& dram_tile, std::size_t i) const {
    return pe_share(dram_tile[i], dim[i], extent[i]);
  }

  std::array<int, nn::kNumDims> dim{};     ///< layer.dim_size
  std::array<int, nn::kNumDims> extent{};  ///< arch.parallel_extent
};

/// Checks structural validity (orders are permutations, tiles within
/// [1, bound]) and capacity (per-PE tile fits L1, L2 tile fits L2).
LegalityReport check(const Mapping& m, const nn::Workload& layer,
                     const arch::ArchConfig& arch);

/// Reason strings shared by `check` and the batched legality pass inside
/// cost::CostModel::evaluate_batch (which replays the same check sequence
/// against precomputed per-layer bounds). One formatter per failure mode
/// keeps the two implementations byte-identical on reported reasons —
/// tests/test_cost_batch.cpp asserts exactly that.
inline constexpr const char* kReasonDramOrder =
    "dram order not a permutation";
inline constexpr const char* kReasonPeOrder = "pe order not a permutation";
inline constexpr const char* kReasonRegisterOrder =
    "register order not a permutation";
std::string reason_dram_tile_range(nn::Dim d);
std::string reason_pe_tile_share(nn::Dim d);
std::string reason_l1_overflow(long long footprint, long long capacity);
std::string reason_l2_overflow(long long footprint, long long capacity);

/// Order in which dimensions are shrunk when a tile overflows a buffer.
/// Dimensions earlier in the list are halved first; the list must be a
/// permutation of all dims.
using ShrinkPriority = LoopOrder;

/// Default shrink priority: spatial output dims first (cheapest reuse loss),
/// kernel dims last.
ShrinkPriority default_shrink_priority();

/// Repairs `m` into a legal mapping for (layer, arch):
///  1. replaces invalid orders with default_order();
///  2. clamps dram tiles to [1, dim], pe tiles to [1, share];
///  3. while the per-PE tile overflows L1, halves the earliest
///     shrink-priority dim with pe tile > 1;
///  4. while the L2 tile overflows L2, halves the earliest priority dim
///     with dram tile > 1 (re-clamping the pe tile to the new share).
/// Always terminates with a legal mapping (an all-ones tile fits any
/// positive buffer).
Mapping repair(Mapping m, const nn::Workload& layer,
               const arch::ArchConfig& arch,
               const ShrinkPriority& priority = default_shrink_priority());

/// `repair` with (layer, arch)'s bounds already built; `bounds` must be
/// TileBounds(layer, arch). The overload above builds them and forwards.
Mapping repair(Mapping m, const nn::Workload& layer,
               const arch::ArchConfig& arch, const TileBounds& bounds,
               const ShrinkPriority& priority = default_shrink_priority());

/// Greedily grows a legal mapping's tiles toward the buffer capacities:
/// dims earlier in `dram_priority` / `pe_priority` are doubled first (capped
/// at their bound) while the L2 / L1 footprints still fit. Larger tiles are
/// never worse in the analytical model (fewer refetch phases, same L1
/// traffic), so decoders call this to map every genome into the productive
/// region of the tiling space; the genes retain control over *which* dims
/// receive the buffer capacity. Requires `m` to be legal. Each dim takes
/// its full bound if that fits, else the last doubling cur * 2^j below the
/// bound that fits.
Mapping grow_to_fit(Mapping m, const nn::Workload& layer,
                    const arch::ArchConfig& arch,
                    const ShrinkPriority& dram_priority,
                    const ShrinkPriority& pe_priority);

/// `grow_to_fit` with (layer, arch)'s bounds already built; `bounds` must
/// be TileBounds(layer, arch). The overload above builds them and forwards.
Mapping grow_to_fit(Mapping m, const nn::Workload& layer,
                    const arch::ArchConfig& arch, const TileBounds& bounds,
                    const ShrinkPriority& dram_priority,
                    const ShrinkPriority& pe_priority);

}  // namespace naas::mapping
