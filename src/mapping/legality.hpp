#pragma once

#include <algorithm>
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

/// Per-PE temporal share along `d` after spatial partitioning of the L2
/// tile: ceil(dram_tile[d] / parallel_extent(d)), at least 1.
inline int pe_share(const nn::Workload& layer, const arch::ArchConfig& arch,
                    const TileSizes& dram_tile, nn::Dim d) {
  const int t2 = std::clamp(tile_of(dram_tile, d), 1, layer.dim_size(d));
  const int extent = arch.parallel_extent(d);
  return std::max(1, (t2 + extent - 1) / extent);
}

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

/// Greedily grows a legal mapping's tiles toward the buffer capacities:
/// dims earlier in `dram_priority` / `pe_priority` are doubled first (capped
/// at their bound) while the L2 / L1 footprints still fit. Larger tiles are
/// never worse in the analytical model (fewer refetch phases, same L1
/// traffic), so decoders call this to map every genome into the productive
/// region of the tiling space; the genes retain control over *which* dims
/// receive the buffer capacity. Requires `m` to be legal.
Mapping grow_to_fit(Mapping m, const nn::Workload& layer,
                    const arch::ArchConfig& arch,
                    const ShrinkPriority& dram_priority,
                    const ShrinkPriority& pe_priority);

}  // namespace naas::mapping
