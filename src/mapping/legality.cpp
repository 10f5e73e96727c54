#include "mapping/legality.hpp"

#include <algorithm>

#include "mapping/footprint.hpp"

namespace naas::mapping {
namespace {

/// Clamps every tile to [1, bound(d)].
template <typename BoundFn>
void clamp_tiles(TileSizes& tiles, BoundFn bound) {
  for (nn::Dim d : nn::all_dims()) {
    const int b = std::max(1, bound(d));
    set_tile(tiles, d, std::clamp(tile_of(tiles, d), 1, b));
  }
}

}  // namespace

std::string reason_dram_tile_range(nn::Dim d) {
  return std::string("dram tile out of range for ") + nn::dim_name(d);
}

std::string reason_pe_tile_share(nn::Dim d) {
  return std::string("pe tile exceeds share for ") + nn::dim_name(d);
}

std::string reason_l1_overflow(long long footprint, long long capacity) {
  return "per-PE tile overflows L1 (" + std::to_string(footprint) + "B > " +
         std::to_string(capacity) + "B)";
}

std::string reason_l2_overflow(long long footprint, long long capacity) {
  return "L2 tile overflows L2 (" + std::to_string(footprint) + "B > " +
         std::to_string(capacity) + "B)";
}

LegalityReport check(const Mapping& m, const nn::Workload& layer,
                     const arch::ArchConfig& arch) {
  if (!is_valid_order(m.dram.order)) return {false, kReasonDramOrder};
  if (!is_valid_order(m.pe.order)) return {false, kReasonPeOrder};
  if (!is_valid_order(m.pe_order)) return {false, kReasonRegisterOrder};
  for (nn::Dim d : nn::all_dims()) {
    const int t2 = tile_of(m.dram.tile, d);
    if (t2 < 1 || t2 > layer.dim_size(d))
      return {false, reason_dram_tile_range(d)};
    const int t1 = tile_of(m.pe.tile, d);
    const int share = pe_share(layer, arch, m.dram.tile, d);
    if (t1 < 1 || t1 > share) return {false, reason_pe_tile_share(d)};
  }
  const auto l1_fp = tile_footprint(layer, m.pe.tile);
  if (l1_fp.total() > arch.l1_bytes)
    return {false, reason_l1_overflow(l1_fp.total(), arch.l1_bytes)};
  const auto l2_fp = tile_footprint(layer, m.dram.tile);
  if (l2_fp.total() > arch.l2_bytes)
    return {false, reason_l2_overflow(l2_fp.total(), arch.l2_bytes)};
  return {true, ""};
}

ShrinkPriority default_shrink_priority() {
  return {nn::Dim::kXp, nn::Dim::kYp, nn::Dim::kN, nn::Dim::kK,
          nn::Dim::kC,  nn::Dim::kS,  nn::Dim::kR};
}

Mapping repair(Mapping m, const nn::Workload& layer,
               const arch::ArchConfig& arch, const ShrinkPriority& priority) {
  if (!is_valid_order(m.dram.order)) m.dram.order = default_order();
  if (!is_valid_order(m.pe.order)) m.pe.order = default_order();
  if (!is_valid_order(m.pe_order)) m.pe_order = default_order();
  const ShrinkPriority prio =
      is_valid_order(priority) ? priority : default_shrink_priority();

  clamp_tiles(m.dram.tile, [&](nn::Dim d) { return layer.dim_size(d); });
  clamp_tiles(m.pe.tile,
              [&](nn::Dim d) { return pe_share(layer, arch, m.dram.tile, d); });

  // Halves the earliest-priority dim with tile > 1; returns false when all
  // tiles are already 1 (cannot shrink further).
  auto shrink_one = [&prio](TileSizes& tiles) {
    for (nn::Dim d : prio) {
      const int t = tile_of(tiles, d);
      if (t > 1) {
        set_tile(tiles, d, t / 2);
        return true;
      }
    }
    return false;
  };

  while (tile_footprint(layer, m.pe.tile).total() > arch.l1_bytes) {
    if (!shrink_one(m.pe.tile)) break;
  }
  while (tile_footprint(layer, m.dram.tile).total() > arch.l2_bytes) {
    if (!shrink_one(m.dram.tile)) break;
    clamp_tiles(m.pe.tile, [&](nn::Dim d) {
      return pe_share(layer, arch, m.dram.tile, d);
    });
  }
  return m;
}

Mapping grow_to_fit(Mapping m, const nn::Workload& layer,
                    const arch::ArchConfig& arch,
                    const ShrinkPriority& dram_priority,
                    const ShrinkPriority& pe_priority) {
  // Doubles tiles[d] toward bound(d) while footprint stays within cap,
  // trying the full bound first (exact bounds avoid ceil-padding waste).
  auto grow = [&layer](TileSizes& tiles, const ShrinkPriority& prio,
                       auto bound_fn, long long cap) {
    for (nn::Dim d : prio) {
      const int bound = std::max(1, bound_fn(d));
      int cur = tile_of(tiles, d);
      if (cur >= bound) continue;
      set_tile(tiles, d, bound);
      if (tile_footprint(layer, tiles).total() <= cap) continue;
      set_tile(tiles, d, cur);
      while (cur < bound) {
        const int next = std::min(bound, cur * 2);
        set_tile(tiles, d, next);
        if (tile_footprint(layer, tiles).total() > cap) {
          set_tile(tiles, d, cur);
          break;
        }
        cur = next;
      }
    }
  };
  grow(m.dram.tile, dram_priority,
       [&](nn::Dim d) { return layer.dim_size(d); }, arch.l2_bytes);
  // Shares only grow when dram tiles grow, so existing pe tiles stay legal.
  grow(m.pe.tile, pe_priority,
       [&](nn::Dim d) { return pe_share(layer, arch, m.dram.tile, d); },
       arch.l1_bytes);
  return m;
}

}  // namespace naas::mapping
