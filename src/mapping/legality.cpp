#include "mapping/legality.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "mapping/footprint.hpp"

namespace naas::mapping {
namespace {

constexpr std::size_t index_of(nn::Dim d) {
  return static_cast<std::size_t>(static_cast<int>(d));
}

/// True when, with the other tiles fixed, tile_footprint is affine in tile
/// `d` over [1, hi]. Each operand's footprint is a product of tile extents
/// and of the halo extents (t_Y' - 1) * min(stride, t_R) + t_R and
/// (t_X' - 1) * min(stride, t_S) + t_S, so every tile enters it linearly,
/// except R and S once they pass the stride, where min(stride, t) stops
/// growing.
bool footprint_affine(const nn::Workload& layer, std::size_t d, int hi) {
  return (d != index_of(nn::Dim::kR) && d != index_of(nn::Dim::kS)) ||
         layer.stride >= hi;
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
  return repair(std::move(m), layer, arch, TileBounds(layer, arch), priority);
}

Mapping repair(Mapping m, const nn::Workload& layer,
               const arch::ArchConfig& arch, const TileBounds& bounds,
               const ShrinkPriority& priority) {
  if (!is_valid_order(m.dram.order)) m.dram.order = default_order();
  if (!is_valid_order(m.pe.order)) m.pe.order = default_order();
  if (!is_valid_order(m.pe_order)) m.pe_order = default_order();
  const ShrinkPriority prio =
      is_valid_order(priority) ? priority : default_shrink_priority();

  // Shares are at least 1, so the clamp range is never empty.
  auto clamp_pe_tiles = [&] {
    for (std::size_t d = 0; d < m.pe.tile.size(); ++d)
      m.pe.tile[d] =
          std::clamp(m.pe.tile[d], 1, bounds.share(m.dram.tile, d));
  };
  for (std::size_t d = 0; d < m.dram.tile.size(); ++d)
    m.dram.tile[d] =
        std::clamp(m.dram.tile[d], 1, std::max(1, bounds.dim[d]));
  clamp_pe_tiles();

  // Halves the earliest-priority dim with tile > 1; returns false when all
  // tiles are already 1 (cannot shrink further).
  auto shrink_one = [&prio](TileSizes& tiles) {
    for (nn::Dim dim : prio) {
      int& t = tiles[index_of(dim)];
      if (t > 1) {
        t /= 2;
        return true;
      }
    }
    return false;
  };

  while (tile_footprint(layer, m.pe.tile).total() > arch.l1_bytes) {
    if (!shrink_one(m.pe.tile)) break;
  }
  // Halving an L2 tile only lowers the PE shares, and clamping to a lower
  // bound subsumes every clamp to a higher one, so one clamp after the loop
  // leaves the PE tiles where a clamp after each halving would.
  bool shrunk = false;
  while (tile_footprint(layer, m.dram.tile).total() > arch.l2_bytes) {
    if (!shrink_one(m.dram.tile)) break;
    shrunk = true;
  }
  if (shrunk) clamp_pe_tiles();
  return m;
}

Mapping grow_to_fit(Mapping m, const nn::Workload& layer,
                    const arch::ArchConfig& arch,
                    const ShrinkPriority& dram_priority,
                    const ShrinkPriority& pe_priority) {
  return grow_to_fit(std::move(m), layer, arch, TileBounds(layer, arch),
                     dram_priority, pe_priority);
}

Mapping grow_to_fit(Mapping m, const nn::Workload& layer,
                    const arch::ArchConfig& arch, const TileBounds& bounds,
                    const ShrinkPriority& dram_priority,
                    const ShrinkPriority& pe_priority) {
  // Grows each dim of `prio` in turn toward its bound while the footprint
  // stays within cap: to the full bound if that fits (exact bounds avoid
  // ceil-padding waste), else to the last doubling of the current tile
  // below the bound that fits. `fp` is the footprint of `tiles` throughout.
  auto grow = [&layer](TileSizes& tiles, const ShrinkPriority& prio,
                       auto bound_of, long long cap) {
    long long fp = tile_footprint(layer, tiles).total();
    for (nn::Dim dim : prio) {
      const std::size_t d = index_of(dim);
      const int bound = std::max(1, bound_of(d));
      const int cur = tiles[d];
      if (cur >= bound) continue;
      tiles[d] = bound;
      const long long fp_bound = tile_footprint(layer, tiles).total();
      if (fp_bound <= cap) {
        fp = fp_bound;
        continue;
      }
      tiles[d] = cur;
      if (footprint_affine(layer, d, bound)) {
        // The footprint is fp + slope * (t - cur) on [cur, bound], so `fit`
        // is the largest tile that fits; it lies below the bound. When the
        // current tile does not fit, neither does any doubling of it.
        if (fp > cap) continue;
        const long long slope = (fp_bound - fp) / (bound - cur);
        const long long fit = cur + (cap - fp) / slope;
        tiles[d] = cur << (std::bit_width(static_cast<unsigned long long>(
                               fit / cur)) - 1);
        fp += slope * (tiles[d] - cur);
        continue;
      }
      // The halo bends the footprint: double one step at a time. The bound
      // itself is already known not to fit.
      for (int next = cur * 2; next < bound; next *= 2) {
        tiles[d] = next;
        const long long fp_next = tile_footprint(layer, tiles).total();
        if (fp_next > cap) {
          tiles[d] = next / 2;
          break;
        }
        fp = fp_next;
      }
    }
  };
  grow(m.dram.tile, dram_priority,
       [&](std::size_t d) { return bounds.dim[d]; }, arch.l2_bytes);
  // Shares only grow when dram tiles grow, so existing pe tiles stay legal.
  grow(m.pe.tile, pe_priority,
       [&](std::size_t d) { return bounds.share(m.dram.tile, d); },
       arch.l1_bytes);
  return m;
}

}  // namespace naas::mapping
