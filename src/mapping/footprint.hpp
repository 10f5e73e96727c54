#pragma once

#include <algorithm>

#include "mapping/mapping.hpp"
#include "nn/layer.hpp"

namespace naas::mapping {

/// Element size in bytes. The model uses int8 inference (1 byte per
/// activation/weight element); partial sums are also counted at 1 byte so
/// that capacities match the paper's byte-denominated buffer sizes.
inline constexpr int kBytesPerElement = 1;

/// Byte footprints of one tile of each operand.
struct TileFootprint {
  long long input = 0;
  long long weight = 0;
  long long output = 0;

  long long total() const { return input + weight + output; }
};

/// Footprint of a tile with extents `tile` of `layer`'s iteration space.
/// Input footprint accounts for the stride/kernel halo
/// ((t_Y'-1)*stride + t_R rows, similarly for columns) and for depthwise
/// layers walks channels with K. Tile extents are clamped to the layer's
/// dimension sizes.
inline TileFootprint tile_footprint(const nn::Workload& layer,
                                    const TileSizes& tile) {
  auto t = [&](nn::Dim d) {
    return std::max(1, std::min(tile_of(tile, d), layer.dim_size(d)));
  };
  const long long tn = t(nn::Dim::kN);
  const long long tk = t(nn::Dim::kK);
  const long long tc = t(nn::Dim::kC);
  const long long typ = t(nn::Dim::kYp);
  const long long txp = t(nn::Dim::kXp);
  const long long tr = t(nn::Dim::kR);
  const long long ts = t(nn::Dim::kS);

  // Distinct input rows/cols read by the tile: consecutive outputs advance
  // by min(stride, kernel-extent) — when stride exceeds the kernel rows in
  // the tile, skipped input rows are never fetched.
  const long long in_rows =
      (typ - 1) * std::min<long long>(layer.stride, tr) + tr;
  const long long in_cols =
      (txp - 1) * std::min<long long>(layer.stride, ts) + ts;
  // Depthwise layers have C == 1 in the loop nest; their input channels are
  // walked by the K loop instead.
  const long long in_ch =
      layer.kind == nn::LayerKind::kDepthwiseConv ? tk : tc;

  // Attention's second operand (K^T / V) is an activation indexed by the
  // batch x head loop, so its tile scales with tn; all other kinds
  // multiply by 1, keeping the pre-refactor bytes integer-identical.
  const long long w_batch =
      layer.kind == nn::LayerKind::kAttention ? tn : 1;

  TileFootprint fp;
  fp.input = tn * in_ch * in_rows * in_cols * kBytesPerElement;
  fp.weight = w_batch * tk * tc * tr * ts * kBytesPerElement;
  fp.output = tn * tk * typ * txp * kBytesPerElement;
  return fp;
}

}  // namespace naas::mapping
