#pragma once

#include <array>
#include <string>

#include "nn/layer.hpp"

namespace naas::mapping {

/// Loop order over the seven workload dimensions, outermost first. Must be
/// a permutation of all_dims().
using LoopOrder = std::array<nn::Dim, nn::kNumDims>;

/// True if `order` contains each dimension exactly once.
bool is_valid_order(const LoopOrder& order);

/// The canonical order N,K,C,Y',X',R,S.
LoopOrder default_order();

/// Tile sizes indexed by static_cast<int>(Dim).
using TileSizes = std::array<int, nn::kNumDims>;

/// Convenience accessors for TileSizes by Dim.
inline int tile_of(const TileSizes& t, nn::Dim d) {
  return t[static_cast<std::size_t>(static_cast<int>(d))];
}
inline void set_tile(TileSizes& t, nn::Dim d, int v) {
  t[static_cast<std::size_t>(static_cast<int>(d))] = v;
}

/// One temporal tiling level: the order in which tiles are visited and the
/// tile size along each dimension at this level.
struct LevelMapping {
  LoopOrder order = default_order();
  TileSizes tile{1, 1, 1, 1, 1, 1, 1};
};

/// A complete compiler mapping for one layer on one accelerator, mirroring
/// the paper's mapping encoding vector (Fig. 2):
///  - `dram`: DRAM->L2 level. `dram.tile[d]` is the L2 tile size along `d`;
///    `dram.order` is the order L2 tiles stream from DRAM (drives DRAM
///    traffic via the reuse analysis).
///  - `pe`: L2->L1 level. `pe.tile[d]` is the per-PE L1 tile; `pe.order`
///    is the order each PE walks its share of the L2 tile (drives L2/NoC
///    traffic). The spatial partitioning between these two levels is given
///    by the accelerator's parallel dims and is not part of the mapping.
///  - `pe_order`: loop order *inside* the L1 tile (the PE executes one MAC
///    per cycle; only order is searchable here, per Section II-B, since a
///    PE holds a single MAC).
struct Mapping {
  LevelMapping dram;
  LevelMapping pe;
  LoopOrder pe_order = default_order();

  /// Multi-line human-readable description.
  std::string to_string() const;
};

/// Renders an order like "K>C>Y'>X'>R>S>N".
std::string order_to_string(const LoopOrder& order);

}  // namespace naas::mapping
