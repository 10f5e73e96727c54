#pragma once

#include <vector>

#include "arch/accelerator.hpp"
#include "cost/cost_model.hpp"
#include "nn/network.hpp"

namespace naas::search {

/// Roofline lower bound for one (accelerator, layer) pair. Exact by
/// construction: every term is provably <= the corresponding term of the
/// cost model's report for EVERY legal mapping, so it bounds the best
/// cost any mapping search can find without running one.
struct SurrogateBound {
  double latency_cycles = 0;  ///< max(compute, NoC, DRAM floor) + fill
  double energy_nj = 0;       ///< MAC energy + compulsory-traffic energy
  double edp = 0;             ///< energy_nj * latency_cycles
};

/// Bytes every legal mapping moves across the DRAM port at least once:
/// the input (with its exact halo extent), weight and output floors of
/// the context's layer, from its relevance masks and dim sizes.
double compulsory_bytes(const cost::LayerContext& ctx);

/// Computes the per-layer roofline bound from the context's invariants:
///  - compute floor: macs / pes (the padded per-PE iteration space is at
///    least the ideal work split at 1 MAC/cycle);
///  - DRAM floor: compulsory_bytes / dram_bw (every operand crosses the
///    DRAM port at least once);
///  - NoC floor: compulsory_bytes / noc_bw (compulsory DRAM fills are L2
///    writes and compulsory drains are L2 reads, both on the NoC port);
///  - plus the array_depth pipeline-fill term the model always adds.
/// Energy keeps the always-paid terms only: MAC energy plus the compulsory
/// bytes paid once at L2 and once at DRAM. Invalid or degenerate contexts
/// (whose true cost is +inf for every mapping) return +inf bounds.
SurrogateBound surrogate_layer_bound(const cost::LayerContext& ctx);

/// Network-level EDP bound: count-weighted sums of the per-unique-layer
/// latency and energy bounds, multiplied — termwise <= the true
/// NetworkCost sums, so the product bounds the true network EDP. Returns
/// +inf if any layer's context is invalid/degenerate.
double surrogate_network_edp_bound(const cost::CostModel& model,
                                   const arch::ArchConfig& arch,
                                   const nn::Network& net);

/// Geomean of the per-network EDP bounds over a benchmark set — the
/// surrogate mirror of ArchEvaluator's geomean-EDP reward, and <= it for
/// every candidate (geomean is monotone in each argument). +inf if any
/// network bound is +inf.
double surrogate_geomean_edp_bound(const cost::CostModel& model,
                                   const arch::ArchConfig& arch,
                                   const std::vector<nn::Network>& benchmarks);

}  // namespace naas::search
