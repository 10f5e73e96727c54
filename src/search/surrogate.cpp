#include "search/surrogate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/stats.hpp"
#include "mapping/footprint.hpp"

namespace naas::search {

double compulsory_bytes(const cost::LayerContext& ctx) {
  // Per tensor, a dimension contributes its full extent when the tensor's
  // relevance mask holds it (its trip count then multiplies the reload
  // factor, so tile * trips >= extent) and 1 otherwise (the footprint
  // still carries the tile as a factor >= 1, so dropping the dimension
  // only weakens the bound — never breaks it). The input's coupled
  // (output, kernel) spatial pairs use the identical halo extent the tile
  // footprint uses; with both dims masked the per-pair product
  // tile_halo * n_out * n_ker is minimized at full tiles, where it equals
  // the full-tensor halo extent exactly.
  const auto sel = [&](std::uint8_t mask, nn::Dim d) -> double {
    const auto i = static_cast<std::size_t>(static_cast<int>(d));
    return ((mask >> i) & 1u) != 0 ? static_cast<double>(ctx.dim_size[i])
                                   : 1.0;
  };
  const auto halo_span = [&](nn::Dim out_d, nn::Dim ker_d) -> double {
    const auto oi = static_cast<std::size_t>(static_cast<int>(out_d));
    const auto ki = static_cast<std::size_t>(static_cast<int>(ker_d));
    const bool has_out = ((ctx.input_mask >> oi) & 1u) != 0;
    const bool has_ker = ((ctx.input_mask >> ki) & 1u) != 0;
    const double out = static_cast<double>(ctx.dim_size[oi]);
    const double ker = static_cast<double>(ctx.dim_size[ki]);
    if (has_out && has_ker)
      return (out - 1.0) * std::min<double>(ctx.stride, ker) + ker;
    if (has_out) return out;
    if (has_ker) return ker;
    return 1.0;
  };
  const double bytes = static_cast<double>(mapping::kBytesPerElement);
  const double in_ch = ctx.depthwise ? sel(ctx.input_mask, nn::Dim::kK)
                                     : sel(ctx.input_mask, nn::Dim::kC);
  const double in_bytes = sel(ctx.input_mask, nn::Dim::kN) * in_ch *
                          halo_span(nn::Dim::kYp, nn::Dim::kR) *
                          halo_span(nn::Dim::kXp, nn::Dim::kS) * bytes;
  // The weight footprint multiplies by the batch tile only for
  // batch-indexed weights, so the floor may count N only in that case.
  const double w_bytes =
      (ctx.batched_weight ? sel(ctx.weight_mask, nn::Dim::kN) : 1.0) *
      sel(ctx.weight_mask, nn::Dim::kK) * sel(ctx.weight_mask, nn::Dim::kC) *
      sel(ctx.weight_mask, nn::Dim::kR) * sel(ctx.weight_mask, nn::Dim::kS) *
      bytes;
  const double out_bytes =
      sel(ctx.output_mask, nn::Dim::kN) * sel(ctx.output_mask, nn::Dim::kK) *
      sel(ctx.output_mask, nn::Dim::kYp) *
      sel(ctx.output_mask, nn::Dim::kXp) * bytes;
  return in_bytes + w_bytes + out_bytes;
}

SurrogateBound surrogate_layer_bound(const cost::LayerContext& ctx) {
  SurrogateBound b;
  if (!ctx.arch_valid || ctx.degenerate) {
    // Every mapping of such a context reports +inf EDP, so +inf is the
    // exact bound.
    b.latency_cycles = std::numeric_limits<double>::infinity();
    b.energy_nj = std::numeric_limits<double>::infinity();
    b.edp = std::numeric_limits<double>::infinity();
    return b;
  }
  // Latency: the model takes max(compute, noc, dram) + fill, and each
  // occupancy is floored by its compulsory counterpart (compute_cycles >=
  // macs/pes because per-PE iteration spaces are padded shares of the full
  // loop nest; noc/dram cycles >= compulsory bytes over the port width).
  // The fp2/dram_bw fill term is dropped (>= 0); array_depth is invariant.
  const double floor_bytes = compulsory_bytes(ctx);
  const double compute_lb = ctx.macs / ctx.pes;
  const double dram_lb = floor_bytes / ctx.dram_bw;
  const double noc_lb = floor_bytes / ctx.noc_bw;
  b.latency_cycles =
      std::max({compute_lb, dram_lb, noc_lb}) + ctx.array_depth;
  // Energy: MAC energy is mapping-invariant; the compulsory bytes are paid
  // at least once against DRAM (dram_bytes) and once against L2 (fills +
  // drains), at the context's precomputed per-byte coefficients. L1 and
  // NoC-hop energies are dropped (>= 0).
  b.energy_nj = (ctx.mac_energy_pj +
                 floor_bytes * (ctx.l2_access_pj + ctx.dram_pj_per_byte)) /
                1000.0;
  b.edp = b.energy_nj * b.latency_cycles;
  return b;
}

double surrogate_network_edp_bound(const cost::CostModel& model,
                                   const arch::ArchConfig& arch,
                                   const nn::Network& net) {
  double latency = 0.0;
  double energy = 0.0;
  for (const auto& [layer, count] : net.unique_layers()) {
    const cost::LayerContext ctx = model.make_context(arch, layer);
    const SurrogateBound b = surrogate_layer_bound(ctx);
    if (!std::isfinite(b.edp)) return std::numeric_limits<double>::infinity();
    latency += b.latency_cycles * count;
    energy += b.energy_nj * count;
  }
  return energy * latency;
}

double surrogate_geomean_edp_bound(
    const cost::CostModel& model, const arch::ArchConfig& arch,
    const std::vector<nn::Network>& benchmarks) {
  std::vector<double> bounds;
  bounds.reserve(benchmarks.size());
  for (const auto& net : benchmarks) {
    const double edp = surrogate_network_edp_bound(model, arch, net);
    if (!std::isfinite(edp)) return std::numeric_limits<double>::infinity();
    bounds.push_back(edp);
  }
  return core::geomean(bounds);
}

}  // namespace naas::search
