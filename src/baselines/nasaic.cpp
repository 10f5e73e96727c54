#include "baselines/nasaic.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

#include "arch/presets.hpp"
#include "core/serialize.hpp"
#include "core/thread_pool.hpp"
#include "mapping/canonical.hpp"
#include "search/encoding.hpp"
#include "search/eval_cache.hpp"
#include "search/result_store.hpp"

namespace naas::baselines {
namespace {

/// Distinguishes NASAIC's canonical-mapping entries from ArchEvaluator's
/// mapping-search entries when both live in one store file.
constexpr std::uint64_t kNasaicKeyTag = 0x6e61736169632e31ULL;  // "nasaic.1"

std::uint64_t nasaic_key(const arch::ArchConfig& ip,
                         const nn::Workload& layer) {
  std::uint64_t h = kNasaicKeyTag;
  h = core::hash_mix(h, search::arch_fingerprint(ip));
  h = core::hash_mix(h, nn::LayerShapeHash{}(layer));
  return h;
}

/// Builds a DLA-style (C x K weight-stationary) IP with `pes` PEs.
arch::ArchConfig make_dla_ip(int pes, long long onchip, int bandwidth,
                             int dram_bw) {
  arch::ArchConfig cfg;
  cfg.name = "NASAIC-DLA";
  cfg.num_array_dims = 2;
  const int rows = std::max(2, static_cast<int>(std::sqrt(pes)) / 2 * 2);
  cfg.array_dims = {rows, std::max(2, pes / rows / 2 * 2), 1};
  cfg.parallel_dims = {nn::Dim::kC, nn::Dim::kK, nn::Dim::kXp};
  cfg.l1_bytes = 256;
  cfg.l2_bytes = std::max<long long>(16 * 1024,
                                     onchip - cfg.l1_bytes * cfg.num_pes());
  cfg.noc_bandwidth = std::max(8, bandwidth);
  cfg.dram_bandwidth = dram_bw;
  return cfg;
}

/// Builds a ShiDianNao-style (X' x Y' output-stationary) IP.
arch::ArchConfig make_shi_ip(int pes, long long onchip, int bandwidth,
                             int dram_bw) {
  arch::ArchConfig cfg;
  cfg.name = "NASAIC-Shi";
  cfg.num_array_dims = 2;
  const int rows = std::max(2, static_cast<int>(std::sqrt(pes)) / 2 * 2);
  cfg.array_dims = {rows, std::max(2, pes / rows / 2 * 2), 1};
  cfg.parallel_dims = {nn::Dim::kXp, nn::Dim::kYp, nn::Dim::kC};
  cfg.l1_bytes = 256;
  cfg.l2_bytes = std::max<long long>(16 * 1024,
                                     onchip - cfg.l1_bytes * cfg.num_pes());
  cfg.noc_bandwidth = std::max(8, bandwidth);
  cfg.dram_bandwidth = dram_bw;
  return cfg;
}

}  // namespace

std::string NasaicResult::to_string() const {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "DLA %d PEs (bw %d) + Shi %d PEs (bw %d): latency %.3g cyc, "
                "energy %.3g nJ, EDP %.3g (%d/%d layers on DLA/Shi)",
                dla_pes, dla_bandwidth, shi_pes, shi_bandwidth,
                latency_cycles, energy_nj, edp, layers_on_dla, layers_on_shi);
  return buf;
}

NasaicResult run_nasaic(const cost::CostModel& model, const nn::Network& net,
                        const NasaicOptions& options) {
  NasaicResult best;
  best.edp = std::numeric_limits<double>::infinity();

  const auto unique = net.unique_layers();

  // Memoized canonical-mapping evaluation, optionally warm-started from a
  // persistent store. The two IPs recur across the whole allocation grid
  // (PE counts repeat at every bandwidth split), so the cache collapses the
  // grid's cost-model calls to one per unique (IP config, layer shape).
  search::EvalCache cache;
  search::warm_start_cache(cache, options.cache_path);
  const auto cached_eval = [&](const arch::ArchConfig& ip,
                               const nn::Workload& layer)
      -> const cost::CostReport& {
    const std::uint64_t key = nasaic_key(ip, layer);
    if (const auto* hit = cache.find(key)) return hit->report;
    search::MappingSearchResult res;
    res.best = mapping::canonical_mapping(ip, layer);
    res.report = model.evaluate(ip, layer, res.best);
    res.best_edp = res.report.legal
                       ? res.report.edp
                       : std::numeric_limits<double>::infinity();
    res.evaluations = 1;
    return cache.publish(key, std::move(res), nullptr).report;
  };

  // Enumerate the (PE split, bandwidth split) allocation grid up front:
  // every grid point is an independent evaluation, so the grid fans out
  // over the pool and the argmin below reduces in grid order (identical
  // tie-breaking to the original nested loops).
  struct Candidate {
    int dla_pes, shi_pes, dla_bw, shi_bw;
    long long dla_onchip, shi_onchip;
  };
  std::vector<Candidate> grid;
  for (int dla_pes = options.pe_step; dla_pes < options.total_pes;
       dla_pes += options.pe_step) {
    // On-chip SRAM split proportionally to PE share; bandwidth split swept.
    const long long dla_onchip =
        options.total_onchip_bytes * dla_pes / options.total_pes;
    for (int dla_bw_share = 1; dla_bw_share <= 3; ++dla_bw_share) {
      const int dla_bw = options.total_noc_bandwidth * dla_bw_share / 4;
      grid.push_back({dla_pes, options.total_pes - dla_pes, dla_bw,
                      options.total_noc_bandwidth - dla_bw, dla_onchip,
                      options.total_onchip_bytes - dla_onchip});
    }
  }

  std::vector<NasaicResult> scored(grid.size());
  core::ThreadPool pool(options.num_threads);
  const auto score_point = [&](std::size_t i) {
    scored[i].edp = std::numeric_limits<double>::infinity();
    const Candidate& c = grid[i];
    const arch::ArchConfig dla =
        make_dla_ip(c.dla_pes, c.dla_onchip, c.dla_bw, options.dram_bandwidth);
    const arch::ArchConfig shi =
        make_shi_ip(c.shi_pes, c.shi_onchip, c.shi_bw, options.dram_bandwidth);

    NasaicResult r;
    double latency = 0, energy = 0;
    int on_dla = 0, on_shi = 0;
    for (const auto& [layer, count] : unique) {
      const auto& rep_dla = cached_eval(dla, layer);
      const auto& rep_shi = cached_eval(shi, layer);
      if (!rep_dla.legal && !rep_shi.legal) return;  // scored[i] stays +inf
      const bool pick_dla =
          rep_dla.legal && (!rep_shi.legal || rep_dla.edp <= rep_shi.edp);
      const auto& rep = pick_dla ? rep_dla : rep_shi;
      (pick_dla ? on_dla : on_shi) += count;
      latency += rep.latency_cycles * count;
      energy += rep.energy_nj * count;
    }
    r.edp = latency * energy;
    r.latency_cycles = latency;
    r.energy_nj = energy;
    r.dla_pes = c.dla_pes;
    r.shi_pes = c.shi_pes;
    r.dla_bandwidth = c.dla_bw;
    r.shi_bandwidth = c.shi_bw;
    r.layers_on_dla = on_dla;
    r.layers_on_shi = on_shi;
    scored[i] = r;
  };
  // Grid points are independent with slot-keyed results; the argmin below
  // reduces in grid order, so the outcome is identical for any scheduling.
  pool.parallel_for(grid.size(), score_point);

  for (const NasaicResult& r : scored) {
    if (r.edp < best.edp) best = r;
  }
  search::flush_cache(cache, options.cache_path, options.cache_readonly);
  return best;
}

}  // namespace naas::baselines
