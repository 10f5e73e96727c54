#pragma once

#include <span>
#include <string>

#include "arch/accelerator.hpp"
#include "cost/backend.hpp"
#include "cost/energy_model.hpp"
#include "cost/layer_context.hpp"
#include "mapping/mapping.hpp"
#include "nn/layer.hpp"

namespace naas::cost {

/// Energy split by component (picojoules).
struct EnergyBreakdown {
  double mac_pj = 0;
  double l1_pj = 0;
  double l2_pj = 0;
  double noc_pj = 0;
  double dram_pj = 0;

  double total_pj() const { return mac_pj + l1_pj + l2_pj + noc_pj + dram_pj; }
};

/// Full evaluation result for one (accelerator, layer, mapping) triple.
struct CostReport {
  bool legal = false;          ///< false => all metrics are +inf/0
  std::string illegal_reason;  ///< populated when !legal

  double macs = 0;             ///< real multiply-accumulates
  double compute_cycles = 0;   ///< MAC-roofline cycles incl. padding waste
  double noc_cycles = 0;       ///< L2<->array port occupancy
  double dram_cycles = 0;      ///< DRAM port occupancy
  double latency_cycles = 0;   ///< max of the above + pipeline fill

  EnergyBreakdown energy;      ///< per-component energies (pJ)
  double energy_nj = 0;        ///< total energy in nanojoules
  double edp = 0;              ///< energy_nj * latency_cycles

  double pe_utilization = 0;   ///< macs / (num_pes * compute_cycles)

  // Traffic accounting (bytes; doubles because products of trip counts can
  // exceed 2^63 on large workloads).
  double dram_bytes = 0;
  double l2_read_bytes = 0;
  double l2_write_bytes = 0;
  double l1_access_bytes = 0;
  double noc_delivery_bytes = 0;
  double reduction_hop_bytes = 0;
};

/// MAESTRO-style analytical cost model (DESIGN.md §2). Deterministic and
/// allocation-free per call once warm; suitable for millions of
/// evaluations inside the evolutionary search loops.
///
/// Two entry points share one implementation:
///  - `evaluate` scores a single mapping (internally a batch of one);
///  - `evaluate_batch` scores a whole generation against a LayerContext of
///    precomputed per-(arch, layer) invariants, laying the candidates out
///    struct-of-arrays so the traffic/latency/energy formulas run as tight
///    vectorizable loops.
/// Both produce bit-identical reports for the same candidate: the batch
/// path performs each candidate's double arithmetic in exactly the scalar
/// evaluation order, so batch size, batch composition, and thread count
/// never change a result.
///
/// The two data-parallel passes of the batch evaluation (the mask-driven
/// reuse scans and the flat arithmetic) run on a pluggable cost::Backend.
/// Every CPU backend is byte-identical to the scalar reference by
/// contract, so the backend choice is a pure throughput knob — reports,
/// cache contents, and stores never depend on it. The default resolves
/// NAAS_COST_BACKEND (env) or kAuto via runtime CPUID dispatch.
class CostModel {
 public:
  CostModel() : CostModel(EnergyModel{}) {}
  explicit CostModel(EnergyModel energy,
                     BackendKind backend = default_backend_kind())
      : energy_(energy) {
    set_backend(backend);
  }

  /// Selects the cost-kernel backend. kAuto (and any unavailable explicit
  /// request) resolves to the best available implementation; query
  /// backend_kind()/backend_name() for what was actually selected. Not
  /// safe to call concurrently with evaluation.
  void set_backend(BackendKind kind) {
    backend_kind_ = resolve_backend(kind);
    backend_ = backend_for(backend_kind_);
  }

  /// The resolved (always-available) backend kind in use.
  BackendKind backend_kind() const { return backend_kind_; }
  /// Stable name of the backend in use ("scalar", "avx2", ...).
  const char* backend_name() const { return backend_->name(); }

  /// Evaluates `mapping` for `layer` on `arch`. Illegal mappings yield
  /// legal=false and edp=+inf; callers that want a best-effort number
  /// should mapping::repair first.
  CostReport evaluate(const arch::ArchConfig& arch, const nn::Workload& layer,
                      const mapping::Mapping& mapping) const;

  /// Precomputes the per-(arch, layer) invariants for `evaluate_batch`
  /// under this model's energy parameters. Build once per generation (or
  /// per mapping search) and reuse across batches.
  LayerContext make_context(const arch::ArchConfig& arch,
                            const nn::Workload& layer) const {
    return LayerContext(arch, layer, energy_);
  }

  /// Evaluates `mappings.size()` candidates against one context, writing
  /// `reports[i]` for `mappings[i]`. Requires equally sized spans. Illegal
  /// candidates short-circuit in the legality pass (with the same reasons
  /// mapping::check reports) and never enter the struct-of-arrays pass.
  /// Thread-safe: concurrent mapping searches call it on disjoint report
  /// spans.
  void evaluate_batch(const LayerContext& ctx,
                      std::span<const mapping::Mapping> mappings,
                      std::span<CostReport> reports) const;

  const EnergyModel& energy_model() const { return energy_; }

 private:
  EnergyModel energy_;
  BackendKind backend_kind_ = BackendKind::kScalar;
  const Backend* backend_ = &scalar_backend();
};

}  // namespace naas::cost
