#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "core/flags.hpp"
#include "cost/layer_context.hpp"

namespace naas::cost {

/// Which cost-kernel implementation scores the struct-of-arrays batch
/// passes. kAuto resolves at runtime (CPUID) to the fastest available
/// implementation; every CPU backend is byte-identical to kScalar by
/// contract (same double operations, same order — see docs/performance.md),
/// which the cross-backend differential suite enforces.
enum class BackendKind : int {
  kScalar = 0,  ///< the reference implementation (always available)
  kAvx2 = 1,    ///< x86 AVX2 intrinsics (requires CPU + compiler support)
  kAuto = 2,    ///< best available: avx2 > scalar
};

/// The struct-of-arrays view of one evaluate_batch call that the backend
/// kernels operate on: `count` live (legality-surviving) candidate slots,
/// candidate-major per-dimension columns for the order-dependent scans and
/// flat slot-indexed columns for the arithmetic pass. All pointers are
/// owned by the caller's scratch and valid for exactly one pass; per-dim
/// columns hold nn::kNumDims entries per slot.
struct BatchColumns {
  std::size_t count = 0;

  // ---- Reuse-pass inputs (stage 2) -------------------------------------
  // Loop orders staged as dim indices, outermost first (ord*[slot*kD + i]
  // is the dim index at order position i).
  const int* ord2 = nullptr;  ///< DRAM-level loop order
  const int* ord1 = nullptr;  ///< PE-level loop order
  const int* ordr = nullptr;  ///< register (innermost) loop order
  const double* n2 = nullptr;  ///< DRAM-level trip counts per dim
  const double* n1 = nullptr;  ///< PE-level trip counts per dim
  const int* t1 = nullptr;     ///< L1 tile sizes per dim

  // ---- Reuse-pass outputs / arithmetic-pass inputs ---------------------
  double* in_f2 = nullptr;
  double* w_f2 = nullptr;
  double* out_f2 = nullptr;
  double* out_d2 = nullptr;
  double* in_f1 = nullptr;
  double* w_f1 = nullptr;
  double* out_f1 = nullptr;
  double* out_d1 = nullptr;
  double* in_rr = nullptr;
  double* w_rr = nullptr;
  double* out_rr = nullptr;

  // ---- Arithmetic-pass inputs (precomputed by the shared prep) ---------
  const double* phases = nullptr;
  const double* per_pe_iters = nullptr;
  const double* fp2_in = nullptr;
  const double* fp2_w = nullptr;
  const double* fp2_out = nullptr;
  const double* fp2_tot = nullptr;
  const double* fp1_in = nullptr;
  const double* fp1_w = nullptr;
  const double* fp1_out = nullptr;
  const double* in_mult = nullptr;
  const double* w_mult = nullptr;
  const double* out_mult = nullptr;
  const double* red_extent = nullptr;
  const double* fanout = nullptr;

  // ---- Arithmetic-pass outputs -----------------------------------------
  double* dram_bytes = nullptr;
  double* l2_read = nullptr;
  double* l2_write = nullptr;
  double* l1_access = nullptr;
  double* noc_delivery = nullptr;
  double* red_hops = nullptr;
  double* compute_cyc = nullptr;
  double* noc_cyc = nullptr;
  double* dram_cyc = nullptr;
  double* latency = nullptr;
  double* util = nullptr;
  double* e_l1 = nullptr;
  double* e_l2 = nullptr;
  double* e_noc = nullptr;
  double* e_dram = nullptr;
  double* e_total_nj = nullptr;
  double* edp = nullptr;
};

/// Cost-kernel backend ABI: the two data-parallel passes of
/// CostModel::evaluate_batch, pluggable per CostModel instance. The
/// contract every CPU implementation must honor is BIT-IDENTITY to the
/// scalar reference: per candidate, the same IEEE double operations in the
/// same order (lane-width loops are structured so no reassociation or
/// contraction can occur), so serialized CostReports compare byte-equal
/// across backends — the invariant tests/test_backend_differential.cpp
/// fuzzes and CI asserts.
///
/// Implementations are stateless singletons; all methods are const and
/// thread-safe (concurrent mapping searches call them on disjoint column
/// sets).
class Backend {
 public:
  virtual ~Backend() = default;
  /// Stable lowercase identifier ("scalar", "avx2", ...) reported in
  /// stderr summaries, cache_stats, and bench JSON.
  virtual const char* name() const = 0;
  /// Stage 2: order-dependent reuse factors (reload factors, distinct
  /// tiles, register reuse) for every live slot.
  virtual void reuse_pass(const LayerContext& ctx,
                          const BatchColumns& cols) const = 0;
  /// Stage 3: flat traffic/latency/energy arithmetic for every live slot.
  virtual void arithmetic_pass(const LayerContext& ctx,
                               const BatchColumns& cols) const = 0;
};

/// The reference backend (always available).
const Backend& scalar_backend();

/// The backend for `kind`, or nullptr when unavailable on this build/CPU
/// (kAuto always resolves; kScalar is always available).
const Backend* backend_for(BackendKind kind);

/// True when `kind` can actually run here (compiled in + CPU supports it).
bool backend_available(BackendKind kind);

/// Resolves kAuto to the best available kind (avx2 > scalar) and
/// any unavailable explicit request to kScalar. The returned kind is
/// always available.
BackendKind resolve_backend(BackendKind requested);

/// The kind the process would pick with no overrides: NAAS_COST_BACKEND
/// env when set to a valid kind name, else kAuto. Invalid values are
/// ignored with a warning.
BackendKind default_backend_kind();

/// Stable name of a kind ("scalar", "avx2", "auto").
const char* backend_kind_name(BackendKind kind);

/// Parses a kind name; nullopt on unknown input.
std::optional<BackendKind> parse_backend_kind(const std::string& name);

/// The --cost-backend flag: stores a kind name into `*out` and rejects any
/// other text. Unset (nullopt) keeps default_backend_kind().
core::Flag cost_backend_flag(std::optional<BackendKind>* out);

/// False, after saying why on stderr, when `kind` asks for a backend this
/// build or CPU cannot run: an explicit request is an error, never a
/// silent fallback. True for nullopt and for every runnable kind.
bool backend_usable(std::optional<BackendKind> kind);

}  // namespace naas::cost
