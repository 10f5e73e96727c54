#include "cost/backend.hpp"

#include <cstdio>
#include <cstdlib>

#include "core/log.hpp"
#include "cost/backend_kernels.hpp"

namespace naas::cost {

// Defined in backend_avx2.cpp. Returns its singleton when the
// implementation is compiled in AND the running CPU supports it, else
// nullptr — the whole dispatch decision lives behind this call.
const Backend* avx2_backend_or_null();

namespace {

/// Reference implementation: plain loops over the shared per-slot kernels.
/// Every other CPU backend is defined as "byte-identical to this".
class ScalarBackend final : public Backend {
 public:
  const char* name() const override { return "scalar"; }

  void reuse_pass(const LayerContext& ctx,
                  const BatchColumns& cols) const override {
    for (std::size_t j = 0; j < cols.count; ++j)
      kernels::reuse_slot(ctx, cols, j);
  }

  void arithmetic_pass(const LayerContext& ctx,
                       const BatchColumns& cols) const override {
    for (std::size_t j = 0; j < cols.count; ++j)
      kernels::arith_slot(ctx, cols, j);
  }
};

const ScalarBackend g_scalar;

}  // namespace

const Backend& scalar_backend() { return g_scalar; }

const Backend* backend_for(BackendKind kind) {
  switch (kind) {
    case BackendKind::kScalar:
      return &g_scalar;
    case BackendKind::kAvx2:
      return avx2_backend_or_null();
    case BackendKind::kAuto: {
      if (const Backend* b = avx2_backend_or_null()) return b;
      return &g_scalar;
    }
  }
  return nullptr;
}

bool backend_available(BackendKind kind) {
  return backend_for(kind) != nullptr;
}

BackendKind resolve_backend(BackendKind requested) {
  if (requested == BackendKind::kAuto) {
    if (avx2_backend_or_null()) return BackendKind::kAvx2;
    return BackendKind::kScalar;
  }
  return backend_available(requested) ? requested : BackendKind::kScalar;
}

BackendKind default_backend_kind() {
  const char* env = std::getenv("NAAS_COST_BACKEND");
  if (env == nullptr || *env == '\0') return BackendKind::kAuto;
  if (const auto kind = parse_backend_kind(env)) return *kind;
  core::log_warn("ignoring invalid NAAS_COST_BACKEND='" + std::string(env) +
                 "' (expected scalar|avx2|auto)");
  return BackendKind::kAuto;
}

const char* backend_kind_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kScalar: return "scalar";
    case BackendKind::kAvx2: return "avx2";
    case BackendKind::kAuto: return "auto";
  }
  return "?";
}

std::optional<BackendKind> parse_backend_kind(const std::string& name) {
  if (name == "scalar") return BackendKind::kScalar;
  if (name == "avx2") return BackendKind::kAvx2;
  if (name == "auto") return BackendKind::kAuto;
  return std::nullopt;
}

core::Flag cost_backend_flag(std::optional<BackendKind>* out) {
  return {"--cost-backend", "<scalar|avx2|auto>",
          "cost kernels (default $NAAS_COST_BACKEND, else auto)",
          [out](const std::string& value) {
            *out = parse_backend_kind(value);
            return *out ? std::string()
                        : "unknown cost backend '" + value +
                              "' (scalar|avx2|auto)";
          }};
}

bool backend_usable(std::optional<BackendKind> kind) {
  if (!kind || backend_available(*kind)) return true;
  std::fprintf(stderr, "cost backend '%s' unavailable on this host\n",
               backend_kind_name(*kind));
  return false;
}

}  // namespace naas::cost
