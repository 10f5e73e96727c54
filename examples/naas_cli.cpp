// naas_cli — command-line driver over the full public API.
//
//   naas_cli info                          list networks & envelopes
//   naas_cli eval <net> <envelope>         baseline cost report
//   naas_cli layer <net> <envelope> <i>    detailed report for layer i
//   naas_cli search <net> <envelope> [iters [seed]]
//                                          accelerator+mapping co-search
//   naas_cli cosearch <envelope> <acc%> [iters [seed]]
//                                          full 3-level co-search
//
// Global flags (anywhere on the command line):
//   --cache-path <file>   persistent mapping-result store: warm-start from
//                         it and flush back to it (search/cosearch)
//   --cache-readonly      load the store but never write it back
//   --cost-backend <scalar|avx2|auto>
//                         cost-kernel backend (default auto: CPUID picks
//                         the fastest; results are identical regardless)
//
// Envelope names: edgetpu, nvdla1024, nvdla256, eyeriss, shidiannao.
//
// For a long-lived query service over the same store (batched JSON
// requests on stdin, warm cache, incremental store refresh), see the
// naas_serve binary and docs/serving.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/presets.hpp"
#include "cost/backend.hpp"
#include "cost/report.hpp"
#include "mapping/canonical.hpp"
#include "nas/nas_search.hpp"
#include "nn/model_zoo.hpp"
#include "search/accelerator_search.hpp"

namespace {

using namespace naas;

arch::ResourceConstraint envelope_by_name(const std::string& name) {
  if (name == "edgetpu") return arch::edge_tpu_resources();
  if (name == "nvdla1024") return arch::nvdla_1024_resources();
  if (name == "nvdla256") return arch::nvdla_256_resources();
  if (name == "eyeriss") return arch::eyeriss_resources();
  if (name == "shidiannao") return arch::shidiannao_resources();
  throw std::invalid_argument("unknown envelope: " + name);
}

int cmd_info() {
  std::printf("networks:\n");
  for (const char* n : {"vgg16", "resnet50", "unet", "mobilenetv2",
                        "squeezenet", "mnasnet", "cifarnet"}) {
    const auto net = nn::make_network(n);
    std::printf("  %-12s %3d layers  %6lld MMACs  %6lld K weights\n", n,
                net.num_layers(), net.total_macs() / 1000000,
                net.total_weights() / 1000);
  }
  std::printf("\nenvelopes:\n");
  for (const auto& rc : arch::all_resource_envelopes())
    std::printf("  %s\n", rc.to_string().c_str());
  return 0;
}

int cmd_eval(const std::string& net_name, const std::string& env_name) {
  const auto net = nn::make_network(net_name);
  const auto rc = envelope_by_name(env_name);
  const auto baseline = arch::baseline_for(rc);
  const cost::CostModel model;
  const auto nc = cost::evaluate_network_canonical(model, baseline, net);
  std::printf("%s\n\n%s", baseline.to_string().c_str(),
              cost::format_network_cost(nc).c_str());
  return nc.legal ? 0 : 1;
}

int cmd_layer(const std::string& net_name, const std::string& env_name,
              int index) {
  const auto net = nn::make_network(net_name);
  if (index < 0 || index >= net.num_layers()) {
    std::fprintf(stderr, "layer index out of range (0..%d)\n",
                 net.num_layers() - 1);
    return 1;
  }
  const auto rc = envelope_by_name(env_name);
  const auto baseline = arch::baseline_for(rc);
  const auto& layer = net.layers()[static_cast<std::size_t>(index)];
  const cost::CostModel model;
  const auto m = mapping::canonical_mapping(baseline, layer);
  std::printf("%s\n%s\n\nmapping:\n%s\n\n%s", baseline.to_string().c_str(),
              layer.to_string().c_str(), m.to_string().c_str(),
              cost::format_report(model.evaluate(baseline, layer, m)).c_str());
  return 0;
}

/// Persistent-store flags shared by the search commands.
struct StoreFlags {
  std::string cache_path;
  bool cache_readonly = false;
  /// --cost-backend override; nullopt = process default (NAAS_COST_BACKEND
  /// env or auto CPUID dispatch). Throughput-only: results are identical.
  std::optional<cost::BackendKind> cost_backend;
};

/// Store diagnostics go to stderr so stdout stays a deterministic report
/// (CI diffs cold vs warm stdout).
void report_store(const StoreFlags& store, long long entries_loaded,
                  long long mapping_searches) {
  if (store.cache_path.empty()) return;
  std::fprintf(stderr,
               "store: loaded %lld entries from %s; mapping searches run: "
               "%lld%s\n",
               entries_loaded, store.cache_path.c_str(), mapping_searches,
               store.cache_readonly ? " (readonly)" : "");
}

/// Batched-cost-model work summary (stderr, like the store diagnostics).
/// `backend` is the resolved cost-kernel backend that scored the run.
void report_batch(long long generations, long long candidates,
                  const std::string& backend) {
  std::fprintf(stderr,
               "batch: %lld CMA generations batch-evaluated (%lld "
               "candidates) on %s cost backend\n",
               generations, candidates, backend.c_str());
}

int cmd_search(const std::string& net_name, const std::string& env_name,
               int iterations, std::uint64_t seed, const StoreFlags& store) {
  const auto net = nn::make_network(net_name);
  const auto rc = envelope_by_name(env_name);
  const cost::CostModel model;

  search::NaasOptions opts;
  opts.resources = rc;
  opts.population = 12;
  opts.iterations = iterations;
  opts.seed = seed;
  opts.mapping.population = 10;
  opts.mapping.iterations = 6;
  opts.cache_path = store.cache_path;
  opts.cache_readonly = store.cache_readonly;
  opts.cost_backend = store.cost_backend;
  const auto res = search::run_naas(model, opts, {net});
  report_store(store, res.store_entries_loaded, res.mapping_searches);
  report_batch(res.generations_batched, res.candidates_batch_evaluated,
               res.cost_backend);
  if (!std::isfinite(res.best_geomean_edp)) {
    std::fprintf(stderr, "search failed to find a valid design\n");
    return 1;
  }
  const auto baseline = cost::evaluate_network_canonical(
      model, arch::baseline_for(rc), net);
  std::printf("searched: %s\n\n%s\n", res.best_arch.to_string().c_str(),
              cost::format_network_cost(res.best_networks[0]).c_str());
  std::printf("vs stock %s: %.2fx speedup, %.2fx energy, %.2fx EDP\n",
              rc.name.c_str(),
              baseline.latency_cycles / res.best_networks[0].latency_cycles,
              baseline.energy_nj / res.best_networks[0].energy_nj,
              baseline.edp / res.best_networks[0].edp);
  std::printf("search: %lld evals, %.1fs\n", res.cost_evaluations,
              res.wall_seconds);
  return 0;
}

int cmd_cosearch(const std::string& env_name, double min_accuracy,
                 int iterations, std::uint64_t seed, const StoreFlags& store) {
  const cost::CostModel model;
  nas::CoSearchOptions opts;
  opts.resources = envelope_by_name(env_name);
  opts.hw_population = 8;
  opts.hw_iterations = iterations;
  opts.seed = seed;
  opts.mapping.population = 8;
  opts.mapping.iterations = 5;
  opts.subnet.min_accuracy = min_accuracy;
  opts.subnet.population = 8;
  opts.subnet.iterations = 4;
  opts.cache_path = store.cache_path;
  opts.cache_readonly = store.cache_readonly;
  opts.cost_backend = store.cost_backend;
  const auto res = nas::run_cosearch(model, opts);
  report_store(store, res.store_entries_loaded, res.mapping_searches);
  report_batch(res.generations_batched, res.candidates_batch_evaluated,
               res.cost_backend);
  if (!std::isfinite(res.best_edp)) {
    std::fprintf(stderr,
                 "no accuracy-feasible subnet found; lower the floor\n");
    return 1;
  }
  std::printf("accelerator: %s\n", res.best_arch.to_string().c_str());
  std::printf("network    : %s\n", res.best_net.to_string().c_str());
  std::printf("top-1      : %.1f%%   EDP %.3g\n", res.best_accuracy,
              res.best_edp);
  std::printf("search     : %lld evals, %.1fs\n", res.cost_evaluations,
              res.wall_seconds);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: naas_cli info\n"
               "       naas_cli eval <net> <envelope>\n"
               "       naas_cli layer <net> <envelope> <index>\n"
               "       naas_cli search <net> <envelope> [iters [seed]]\n"
               "       naas_cli cosearch <envelope> <acc%%> [iters [seed]]\n"
               "flags: --cache-path <file>  persistent mapping-result store\n"
               "       --cache-readonly     never write the store back\n"
               "       --cost-backend <scalar|avx2|auto>\n"
               "                            cost-kernel backend (default: "
               "auto CPUID dispatch)\n"
               "for a long-lived batched query service over the same store,\n"
               "run naas_serve (see docs/serving.md)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  StoreFlags store;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--cache-path") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--cache-path requires a file argument\n");
        return usage();
      }
      store.cache_path = argv[++i];
    } else if (a == "--cache-readonly") {
      store.cache_readonly = true;
    } else if (a == "--cost-backend") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--cost-backend requires a backend name\n");
        return usage();
      }
      const std::string name = argv[++i];
      const auto kind = cost::parse_backend_kind(name);
      if (!kind) {
        std::fprintf(stderr,
                     "unknown cost backend '%s' (scalar|avx2|auto)\n",
                     name.c_str());
        return usage();
      }
      // An explicit request for a backend this build/CPU cannot run is an
      // error, not a silent fallback; auto always resolves.
      if (!cost::backend_available(*kind)) {
        std::fprintf(stderr, "cost backend '%s' unavailable on this host\n",
                     name.c_str());
        return 1;
      }
      store.cost_backend = *kind;
    } else {
      args.push_back(a);
    }
  }
  if (args.empty()) return usage();
  const std::string& cmd = args[0];
  const auto n = args.size();
  try {
    if (cmd == "info") return cmd_info();
    if (cmd == "eval" && n >= 3) return cmd_eval(args[1], args[2]);
    if (cmd == "layer" && n >= 4)
      return cmd_layer(args[1], args[2], std::atoi(args[3].c_str()));
    if (cmd == "search" && n >= 3)
      return cmd_search(args[1], args[2],
                        n > 3 ? std::atoi(args[3].c_str()) : 10,
                        n > 4 ? std::strtoull(args[4].c_str(), nullptr, 10)
                              : 1,
                        store);
    if (cmd == "cosearch" && n >= 3)
      return cmd_cosearch(args[1], std::atof(args[2].c_str()),
                          n > 3 ? std::atoi(args[3].c_str()) : 5,
                          n > 4 ? std::strtoull(args[4].c_str(), nullptr, 10)
                                : 1,
                          store);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
