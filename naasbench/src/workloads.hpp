#pragma once

// The four naasbench workloads and the per-layer probe suite they share.
//
// End-to-end metrics, reported by every workload (--trace off):
//   setup_s      median of several set-ups in the run
//   p50_ref      median latency of one operation: a whole search on every
//                host thread (search_cnn, cosearch_ofa) or one query with
//                one request in flight (serve), in reference passes
//   cpu_ref      CPU time per operation, in reference passes: a
//                single-threaded search while one runs per host thread, or
//                the served system's CPU per query with one request in
//                flight
//   peak_rss_mb  peak resident set size of the workload's process after
//                its untimed preparation
//
// A time in reference passes is divided by reference_seconds() measured
// around it (common.hpp), which cancels the host's drift in speed.
//
// Per-layer metrics come from a separate traced run (--trace): the probe
// suite times the benchmark's own calls into each layer's public entry
// point on the workload's inputs, from recorded spans.

#include <string>
#include <vector>

#include "arch/accelerator.hpp"
#include "arch/resources.hpp"
#include "common.hpp"
#include "nn/network.hpp"
#include "search/mapping_search.hpp"
#include "trace.hpp"

namespace naasbench {

void run_search_cnn(const Args& args, Report& report, Tracer& tracer);
void run_cosearch_ofa(const Args& args, Report& report, Tracer& tracer);
void run_serve_warm(const Args& args, Report& report, Tracer& tracer);
void run_fleet_warm(const Args& args, Report& report, Tracer& tracer);

/// What the probe suite runs on: the workload's own shapes and requests.
struct ProbeInputs {
  /// Accelerator candidates for the evaluator probe (seeded decodes).
  std::vector<naas::arch::ArchConfig> population;
  /// Networks the evaluator probe scores the population on.
  std::vector<naas::nn::Network> networks;
  /// (arch, layer) units for the cost-kernel and mapping-search probes.
  std::vector<std::pair<naas::arch::ArchConfig, naas::nn::Workload>> units;
  /// Request bodies (text after `{"id":<n>`) for the serve-layer probes.
  std::vector<std::string> request_bodies;
  naas::search::MappingSearchOptions mapping;
};

/// `n` seeded accelerator candidates decoded from the envelope's hardware
/// encoding (resource-feasible, distinct).
std::vector<naas::arch::ArchConfig> seeded_population(
    const naas::arch::ResourceConstraint& envelope, std::uint64_t seed,
    std::size_t n);

/// Up to `n` seeded (arch, layer) units drawn from archs x unique layers.
std::vector<std::pair<naas::arch::ArchConfig, naas::nn::Workload>>
seeded_units(const std::vector<naas::arch::ArchConfig>& archs,
             const std::vector<naas::nn::Network>& networks,
             std::uint64_t seed, std::size_t n);

/// search_mapping request body for an explicit (arch, layer) unit.
std::string search_mapping_body(const naas::arch::ArchConfig& arch,
                                const naas::nn::Workload& layer);

/// Runs every per-layer probe, records spans into `tracer`, and reports
/// the per-layer metrics (all but trace.overhead_frac, which the workload
/// measures on its own operation).
void run_probes(const ProbeInputs& in, const Args& args, Report& report,
                Tracer& tracer);

}  // namespace naasbench
