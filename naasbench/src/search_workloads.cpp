// search_cnn and cosearch_ofa: whole co-searches, repeated within the run
// in rounds, each round on its own seed drawn from --seed. A round is a
// latency repeat (one search on every host thread: what a user waiting for
// one answer sees) and a sweep (one single-threaded search per host thread,
// all at once: what a batch of independent searches costs). The sweep's
// searches repeat the latency repeat's seed, so every round also checks
// that the returned design does not depend on the thread count.
//
//   p50_ref  median over rounds of the latency repeat's wall time
//   cpu_ref  median over rounds of the sweep's mean CPU time per search
//
// both in reference passes (reference_seconds(), taken before and after
// each timed part): on a shared host the speed of every core drifts by
// 10-20% over minutes, and dividing by the reference cancels that drift.
// The raw times are kept as details (p50_ms, cpu_ms, ops_per_s).
//
// search_cnn is the paper's main loop: a cold run_naas geomean search over
// {resnet50, mobilenetv2, squeezenet} on the NVDLA-256 envelope with the
// default options (speculation on, surrogate off). The cost kernel, the
// mapping search, the task graph and the evaluation cache do nearly all
// the work; serving, networking and JSON do none.
//
// cosearch_ofa runs the same kernels under a different pattern: the
// three-level run_cosearch (accelerator x OFA-ResNet50 subnet x mapping)
// with a 75% top-1 floor. Subnets share most layer shapes, so cache hits
// dominate, and candidates are scored one at a time, so speculation stays
// inert: a change to speculation or to outer-loop interleaving should
// leave this workload unchanged.

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <numeric>
#include <thread>

#include "arch/presets.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "cost/cost_model.hpp"
#include "nas/nas_search.hpp"
#include "nn/accuracy_model.hpp"
#include "nn/model_zoo.hpp"
#include "nn/ofa_space.hpp"
#include "search/accelerator_search.hpp"
#include "search/encoding.hpp"
#include "workloads.hpp"

namespace naasbench {

namespace {

using namespace naas;

/// Set-ups timed per run; the median is reported.
constexpr int kSetups = 40;
constexpr double kMinCosearchAccuracy = 75.0;

/// Outer/inner search budgets. The full budgets make one round take about
/// 1.5 s on a 4-core host, so a run holds 15-25 rounds on as many seeds.
struct Budget {
  int population;
  int iterations;
  int map_population;
  int map_iterations;
};
constexpr Budget kCnnBudget{8, 4, 8, 4};
constexpr Budget kCosearchBudget{4, 2, 8, 5};
constexpr Budget kSmokeBudget{4, 2, 4, 2};

search::MappingSearchOptions mapping_options(const Budget& b,
                                             std::uint64_t seed) {
  search::MappingSearchOptions m;
  m.population = b.map_population;
  m.iterations = b.map_iterations;
  m.seed = seed;
  return m;
}

std::vector<nn::Network> cnn_networks() {
  return {nn::make_network("resnet50"), nn::make_network("mobilenetv2"),
          nn::make_network("squeezenet")};
}

/// The returned design of one search. For one seed it must not change with
/// the thread count; it must pass the workload's quality gate; and a
/// non-finite best counts as a failed operation.
struct Outcome {
  std::uint64_t arch_fp = 0;
  std::uint64_t net_fp = 0;
  double edp = 0;
  bool acceptable = false;  ///< passes the workload's quality gate
  bool operator==(const Outcome&) const = default;
};

/// A whole search on `seed` at `threads` evaluation threads. With `keep`,
/// its result is kept for the work counters the workload reports.
using SearchFn =
    std::function<Outcome(std::uint64_t seed, int threads, bool keep)>;

/// The sweep: one single-threaded search per host thread, all started at
/// once. Fills each search's outcome, wall time and thread CPU time.
void sweep(const SearchFn& search, std::uint64_t seed,
           std::vector<Outcome>& outs, std::vector<double>& walls,
           std::vector<double>& cpus) {
  const auto n = static_cast<std::size_t>(host_threads());
  outs.assign(n, Outcome{});
  walls.assign(n, 0);
  cpus.assign(n, 0);
  std::vector<std::jthread> threads;  // joined on every exit path
  for (std::size_t i = 0; i < n; ++i)
    threads.emplace_back([&, i] {
      const Clock::time_point t0 = Clock::now();
      const double c0 = thread_cpu_seconds();
      try {
        outs[i] = search(seed, 1, false);
      } catch (...) {
        outs[i].edp = std::nan("");
      }
      cpus[i] = thread_cpu_seconds() - c0;
      walls[i] = seconds_since(t0);
    });
}

/// Times `setup` kSetups times, then runs rounds for the run's budget (at
/// least two). `candidates` = accelerator candidates one search scores.
void measure(const Args& args, Report& report,
             const std::function<void()>& setup, const SearchFn& search,
             double candidates) {
  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) {
    const Clock::time_point t0 = Clock::now();
    setup();
    setups.push_back(seconds_since(t0));
  }
  report.check(reset_peak_rss(), "peak RSS reset after set-up");

  // A traced run keeps only the two rounds the checks need.
  const double budget = args.trace ? 0 : args.seconds;
  std::vector<double> latency_s, latency_ref, cpu_s, cpu_ref, rates, refs;
  Outcome first;
  long long attempted = 0;
  long long failed = 0;
  // Peak RSS is read after a fixed amount of work (two rounds): the
  // allocator's footprint creeps with every further round, and how many
  // fit in the run depends on the host's speed.
  double rss_mb = 0;
  double round_s = 0;
  double ref = reference_seconds();
  const Clock::time_point start = Clock::now();
  std::size_t round = 0;
  for (; round < 2 || seconds_since(start) + round_s <= budget; ++round) {
    const Clock::time_point r0 = Clock::now();
    const std::uint64_t seed = core::stream_seed(args.seed, round);
    const Outcome got = search(seed, host_threads(), round == 0);
    latency_s.push_back(seconds_since(r0));
    const double ref_mid = reference_seconds();
    latency_ref.push_back(latency_s.back() / ((ref + ref_mid) / 2));

    std::vector<Outcome> outs;
    std::vector<double> walls;
    std::vector<double> cpus;
    sweep(search, seed, outs, walls, cpus);
    const double ref_end = reference_seconds();
    cpu_s.push_back(std::accumulate(cpus.begin(), cpus.end(), 0.0) /
                    static_cast<double>(cpus.size()));
    cpu_ref.push_back(cpu_s.back() / ((ref_mid + ref_end) / 2));
    double rate = 0;
    for (const double w : walls) rate += candidates / w;
    rates.push_back(rate);
    refs.push_back(ref_mid);
    ref = ref_end;
    round_s = seconds_since(r0);
    if (round == 1) rss_mb = peak_rss_mb();

    if (round == 0) first = got;
    outs.push_back(got);
    for (const Outcome& o : outs) {
      ++attempted;
      if (!std::isfinite(o.edp)) ++failed;
    }
    const std::string r = "round " + std::to_string(round);
    report.check(std::all_of(outs.begin(), outs.end(),
                             [&](const Outcome& o) { return o == got; }),
                 r + ": the design depends on the thread count");
    report.check(got.acceptable, r + ": the design fails the quality gate");
  }
  report.count(attempted, failed);
  report.detail("rounds", static_cast<double>(round), "count");
  report.detail("p50_ms", median(latency_s) * 1e3, "ms");
  report.detail("latency_min_ms", quantile(latency_s, 0) * 1e3, "ms");
  report.detail("latency_max_ms", quantile(latency_s, 1) * 1e3, "ms");
  report.detail("cpu_ms", median(cpu_s) * 1e3, "ms");
  report.detail("ops_per_s", median(rates), "1/s");
  report.detail("reference_ms", median(refs) * 1e3, "ms");
  report.detail("best_edp", first.edp, "nJ*cycle");
  report.identity("best.arch_fp", hex64(first.arch_fp));
  report.identity("best.edp_bits",
                  hex64(std::bit_cast<std::uint64_t>(first.edp)));
  if (first.net_fp != 0)
    report.identity("best.subnet_fp", hex64(first.net_fp));

  if (!args.trace) {
    report.metric("setup_s", median(setups), "s");
    report.metric("p50_ref", median(latency_ref), "ref");
    report.metric("cpu_ref", median(cpu_ref), "ref");
    report.metric("peak_rss_mb", rss_mb, "MB");
  }
}

/// Work counters of a NaasResult or CoSearchResult (same field names).
template <typename Result>
void report_counters(Report& report, const Result& r) {
  const auto count = [&](const char* name, long long v) {
    report.detail(name, static_cast<double>(v), "count");
  };
  count("search.cost_evaluations", r.cost_evaluations);
  count("search.mapping_searches", r.mapping_searches);
  count("search.tasks_executed", r.tasks_executed);
  count("speculation.hits", r.speculative_hits);
  count("speculation.wasted", r.speculative_wasted);
}

/// Probe inputs of a search workload: seeded candidates in its envelope,
/// and search_mapping requests for seeded units of its networks.
ProbeInputs search_probe_inputs(const arch::ResourceConstraint& envelope,
                                std::vector<nn::Network> networks,
                                const search::MappingSearchOptions& mapping,
                                std::uint64_t seed) {
  ProbeInputs in;
  in.population = seeded_population(envelope, seed, 16);
  in.networks = std::move(networks);
  in.units = seeded_units(in.population, in.networks, seed, 24);
  for (const auto& [a, layer] : in.units)
    in.request_bodies.push_back(search_mapping_body(a, layer));
  in.mapping = mapping;
  return in;
}

/// Traced pass: alternating untraced and traced repeats of the search (the
/// traced one inside a span); the gap between their medians is the tracing
/// overhead. A single pair would measure the host's noise instead.
void trace_overhead(Report& report, Tracer& tracer, const SearchFn& search,
                    const char* span_name, std::uint64_t seed) {
  constexpr int kPairs = 3;
  std::vector<double> untraced, traced;
  for (int i = 0; i < kPairs; ++i) {
    const Clock::time_point t0 = Clock::now();
    search(core::stream_seed(seed, i), host_threads(), false);
    untraced.push_back(seconds_since(t0));
    const Clock::time_point t1 = Clock::now();
    {
      ScopedSpan span(tracer, span_name, static_cast<std::uint64_t>(i));
      search(core::stream_seed(seed, i), host_threads(), false);
    }
    traced.push_back(seconds_since(t1));
  }
  report.metric("trace.overhead_frac",
                (median(traced) - median(untraced)) / median(untraced),
                "ratio");
}

}  // namespace

void run_search_cnn(const Args& args, Report& report, Tracer& tracer) {
  const Budget& b = args.smoke ? kSmokeBudget : kCnnBudget;
  const cost::CostModel model;
  search::NaasOptions opts;
  opts.resources = arch::nvdla_256_resources();
  opts.population = b.population;
  opts.iterations = b.iterations;
  opts.seed = args.seed;
  opts.mapping = mapping_options(b, args.seed);
  opts.num_threads = host_threads();

  // Set-up: the benchmark networks, the evaluation engine, and the stock
  // NVDLA-256 reference the searched design must never lose to (run_naas
  // seeds the baseline, so its best-ever design is at most this EDP: the
  // quality gate of every search).
  std::vector<nn::Network> nets;
  double baseline = 0;
  const auto setup = [&] {
    nets = cnn_networks();
    core::ThreadPool pool(opts.num_threads);
    search::ArchEvaluator evaluator(model, opts.mapping, &pool);
    baseline = evaluator.geomean_edp(arch::nvdla_256_arch(), nets);
  };
  search::NaasResult last;
  const SearchFn search = [&](std::uint64_t seed, int threads, bool keep) {
    search::NaasOptions o = opts;
    o.seed = seed;
    o.num_threads = threads;
    search::NaasResult r = search::run_naas(model, o, nets);
    const Outcome out{search::arch_fingerprint(r.best_arch), 0,
                      r.best_geomean_edp, r.best_geomean_edp <= baseline};
    if (keep) last = std::move(r);
    return out;
  };

  measure(args, report, setup, search,
          static_cast<double>(b.population) * b.iterations);
  report.check(std::isfinite(baseline), "baseline EDP is finite");
  report.detail("baseline_edp", baseline, "nJ*cycle");
  report_counters(report, last);
  const long long spec = last.speculative_hits + last.speculative_wasted;
  report.detail("speculation.hit_ratio",
                spec > 0 ? static_cast<double>(last.speculative_hits) / spec
                         : 0.0,
                "ratio");

  if (args.trace) {
    run_probes(
        search_probe_inputs(opts.resources, nets, opts.mapping, args.seed),
        args, report, tracer);
    trace_overhead(report, tracer, search, "run_naas", args.seed);
  }
}

void run_cosearch_ofa(const Args& args, Report& report, Tracer& tracer) {
  const Budget& b = args.smoke ? kSmokeBudget : kCosearchBudget;
  const cost::CostModel model;
  nas::CoSearchOptions opts;
  opts.resources = arch::nvdla_256_resources();
  opts.hw_population = b.population;
  opts.hw_iterations = b.iterations;
  opts.seed = args.seed;
  opts.mapping = mapping_options(b, args.seed);
  opts.subnet.min_accuracy = kMinCosearchAccuracy;
  opts.subnet.population = args.smoke ? 4 : 8;
  opts.subnet.iterations = args.smoke ? 2 : 4;
  opts.num_threads = host_threads();

  // Set-up: the reference point, stock NVDLA-256 running the OFA ResNet50
  // configuration. The quality gate of every search is the accuracy floor.
  const nn::OfaSpace space;
  double reference = 0;
  const auto setup = [&] {
    const nn::Network resnet =
        space.to_network(nn::OfaSpace::resnet50_config());
    core::ThreadPool pool(opts.num_threads);
    search::ArchEvaluator evaluator(model, opts.mapping, &pool);
    reference = evaluator.evaluate(arch::nvdla_256_arch(), resnet).edp;
  };
  nas::CoSearchResult last;
  const SearchFn search = [&](std::uint64_t seed, int threads, bool keep) {
    nas::CoSearchOptions o = opts;
    o.seed = seed;
    o.num_threads = threads;
    nas::CoSearchResult r = nas::run_cosearch(model, o);
    const Outcome out{search::arch_fingerprint(r.best_arch),
                      r.best_net.fingerprint(), r.best_edp,
                      r.best_accuracy >= kMinCosearchAccuracy};
    if (keep) last = std::move(r);
    return out;
  };

  measure(args, report, setup, search,
          static_cast<double>(b.population) * b.iterations);
  report.detail("best_accuracy", last.best_accuracy, "%");
  report.detail("reference_edp", reference, "nJ*cycle");
  report_counters(report, last);

  if (args.trace) {
    std::vector<nn::Network> subnets;
    core::Rng rng(core::stream_seed(args.seed, 0x0fa));
    for (int i = 0; i < 3; ++i)
      subnets.push_back(space.to_network(space.sample(rng)));
    run_probes(search_probe_inputs(opts.resources, std::move(subnets),
                                   opts.mapping, args.seed),
               args, report, tracer);

    // nas layer: one subnet evolution on a fixed accelerator.
    {
      core::ThreadPool pool(opts.num_threads);
      search::ArchEvaluator evaluator(model, opts.mapping, &pool);
      const nn::AccuracyPredictor predictor;
      const Clock::time_point t0 = Clock::now();
      nas::SubnetResult sub;
      {
        ScopedSpan span(tracer, "evolve_subnet", 0);
        sub = nas::evolve_subnet(evaluator, arch::nvdla_256_arch(), space,
                                 predictor, opts.subnet);
      }
      report.detail("nas.evolve_subnet_ms", seconds_since(t0) * 1e3, "ms");
      report.check(std::isfinite(sub.edp), "subnet evolution found a subnet");
    }
    trace_overhead(report, tracer, search, "run_cosearch", args.seed);
  }
}

}  // namespace naasbench
