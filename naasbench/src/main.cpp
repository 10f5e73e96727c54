// naasbench: one workload per process, so peak RSS is per workload.
//
//   naasbench --workload W --seed N --seconds S --out RECORD.json
//             --work-dir DIR [--trace] [--smoke]
//
// Writes the run's record (metrics, details, counts, checks) to --out and
// prints one `workload metric value unit` line per value. --trace runs the
// per-layer probe suite plus a traced repeat of the workload instead of the
// end-to-end measurement, and writes the spans to
// DIR/BENCH_naasbench_trace_<workload>.json. Exit status: 0 when every
// correctness gate held, 1 when one failed, 2 on a usage error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using naasbench::Args;
using naasbench::Report;
using naasbench::Tracer;

using WorkloadFn = void (*)(const Args&, Report&, Tracer&);
const std::vector<std::pair<std::string, WorkloadFn>> kWorkloads{
    {"search_cnn", naasbench::run_search_cnn},
    {"cosearch_ofa", naasbench::run_cosearch_ofa},
    {"serve_warm", naasbench::run_serve_warm},
    {"fleet_warm", naasbench::run_fleet_warm},
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "naasbench: %s\nusage: naasbench --workload W --seed N "
               "--seconds S --out FILE --work-dir DIR [--trace] [--smoke]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--trace") {
      args.trace = true;
    } else if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (a == "--out" && has_value) {
      args.out = argv[++i];
    } else if (a == "--work-dir" && has_value) {
      args.work_dir = argv[++i];
    } else {
      return usage(("unknown or incomplete argument " + a).c_str());
    }
  }
  const auto workload =
      std::find_if(kWorkloads.begin(), kWorkloads.end(),
                   [&](const auto& w) { return w.first == args.workload; });
  if (workload == kWorkloads.end()) return usage("unknown workload");
  if (!(args.seconds > 0 && args.seconds <= 600))
    return usage("--seconds must be in (0, 600]");
  if (args.out.empty() || args.work_dir.empty())
    return usage("--out and --work-dir are required");
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) return usage("cannot create --work-dir");

  Report report;
  Tracer tracer(args.trace);
  try {
    workload->second(args, report, tracer);
  } catch (const std::exception& e) {
    report.check(false, std::string("exception: ") + e.what());
  }
  if (args.trace) {
    const std::string path =
        args.work_dir + "/BENCH_naasbench_trace_" + args.workload + ".json";
    report.check(tracer.write_chrome_json(path), "write " + path);
    report.detail("trace.spans", static_cast<double>(tracer.size()), "count");
  }
  report.detail("hardware_concurrency", naasbench::host_threads(), "threads");
  if (!report.write(args, args.out)) return 1;
  return report.correct() ? 0 : 1;
}
