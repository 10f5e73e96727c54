#!/usr/bin/env bash
# Builds the bench binaries in Release and emits BENCH_*.json artifacts.
#
# Usage: scripts/bench.sh [build-dir]
#   NAAS_BENCH_ALL=1   also run every fig/table reproduction binary
#   NAAS_BENCH_FULL=1  paper-scale search budgets (slow)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-bench}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)"

if [ ! -x "$BUILD_DIR/bench_parallel_scaling" ]; then
  echo "bench binaries were not built (google-benchmark missing?)" >&2
  exit 1
fi

run_bench() {
  local name="$1"
  echo "=== $name ==="
  # Each binary reproduces its table/figure, then runs google-benchmark
  # microbenchmarks whose results land in BENCH_<name>_micro.json.
  (cd "$BUILD_DIR" && "./$name" \
      --benchmark_out="BENCH_${name}_micro.json" \
      --benchmark_out_format=json \
      --benchmark_min_time=0.05)
}

# The scaling bench writes BENCH_parallel.json and BENCH_warm_start.json
# itself, the serving bench BENCH_serve.json, the batched-cost-model bench
# BENCH_cost_batch.json (its micro cases also time the mapping search's
# stages: CmaEs ask, ask_from over pre-drawn normals and tell, decode, and
# search_mapping drawing its own normals or sharing one stream per layer),
# the async-pipeline bench BENCH_async.json, the
# transformer smoke BENCH_transformer.json (batch==scalar and warm
# zero-search asserted on matmul/attention workloads), the surrogate bench
# BENCH_surrogate.json (roofline pruning saves mapping searches with the
# returned best asserted unchanged), the TCP transport bench
# BENCH_net.json, the sharded-fleet bench BENCH_fleet.json (byte identity
# to a single service, failover latency, and zero-search rejoin asserted);
# table4 prints the serial-vs-parallel and cold-vs-warm comparisons.
run_bench bench_cost_batch
run_bench bench_transformer
run_bench bench_async_pipeline
run_bench bench_surrogate
run_bench bench_parallel_scaling
run_bench bench_serve_throughput
run_bench bench_net
run_bench bench_fleet
run_bench table4_search_cost

if [ "${NAAS_BENCH_ALL:-0}" = "1" ]; then
  for b in fig4_convergence fig5_multi_network fig6_single_network \
           fig7_searched_archs fig8_sizing_ablation fig9_encoding_ablation \
           fig10_nas_codesign table3_nasaic ablation_design_choices; do
    run_bench "$b"
  done
fi

echo
echo "artifacts:"
ls -1 "$BUILD_DIR"/BENCH_*.json

# Fold every per-bench reproduction artifact into one BENCH_summary.json so
# trend tooling reads a single file. Keyed by the artifact's basename
# without the BENCH_ prefix; google-benchmark *_micro.json dumps stay
# separate (they are per-machine timings, not tracked properties).
python3 - "$BUILD_DIR" <<'EOF'
import glob, json, os, sys

build = sys.argv[1]
summary = {}
for path in sorted(glob.glob(os.path.join(build, "BENCH_*.json"))):
    base = os.path.basename(path)[len("BENCH_"):-len(".json")]
    if base == "summary" or base.endswith("_micro"):
        continue
    with open(path) as f:
        summary[base] = json.load(f)
out = os.path.join(build, "BENCH_summary.json")
with open(out, "w") as f:
    json.dump(summary, f, indent=2, sort_keys=True)
    f.write("\n")
print("summary:", out, "(%d benches)" % len(summary))
EOF
