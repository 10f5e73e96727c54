#!/usr/bin/env bash
# Runs every naasbench workload once, one process per workload.
#
#   naasbench/run.sh [--seed N] [--trace] [--smoke] [--out DIR]
#
# Builds in Release on first use (under $CARGO_TARGET_DIR, default
# .bench_build), then prints `workload metric value unit` for every metric
# and detail of every workload, plus the host's hardware_concurrency.
# --trace runs the per-layer traced run instead (one Chrome trace per
# workload under .bench_build/naasbench-work/<workload>/). --smoke uses tiny
# budgets through the same code paths and checks; otherwise every run
# measures BENCHMARK.json's run_seconds. --out keeps each run's
# record as DIR/<workload>-seed<N>.json for compare.py. Exits non-zero if
# any workload failed a correctness gate.
set -euo pipefail

cd "$(dirname "$0")/.."
seed=1
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
trace=0
smoke=()
out=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --trace) trace=1; shift ;;
    --smoke) smoke=(--smoke); seconds=1; shift ;;
    --out) out="$2"; shift 2 ;;
    *) echo "usage: $0 [--seed N] [--trace] [--smoke] [--out DIR]" >&2
       exit 2 ;;
  esac
done

echo "hardware_concurrency $(nproc)"
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
status=0
for w in $workloads; do
  record=()
  if [[ -n "$out" ]]; then
    mkdir -p "$out"
    suffix=""
    [[ $trace == 1 ]] && suffix="-trace"
    record=(--out "$out/$w-seed$seed$suffix.json")
  fi
  # The last line is run.py's JSON summary; the lines before it are the
  # benchmark binary's `workload metric value unit` lines.
  if ! python3 naasbench/run.py --workload "$w" --seed "$seed" \
      --seconds "$seconds" --trace "$trace" "${smoke[@]}" "${record[@]}" |
      sed '$d'; then
    status=1
  fi
done
exit $status
