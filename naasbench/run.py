#!/usr/bin/env python3
"""naasbench entry point: build the benchmark, run one workload, print it.

Run from the repository root:

    python3 naasbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--smoke] [--out RECORD.json]

The first run in a checkout configures and builds the library and the
naasbench binary in Release under $CARGO_TARGET_DIR (default .bench_build);
later runs rebuild incrementally. The binary prints one
`workload metric value unit` line per value; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics, holding
the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). --out keeps the binary's full record (details, checks,
validity) for compare.py. Exit status 0 when every correctness gate held.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"naasbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_root():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail("library sources (src/, CMakeLists.txt) not found next to "
             "naasbench/")
    # Keep compiler and benchmark temporaries inside the build tree.
    tmp = build_root() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    out = build_root() / "naasbench"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "naasbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step failed: {e}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return out / "naasbench"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny budgets, same code paths and checks")
    p.add_argument("--out", help="also write the binary's full record here")
    args = p.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        workloads = [w["name"] for w in spec["workloads"]]
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {workloads}")
    if args.seed < 0:
        fail("--seed must be non-negative")

    exe = build()
    work = build_root() / "naasbench-work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    record_path = work / "record.json"
    if record_path.exists():
        record_path.unlink()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(record_path),
           "--work-dir", str(work)]
    if args.trace:
        cmd.append("--trace")
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError) as e:
        fail(f"naasbench exited {proc.returncode} without a record: {e}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")

    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"naasbench did not report {m['name']} in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    attempted = int(record["attempted"])
    correct = (bool(record["correct"]) and proc.returncode == 0
               and attempted >= 1)
    print(json.dumps({"correct": correct,
                      "attempted": max(1, attempted),
                      "failed": int(record["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
