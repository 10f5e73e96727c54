#!/usr/bin/env python3
"""Compare two sets of naasbench runs against the bounds in BENCHMARK.json.

    python3 naasbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds run records written by `run.py --out` (run.sh writes
one per workload and seed). Only untraced records count. For every
(workload, end-to-end metric) pair it prints, in its own row, each side's
median and quartiles, the parent's spread (interquartile range / median),
the bound, the wins of the change over pairs of runs with the same seed,
and a verdict:

  regression  the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's own spread exceeds the bound, so a change of
              that size cannot be told from noise (unless every change run
              reads better than every parent run: then "better")
  gain        at least 10 pairs, the change wins at least 9/10 of them
              (ties count for neither), and the medians differ by more than
              the parent's interquartile range
  ok          none of the above: no regression, and no gain claimed

Runs whose record is flagged invalid (the load generator, not the served
system, limited the load) are left out of the timings and counted; an
incorrect run is reported and fails the compare.

The program's outputs must not change either: for every workload and seed
run on both sides, each record's `identity` (the searched design's
fingerprint and EDP bits, or a digest of the served reference responses)
must be equal, or the compare fails.

Exit status: 0 when there is no regression, no output changed and every
run was correct.
"""

import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(d):
    """Correct untraced records in `d`, and the incorrect ones' names."""
    runs, incorrect = [], []
    for path in sorted(Path(d).glob("*.json")):
        try:
            rec = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(rec, dict) or rec.get("trace", True):
            continue
        if rec.get("correct", False):
            runs.append(rec)
        else:
            incorrect.append(path.name)
    return runs, incorrect


def identity_mismatches(parent, change):
    """(workload, seed) pairs run on both sides; those whose outputs differ."""
    want = {(r["workload"], r["seed"]): r.get("identity", {}) for r in parent}
    pairs, bad = 0, []
    for r in change:
        key = (r["workload"], r["seed"])
        if key not in want:
            continue
        pairs += 1
        got = r.get("identity", {})
        for name in sorted(set(want[key]) | set(got)):
            if want[key].get(name) != got.get(name):
                bad.append((*key, name, want[key].get(name), got.get(name)))
    return pairs, bad


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    pv = [v for _, v in parent]
    cv = [v for _, v in change]
    pm, cm = statistics.median(pv), statistics.median(cv)
    pq1, pq3 = quartiles(pv)
    spread = (pq3 - pq1) / pm if pm else 0.0
    worse = (cm - pm) / pm if lower else (pm - cm) / pm
    by_seed = dict(parent)
    pairs = [(by_seed[s], v) for s, v in change if s in by_seed]
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    all_better = (max(cv) < min(pv)) if lower else (min(cv) > max(pv))
    if worse > bound:
        v = "regression"
    elif spread > bound:
        v = "better" if all_better else "unresolved"
    elif (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
          and abs(cm - pm) > pq3 - pq1):
        v = "gain"
    else:
        v = "ok"
    return pm, (pq1, pq3), cm, quartiles(cv), spread, worse, wins, len(pairs), v


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    p_all, p_bad = load(sys.argv[1])
    c_all, c_bad = load(sys.argv[2])
    parent = [r for r in p_all if r.get("valid", True)]
    change = [r for r in c_all if r.get("valid", True)]
    print(f"parent: {len(parent)} valid runs, {len(p_all) - len(parent)} "
          f"invalid, {len(p_bad)} incorrect")
    print(f"change: {len(change)} valid runs, {len(c_all) - len(change)} "
          f"invalid, {len(c_bad)} incorrect")
    for name in p_bad + c_bad:
        print(f"INCORRECT RUN: {name}")
    pairs, changed = identity_mismatches(p_all, c_all)
    print(f"outputs: {pairs} (workload, seed) pairs compared, "
          f"{len(changed)} differences")
    for w, seed, name, was, now in changed:
        print(f"OUTPUT CHANGED: {w} seed {seed} {name}: {was} -> {now}")

    header = (f"{'workload':<13} {'metric':<12} {'parent median [q1,q3]':<34} "
              f"{'change median [q1,q3]':<34} {'worse':>7} {'spread':>7} "
              f"{'bound':>6} {'wins':>6}  verdict")
    print(header)
    regressions = 0
    for w in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            def series(runs):
                return [(r["seed"], r["metrics"][m["name"]]["value"])
                        for r in runs if r["workload"] == w
                        and m["name"] in r["metrics"]]
            p, c = series(parent), series(change)
            if not p or not c:
                print(f"{w:<13} {m['name']:<12} no runs")
                continue
            pm, pq, cm, cq, spread, worse, wins, n, v = verdict(m, p, c)
            regressions += v == "regression"
            fmt = lambda med, q: f"{med:.5g} [{q[0]:.5g},{q[1]:.5g}]"
            print(f"{w:<13} {m['name']:<12} {fmt(pm, pq):<34} "
                  f"{fmt(cm, cq):<34} {worse:>+7.1%} {spread:>7.1%} "
                  f"{m['bound']:>6.0%} {wins:>3}/{n:<2}  {v}")
    sys.exit(1 if regressions or changed or p_bad or c_bad else 0)


if __name__ == "__main__":
    main()
