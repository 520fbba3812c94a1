#!/usr/bin/env python3
"""Compare two checkouts with the benchmark, in alternating pairs.

Usage:
  python3 scripts/bench_pairs.py --parent DIR --change DIR \
      [--workload W ...] [--pairs N] [--seed S] [--seconds T] [--layers]

For each workload (default: every workload in BENCHMARK.json), it runs
`bash bench/perf/run.sh --workload W --seed S --seconds T --trace 0` in
the parent and in the change checkout, N times each, alternating which
side runs first. Each run's result line (the benchmark's last stdout
line, one JSON object) and its `outputs_digest` line are printed as they
arrive, prefixed by the side and the pair.

Then, for each workload and each end-to-end metric of BENCHMARK.json, it
prints the parent's and the change's median [Q1, Q3], their ratio
(change / parent), and how many pairs the change won by the metric's
`better` direction (ties count for neither side). A row is marked
`over bound` when the change's median is worse than the parent's by more
than the metric's `bound`, and `unresolved` when the parent's own
quartile spread, (Q3 - Q1) / median, exceeds that bound. Each side's
failed/attempted samples, whether every run was `correct`, and whether
the two sides' digests are equal close each workload.

With --layers, each workload's pairs are followed by one traced run per
side (`--trace 1`, parent first), and every per-layer metric of
BENCHMARK.json is printed side by side: the parent's value, the change's
and their ratio (change / parent). A layer metric reads 0 on a workload
that never calls the layer; rows that read 0 on both sides are left out
and counted. One traced lap per side shows where a saving lands, not
whether it is larger than the noise: the pairs above decide that.

The exit status is non-zero only when a run prints no result line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    """(Q1, median, Q3) with linear interpolation between samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_once(checkout, workload, seed, seconds, trace=0):
    """One benchmark run: (result dict or None, digest or None)."""
    proc = subprocess.run(
        ["bash", "bench/perf/run.sh", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    result = digest = None
    for line in proc.stdout.splitlines():
        if line.startswith("outputs_digest "):
            digest = line.split(None, 1)[1].strip()
        elif line.startswith("{"):
            try:
                result = json.loads(line)
            except json.JSONDecodeError:
                pass
    if result is None:
        sys.stderr.write(proc.stderr[-2000:])
    return result, digest


def fmt(v):
    return f"{v:.4g}"


def summarise(workload, runs, metrics):
    """Print one workload's table; runs[side] is a list of (result, digest)."""
    print(f"\n== {workload}: {len(runs['parent'])} pairs")
    header = f"{'metric':<18} {'parent median [Q1, Q3]':<30} " \
             f"{'change median [Q1, Q3]':<30} {'ratio':>7} {'wins':>6}  flags"
    print(header)
    for m in metrics:
        name, better, bound = m["name"], m["better"], m["bound"]
        par = [r["metrics"][name]["value"] for r, _ in runs["parent"]]
        chg = [r["metrics"][name]["value"] for r, _ in runs["change"]]
        pq1, pmed, pq3 = quartiles(par)
        cq1, cmed, cq3 = quartiles(chg)
        ratio = cmed / pmed if pmed else float("nan")
        if better == "higher":
            wins = sum(c > p for p, c in zip(par, chg))
            worse = cmed < pmed * (1 - bound)
        else:
            wins = sum(c < p for p, c in zip(par, chg))
            worse = cmed > pmed * (1 + bound)
        flags = []
        if worse:
            flags.append("over bound")
        if pmed and (pq3 - pq1) / pmed > bound:
            flags.append("unresolved")
        print(f"{name:<18} "
              f"{fmt(pmed) + ' [' + fmt(pq1) + ', ' + fmt(pq3) + ']':<30} "
              f"{fmt(cmed) + ' [' + fmt(cq1) + ', ' + fmt(cq3) + ']':<30} "
              f"{ratio:>7.3f} {wins:>3}/{len(par):<2}  {', '.join(flags)}")
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r, _ in runs[side])
        attempted = sum(r["attempted"] for r, _ in runs[side])
        correct = all(r["correct"] for r, _ in runs[side])
        print(f"{side}: failed {failed}/{attempted}, correct {str(correct).lower()}")
    digests = {side: {d for _, d in runs[side]} for side in runs}
    same = digests["parent"] == digests["change"] and len(digests["parent"]) == 1
    print(f"outputs_digest equal: {str(same).lower()} "
          f"(parent {sorted(digests['parent'])}, change {sorted(digests['change'])})")


def layers(workload, traced, metrics):
    """Print one workload's per-layer metrics; traced[side] is a result."""
    print(f"\n== {workload}: per-layer metrics, one traced run per side")
    print(f"{'metric':<34} {'parent':>12} {'change':>12} {'ratio':>7}")
    omitted = 0
    for m in metrics:
        name = m["name"]
        par = traced["parent"]["metrics"][name]["value"]
        chg = traced["change"]["metrics"][name]["value"]
        if par == 0 and chg == 0:
            omitted += 1
            continue
        ratio = f"{chg / par:7.3f}" if par else f"{'-':>7}"
        print(f"{name:<34} {fmt(par):>12} {fmt(chg):>12} {ratio}  "
              f"{m['unit']}, {m['better']} is better")
    print(f"({omitted} metrics read 0 on both sides)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="change checkout")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=2007)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--layers", action="store_true",
                    help="add one traced run per side and compare the "
                         "per-layer metrics")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}

    missing = False
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {}
            for side in order:
                result, digest = run_once(sides[side], workload, args.seed,
                                          args.seconds)
                if result is None:
                    print(f"{workload} pair {i} {side}: no result line")
                    missing = True
                    continue
                print(f"{workload} pair {i} {side}: outputs_digest {digest}")
                print(f"{workload} pair {i} {side}: {json.dumps(result)}")
                sys.stdout.flush()
                pair[side] = (result, digest)
            if len(pair) == 2:
                pairs.append(pair)
        if pairs:
            runs = {side: [p[side] for p in pairs] for side in sides}
            summarise(workload, runs, bench["end_to_end"])
        if args.layers:
            traced = {}
            for side in ("parent", "change"):
                result, _ = run_once(sides[side], workload, args.seed,
                                     args.seconds, trace=1)
                if result is None:
                    print(f"{workload} traced {side}: no result line")
                    missing = True
                else:
                    print(f"{workload} traced {side}: {json.dumps(result)}")
                    sys.stdout.flush()
                    traced[side] = result
            if len(traced) == 2:
                layers(workload, traced, bench["per_layer"])
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
