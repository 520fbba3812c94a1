#!/usr/bin/env python3
"""Gating perf-baseline comparison for CI.

Usage: compare_perf_baseline.py BASELINE.json CURRENT.json

Counters are deterministic — DESIGN.md guarantees bit-identical values at
any --jobs — so ANY drift against test/perf-baseline.json is a real
algorithmic change, never noise. The comparison therefore FAILS (exit 1)
on the slightest counter mismatch, including counters that appear or
disappear. When an intentional algorithm change lands, refresh the
baseline in the same PR:

    dune exec bench/main.exe -- --quick --metrics --perf-summary --out ci-results
    cp ci-results/perf-summary.json test/perf-baseline.json

and record the why in DESIGN.md / EXPERIMENTS.md.

The "exact_jobs" block (wall-clocks of the exact-solver stack at 1/4/8
domains, same bit-identical work per width) gates the task-tree speedup:
when the CURRENT machine reports >= 8 cores, every ladder entry must
reach MIN_EXACT_SPEEDUP at jobs 8 vs jobs 1 (DESIGN.md §14). On smaller
machines the speedup is physically unreachable, so the check degrades to
a non-blocking report. Baseline exact_jobs values are never compared —
they are machine wall-clocks, not determinism material.
"""

import json
import sys

MIN_EXACT_SPEEDUP = 3.0  # jobs-8 vs jobs-1, gating only with >= 8 cores


def main() -> int:
    if len(sys.argv) != 3:
        print(f"usage: {sys.argv[0]} BASELINE.json CURRENT.json", file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        base = json.load(f)
    with open(sys.argv[2]) as f:
        cur = json.load(f)

    bc = base.get("counters", {})
    cc = cur.get("counters", {})
    failures = []
    for name in sorted(set(bc) | set(cc)):
        b, c = bc.get(name), cc.get(name)
        if b == c:
            print(f"{name:44s} {b:>12d}  ok")
        elif b is None:
            failures.append(f"{name}: new counter (current {c}), not in baseline")
        elif c is None:
            failures.append(f"{name}: in baseline ({b}) but missing from current run")
        else:
            failures.append(f"{name}: baseline {b} -> current {c} ({c - b:+d})")

    # Task-tree speedup gate: jobs-8 vs jobs-1 on the exact-solver
    # ladder, enforced only where the hardware can express it.
    speedup_failures = []
    ej = cur.get("exact_jobs", {})
    cores = cur.get("cores", 0)
    gate = cores >= 8
    for name in sorted(ej):
        t1 = ej[name].get("jobs_1_s")
        t8 = ej[name].get("jobs_8_s")
        if not t1 or not t8 or t8 <= 0:
            continue
        speedup = t1 / t8
        status = "ok" if speedup >= MIN_EXACT_SPEEDUP else (
            "FAIL" if gate else "below target (not gated: <8 cores)"
        )
        print(
            f"exact_jobs {name:30s} j1 {t1:.3f}s  j8 {t8:.3f}s  "
            f"speedup {speedup:.2f}x  {status}"
        )
        if gate and speedup < MIN_EXACT_SPEEDUP:
            speedup_failures.append(
                f"{name}: jobs-8 speedup {speedup:.2f}x < {MIN_EXACT_SPEEDUP:.1f}x"
            )

    if failures or speedup_failures:
        print()
        for f in failures:
            print(f"FAIL  {f}")
        for f in speedup_failures:
            print(f"FAIL  {f}")
        if failures:
            print(
                "::error::deterministic counter drift vs test/perf-baseline.json — "
                "a real algorithmic change; refresh the baseline deliberately if "
                "it is intended (see scripts/compare_perf_baseline.py)"
            )
        if speedup_failures:
            print(
                "::error::exact-solver task-tree speedup below the "
                f"{MIN_EXACT_SPEEDUP:.1f}x jobs-8 target (DESIGN.md §14)"
            )
        return 1
    print("perf baseline gate passed: all counters exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
