#!/usr/bin/env bash
# The exact front past the candidate array's size cap: E1 at 3 000
# stages on 2 processors has 9·10⁶ interval-speed pairs, more than the
# 2²² candidate periods `pareto` may enumerate (one subset-DP solve
# each). Under a 1 GB address-space cap it exits 2 at once with one
# stderr line that names the count and the cap, instead of aborting in
# the allocator.
set -u
bin="$1"
fail() { echo "cli_pareto_guard: $1" >&2; exit 1; }

err=$( (ulimit -v 1000000 && "$bin" pareto --family e1 --stages 3000 --procs 2 >/dev/null) 2>&1)
code=$?
[ "$code" -eq 2 ] || fail "expected exit 2 past the array cap, got $code: $err"
[ "$(printf '%s' "$err" | wc -l)" -eq 0 ] || fail "expected one-line stderr, got: $err"
case "$err" in
  *"Bicriteria.pareto: 9003000 interval-speed pairs exceed the 2^22 cap"*) ;;
  *) fail "diagnostic lost the count or the cap: $err" ;;
esac

echo "cli pareto-guard contract: ok"
