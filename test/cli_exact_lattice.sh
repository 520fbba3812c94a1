#!/usr/bin/env bash
# The comm-hom exact solver past the candidate array's size cap: E1 at
# 3 000 stages on 2 processors has 9·10⁶ interval-speed pairs, more than
# the 2²² at which the period array is no longer built. `solve --exact`
# under a latency threshold searches the lattice of cycle-times instead,
# so under a 1 GB address-space cap it exits 0 and prints the subset
# DP's optimum (here the minimum period: the latency bound is loose).
set -u
bin="$1"
fail() { echo "cli_exact_lattice: $1" >&2; exit 1; }

out=$( (ulimit -v 1000000 && "$bin" solve --family e1 --stages 3000 --procs 2 \
  --latency 1e9 --exact) 2>&1)
code=$?
[ "$code" -eq 0 ] || fail "expected exit 0 past the array cap, got $code: $out"
expected='exact              {[1..625]->P1, [626..3000]->P0} period=1319.6 latency=2638.02'
case "$out" in
  *"$expected"*) ;;
  *) fail "exact line moved: $out" ;;
esac

echo "cli exact-lattice contract: ok"
