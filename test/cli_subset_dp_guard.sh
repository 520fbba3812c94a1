#!/usr/bin/env bash
# Exit-code contract of the comm-hom exact paths past the subset DP's
# processor cap: `solve --exact` under a latency threshold and `pareto`
# on a web-scale E6 instance (20 000 stages, 200 processors) exit 2
# with Subset_dp's own one-line diagnostic on stderr. Both check the cap
# before they enumerate candidate periods: that array would hold about
# 2·10⁸ values per distinct speed at this size. The 1 GB address-space
# cap turns such an enumeration into a failure here instead of a
# machine-wide memory squeeze.
set -u
bin="$1"
fail() { echo "cli_subset_dp_guard: $1" >&2; exit 1; }

expect_guard() {
  err=$( (ulimit -v 1000000 && "$bin" "$@" >/dev/null) 2>&1)
  code=$?
  [ "$code" -eq 2 ] || fail "$1: expected exit 2 past the subset DP cap, got $code: $err"
  [ "$(printf '%s' "$err" | wc -l)" -eq 0 ] || fail "$1: expected one-line stderr, got: $err"
  case "$err" in
    *"Subset_dp: p must be <= 16 (got 200)"*) ;;
    *) fail "$1: diagnostic lost the Subset_dp wording: $err" ;;
  esac
}
expect_guard solve --family e6 --stages 20000 --procs 200 --latency 1e9 --exact
expect_guard pareto --family e6 --stages 20000 --procs 200

echo "cli subset-dp-guard contract: ok"
