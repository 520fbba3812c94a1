#!/usr/bin/env bash
# Exit-code contract of the fully-het exact paths (`solve --exact` and
# `pareto` on a het platform): an instance past the exhaustive
# enumeration guard is
#   - exit 2, one diagnostic line on stderr, empty stdout tail — and the
#     diagnostic reports the ACTUAL mapping count next to the bound and
#     says the bound is --jobs-independent (Exhaustive.oversized, the
#     same wording the serve daemon returns as its HTTP 400 body);
#   - an admissible size on the same path still exits 0.
# `simulate` without --mapping on a het platform runs the het splitter's
# mapping, as the daemon's /simulate does. On a het platform `solve`
# honours --exact with a chosen het row and --polish on the default
# het-splitting line.
set -u
bin="$1"
fail() { echo "cli_het_exact_guard: $1" >&2; exit 1; }

expect_guard() {
  "$bin" "$@" >/dev/null 2>/tmp/cli-het-err.$$
  code=$?
  err=$(cat /tmp/cli-het-err.$$); rm -f /tmp/cli-het-err.$$

  [ "$code" -eq 2 ] || fail "$1: expected exit 2 past the enumeration guard, got $code"
  [ "$(printf '%s' "$err" | wc -l)" -eq 0 ] || fail "$1: expected one-line stderr, got: $err"
  case "$err" in
    *"too large for the exact solver"*) ;;
    *) fail "$1: diagnostic lost the guard wording: $err" ;;
  esac
  case "$err" in
    *"interval mappings exceed the"*) ;;
    *) fail "$1: diagnostic must report the actual mapping count: $err" ;;
  esac
  case "$err" in
    *"--jobs-independent"*) ;;
    *) fail "$1: diagnostic must state the bound is --jobs-independent: $err" ;;
  esac
}
# n=30, p=8 on the fully-het e5 family: ~1e10 interval mappings, far
# past the 1e7 guard; deterministic instance, no files needed.
expect_guard solve --family e5 --stages 30 --procs 8 --period 100 --exact
expect_guard pareto --family e5 --stages 30 --procs 8

# Same paths, admissible size: the oracle runs and the CLI exits 0.
"$bin" solve --family e5 --stages 5 --procs 3 --period 100 --exact \
  >/dev/null 2>&1 || fail "admissible het --exact solve should exit 0"
"$bin" pareto --family e5 --stages 5 --procs 3 \
  >/dev/null 2>&1 || fail "admissible het pareto should exit 0"
"$bin" simulate --family e5 --stages 6 --procs 4 \
  >/dev/null 2>&1 || fail "het simulate without --mapping should exit 0"

# --exact with a chosen het row prints the exact row after it, as the
# daemon's /solve answers the same request.
out=$("$bin" solve --family e5 --stages 5 --procs 3 --period 30 --exact \
  --heuristic het-sp-mono-p) || fail "het --exact --heuristic should exit 0"
printf '%s\n' "$out" | grep -q '^exact ' \
  || fail "het --exact --heuristic printed no exact line: $out"

# --polish without --heuristic runs local search on the het-splitting
# line, as it does for a chosen het row.
out=$("$bin" solve --family e5 --stages 5 --procs 3 --period 30 --polish) \
  || fail "het --polish should exit 0"
printf '%s\n' "$out" | grep -q '^  + local search ' \
  || fail "het --polish printed no local-search line: $out"

# Fully-het pareto keeps a running front, not one solution per mapping:
# its 1.45 M mappings at 10 stages x 7 processors fit under a 600 MB
# address-space cap, where holding every solution peaks near 940 MB
# resident. OCaml 5 reserves ~250 MB of address space for minor heaps,
# so caps below ~300 MB fail whatever the solver holds, and a second
# domain (--jobs 4) cannot start at 300 MB: hence 600 MB and --jobs 1.
big="pareto --family e5 --stages 10 --procs 7 --jobs 1"
uncapped=$("$bin" $big) || fail "uncapped $big should exit 0"
capped=$(ulimit -v 600000 && "$bin" $big) \
  || fail "$big should exit 0 under a 600 MB address-space cap"
[ "$capped" = "$uncapped" ] \
  || fail "$big printed a different front under the 600 MB cap"

echo "cli het-exact-guard contract: ok"
