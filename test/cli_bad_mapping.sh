#!/usr/bin/env bash
# Exit-code contract of `eval` and `simulate` given a mapping that does
# not fit the instance (a processor outside the platform, or a stage
# count that disagrees with the application): exit 2, empty stdout (the
# instance must NOT be printed before the rejection) and one diagnostic
# line on stderr, in Cost's wording — the same line both commands print
# and the body the daemon's /simulate answers with its 400. A churn
# trace that `simulate --crash-trace` cannot replay (a malformed row, or
# a well-formed one that Churn.validate rejects) is held to the same
# contract.
set -u
bin="$1"
fail() { echo "cli_bad_mapping: $1" >&2; exit 1; }

inst=(--works 4,8,2,6 --deltas 10,20,30,20,10 --speeds 2,4,1)

check() {
  local mapping="$1" expected="$2" cmd out code err
  for cmd in eval simulate; do
    out=$("$bin" "$cmd" "${inst[@]}" -m "$mapping" 2>/tmp/cli-map-err.$$)
    code=$?
    err=$(cat /tmp/cli-map-err.$$); rm -f /tmp/cli-map-err.$$
    [ "$code" -eq 2 ] || fail "$cmd -m '$mapping': expected exit 2, got $code"
    [ -z "$out" ] || fail "$cmd -m '$mapping': expected empty stdout, got: $out"
    [ "$(printf '%s' "$err" | wc -l)" -eq 0 ] \
      || fail "$cmd -m '$mapping': expected one-line stderr, got: $err"
    case "$err" in
      *"$expected") ;;
      *) fail "$cmd -m '$mapping': unexpected diagnostic: $err" ;;
    esac
  done
}

check '1-2:0 3-4:7' "Cost: mapping references processors outside the platform"
check '1-2:0 3-5:1' "Cost: mapping and application disagree on n"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

check_trace() {
  local rows="$1" expected="$2" out code err
  printf '%s\n' "$rows" >"$tmp/trace.csv"
  out=$("$bin" simulate --family e2 --stages 6 --procs 3 \
    --crash-trace "$tmp/trace.csv" 2>"$tmp/err")
  code=$?
  err=$(cat "$tmp/err")
  [ "$code" -eq 2 ] || fail "trace '$rows': expected exit 2, got $code"
  [ -z "$out" ] || fail "trace '$rows': expected empty stdout, got: $out"
  [ "$(printf '%s' "$err" | wc -l)" -eq 0 ] \
    || fail "trace '$rows': expected one-line stderr, got: $err"
  case "$err" in
    *"$expected") ;;
    *) fail "trace '$rows': unexpected diagnostic: $err" ;;
  esac
}

check_trace '1,0,recover' "Churn.validate: recovery of a processor that is up"
check_trace '1,7,crash' "Churn.validate: processor out of range"
check_trace 'garbage' "line 1: expected at,proc,event[,factor]"

echo "cli bad-mapping contract: ok"
