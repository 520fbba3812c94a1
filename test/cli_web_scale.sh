#!/usr/bin/env bash
# The web-size path of the splitting walk: H1 and H5 on the E6 instance
# at 50 000 stages and 1 000 processors, whose bottleneck intervals run
# to thousands of stages. Each must print the line the full two-way
# enumeration printed, bit for bit at the printed precision.
set -u
bin="$1"
fail() { echo "cli_web_scale: $1" >&2; exit 1; }

expect() {
  want="$1"
  shift
  out=$("$bin" solve --family e6 --stages 50000 --procs 1000 "$@" 2>&1)
  code=$?
  [ "$code" -eq 0 ] || fail "$*: expected exit 0, got $code: $out"
  case "$out" in
    *"$want"*) ;;
    *) fail "$*: line moved: $out" ;;
  esac
}
expect 'Sp mono, P fix     {512 intervals} period=289.45 latency=144414' \
  --heuristic H1 --period 300
expect 'Sp mono, L fix     {1000 intervals} period=253.3 latency=199715' \
  --heuristic H5 --latency 1e6

echo "cli web-scale contract: ok"
