#!/usr/bin/env bash
# The one-formula rule of DESIGN.md §8: lib/core, lib/het, lib/deal,
# lib/ft and lib/optimal evaluate equations (1)-(2) only through Cost, so
# none of their sources reads a message size, a work sum, a bandwidth or
# a speed.
# Two files of lib/optimal keep their own arithmetic and are exempt by
# name:
#   - branch_bound.ml: its child loop adds Cost's terms in Cost's
#     association without a cross-module call per term. Moving it onto
#     Cost.contrib/Cost.cycle read the exact workload 15.89 -> 12.30
#     runs/s (1 of 8 alternating pairs won) and its p99 106 -> 181 ms
#     (bench/perf, 2 vCPUs);
#   - homogeneous.ml: the independent oracle Cost is checked against.
# Usage: lint_one_formula.sh LIB_DIR
set -u
lib="$1"
pattern='Application\.(delta|work_sum)|Platform\.(bandwidth|io_bandwidth|speed)'

hits=$(
  for dir in core het deal ft optimal; do
    for file in "$lib/$dir"/*.ml; do
      case "$dir/$(basename "$file")" in
        optimal/branch_bound.ml | optimal/homogeneous.ml) continue ;;
      esac
      awk -v file="$dir/$(basename "$file")" -v pattern="$pattern" '
        $0 ~ pattern { print file ":" FNR ": " $0 }' "$file"
    done
  done
)

if [ -n "$hits" ]; then
  echo "lint_one_formula: period/latency arithmetic outside Cost (DESIGN.md §8):" >&2
  printf '%s\n' "$hits" >&2
  exit 1
fi
echo "one-formula lint: ok"
