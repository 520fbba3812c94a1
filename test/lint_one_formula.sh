#!/usr/bin/env bash
# The one-formula rule of DESIGN.md §8: lib/core, lib/het, lib/deal,
# lib/ft and lib/optimal evaluate equations (1)-(2) only through Cost, so
# none of their sources reads a message size, a work sum, a bandwidth or
# a speed.
# Two reads in lib/ft/ft_remap.ml evaluate neither equation and are
# allowed by the name of their binding:
#   - sub_platform: building the survivor platform (speeds, bandwidths);
#   - migration_volume: summing the message sizes of migrated stages.
# Three files of lib/optimal keep their own arithmetic and are exempt by
# name:
#   - branch_bound.ml: its child loop adds Cost's terms in Cost's
#     association without a cross-module call per term. Moving it onto
#     Cost.contrib/Cost.cycle read the exact workload 15.89 -> 12.30
#     runs/s (1 of 8 alternating pairs won) and its p99 106 -> 181 ms
#     (bench/perf, 2 vCPUs);
#   - homogeneous.ml: the independent oracle Cost is checked against;
#   - one_to_one.ml: it adds (δ_{k-1} + δ_k)/b + w/s, a different
#     association.
# Usage: lint_one_formula.sh LIB_DIR
set -u
lib="$1"
pattern='Application\.(delta|work_sum)|Platform\.(bandwidth|io_bandwidth|speed)'

hits=$(
  for dir in core het deal ft optimal; do
    for file in "$lib/$dir"/*.ml; do
      case "$dir/$(basename "$file")" in
        optimal/branch_bound.ml | optimal/homogeneous.ml | optimal/one_to_one.ml) continue ;;
      esac
      awk -v file="$dir/$(basename "$file")" -v pattern="$pattern" '
        # In ft_remap.ml, the survivor platform spans from its binding to
        # the "in" at the same indentation.
        file == "ft/ft_remap.ml" && /let sub_platform =/ {
          allowed = 1
          match($0, /^ */)
          close_line = substr($0, 1, RLENGTH) "in"
        }
        allowed && $0 == close_line { allowed = 0 }
        $0 ~ pattern {
          if (file == "ft/ft_remap.ml" && (allowed || /migration_volume/)) next
          print file ":" FNR ": " $0
        }' "$file"
    done
  done
)

if [ -n "$hits" ]; then
  echo "lint_one_formula: period/latency arithmetic outside Cost (DESIGN.md §8):" >&2
  printf '%s\n' "$hits" >&2
  exit 1
fi
echo "one-formula lint: ok"
