#!/usr/bin/env bash
# The one-formula rule of DESIGN.md §8: lib/core, lib/het, lib/deal and
# lib/ft evaluate equations (1)-(2) only through Cost, so none of their
# sources reads a message size, a work sum, a bandwidth or a speed.
# Two reads in lib/ft/ft_remap.ml evaluate neither equation and are
# allowed by the name of their binding:
#   - sub_platform: building the survivor platform (speeds, bandwidths);
#   - migration_volume: summing the message sizes of migrated stages.
# Usage: lint_one_formula.sh LIB_DIR
set -u
lib="$1"
pattern='Application\.(delta|work_sum)|Platform\.(bandwidth|io_bandwidth|speed)'

hits=$(
  for dir in core het deal ft; do
    for file in "$lib/$dir"/*.ml; do
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
