#!/usr/bin/env bash
# Build the CLI and the benchmark from source, then run the benchmark
# with the given arguments. Run from the root of the repository:
#
#   bash bench/perf/run.sh --workload serve-warm --seed 7 --seconds 10 --trace 0
#
# Build output goes to stderr, so the benchmark's last stdout line stays
# its JSON result. Outside a complete checkout the build fails, and so
# does this script.
set -euo pipefail
dune build --root . --display quiet bin/pipeline_sched.exe bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
