#!/usr/bin/env bash
# One golden gate: run the bench harness with the given flags into a
# fresh directory and diff every artefact against the committed golden
# copy. Usage: golden_gate.sh BENCH_EXE GOLDEN_DIR BENCH_FLAGS...
set -eu
bench="$1"
golden="$2"
shift 2
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
"$bench" "$@" --out "$out" >/dev/null
diff -r "$golden" "$out"
