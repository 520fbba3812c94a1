#!/usr/bin/env bash
# Seed sweep: run every test suite (test/test_*.ml) under N random
# QCHECK_SEEDs and print one line per failing run,
#
#   QCHECK_SEED=<seed> <suite>
#
# then exit 1 if any run failed. Reproduce a failure with
#
#   (cd _build/default/test && QCHECK_SEED=<seed> ./<suite>.exe)
#
# Run from the root of the repository: `bash scripts/seed_sweep.sh 40`.
set -euo pipefail

n="${1:?usage: seed_sweep.sh N}"

suites=()
for f in test/test_*.ml; do
  suites+=("$(basename "$f" .ml)")
done
# The suites, and every golden file they may read relative to their
# directory.
dune build --root . --display quiet \
  $(printf 'test/%s.exe ' "${suites[@]}") test/golden-*/*

logs=$(mktemp -d)
trap 'rm -rf "$logs"' EXIT

cd _build/default/test
failed=0
for _ in $(seq 1 "$n"); do
  seed=$(( (RANDOM << 15) | RANDOM ))
  for suite in "${suites[@]}"; do
    if ! QCHECK_SEED=$seed "./$suite.exe" -o "$logs" >/dev/null 2>&1; then
      echo "QCHECK_SEED=$seed $suite"
      failed=1
    fi
  done
done
exit "$failed"
