#!/usr/bin/env bash
# Serve-daemon lifecycle smoke: start `pipeline_sched serve` on an
# ephemeral port, drive every endpoint through curl, check the warm
# cache answers byte-identically, then SIGTERM and require the clean
# shutdown line. Run by CI's serve job (and by hand:
# `bash scripts/serve_smoke.sh _build/default/bin/pipeline_sched.exe`).
set -euo pipefail

BIN="${1:?usage: serve_smoke.sh path/to/pipeline_sched.exe}"

workdir=$(mktemp -d)
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

"$BIN" serve --port 0 >"$workdir/daemon.log" 2>&1 &
pid=$!

# The daemon prints "pipeline-sched: serving on 127.0.0.1:PORT (jobs N)"
# once the socket is bound (the line format is load-bearing: this script
# parses it).
port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's/.*serving on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$workdir/daemon.log")
  [ -n "$port" ] && break
  kill -0 "$pid" 2>/dev/null || { echo "daemon died at startup:"; cat "$workdir/daemon.log"; exit 1; }
  sleep 0.1
done
[ -n "$port" ] || { echo "daemon never reported its port"; cat "$workdir/daemon.log"; exit 1; }
base="http://127.0.0.1:$port"
echo "daemon up on port $port"

fail() { echo "FAIL: $*"; exit 1; }

# /health
health=$(curl -sf "$base/health")
echo "$health" | grep -q '"status":"ok"' || fail "/health: $health"

# /solve — cold, then warm: byte-identical responses.
body='{"instance":{"works":[4,8,2,6],"deltas":[10,20,30,20,10],
       "platform":{"speeds":[2,4,1],"bandwidth":10}},"period":9}'
curl -sf -o "$workdir/solve1.json" -d "$body" "$base/solve" || fail "/solve rejected a valid request"
grep -q '"feasible":true' "$workdir/solve1.json" || fail "/solve: $(cat "$workdir/solve1.json")"
curl -sf -o "$workdir/solve2.json" -d "$body" "$base/solve"
cmp "$workdir/solve1.json" "$workdir/solve2.json" || fail "warm response differs from cold"

# /pareto and /simulate answer on the same instance.
curl -sf -d "$body" "$base/pareto" | grep -q '"points"' || fail "/pareto has no points"
curl -sf -d "$body" "$base/simulate" | grep -q '"stats"' || fail "/simulate has no stats"

# /simulate is bounded: over 10^6 (interval, data set) pairs is a 400
# before any simulation, and the daemon keeps serving.
status=$(curl -s -o "$workdir/big.json" -w '%{http_code}' \
  -d "${body%\}},\"mapping\":\"1-2:1 3-4:0\",\"datasets\":500001}" "$base/simulate")
[ "$status" = 400 ] || fail "over-bound /simulate gave $status, want 400"
grep -q "1000002 (interval, data set) pairs exceeds the bound of 1000000" "$workdir/big.json" \
  || fail "wrong bound wording: $(cat "$workdir/big.json")"
curl -sf -d "$body" "$base/simulate" | grep -q '"stats"' || fail "/simulate after an over-bound request"

# Error model: unknown heuristic is HTTP 400 with the registry's wording.
status=$(curl -s -o "$workdir/err.json" -w '%{http_code}' \
  -d "${body%\}},\"heuristic\":\"nope\"}" "$base/solve")
[ "$status" = 400 ] || fail "unknown heuristic gave $status, want 400"
grep -q "unknown heuristic nope" "$workdir/err.json" || fail "wrong 400 wording: $(cat "$workdir/err.json")"

# /metrics exposes the serve counters in Prometheus text format. The
# body goes through a file: piped into grep -q, curl can die of SIGPIPE
# once grep has its match, and pipefail turns that into a failure.
curl -sf -o "$workdir/metrics.txt" "$base/metrics" || fail "/metrics rejected"
grep -q '^serve_requests ' "$workdir/metrics.txt" || fail "/metrics lacks serve_requests"

# Graceful shutdown on SIGTERM.
kill -TERM "$pid"
for _ in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$pid" 2>/dev/null && fail "daemon survived SIGTERM"
wait "$pid" 2>/dev/null || true
pid=""
grep -q "server stopped" "$workdir/daemon.log" || fail "no clean shutdown line: $(cat "$workdir/daemon.log")"

echo "serve smoke passed"
