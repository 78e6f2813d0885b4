#!/bin/sh
# serve_smoke.sh — the CI smoke test for oraql-serve. Builds the
# server, starts it, exercises every endpoint with the checked-in
# example program, asserts the second identical compilation is served
# from the cross-request cache (both in the response body and as a
# nonzero /metrics counter), runs a probe campaign end to end through
# both curl and the `oraql probe -server` client mode, and finally
# checks that SIGTERM drains cleanly. Run from the repo root:
#
#   scripts/serve_smoke.sh [port]
set -eu
port="${1:-8399}"
base="http://127.0.0.1:$port"
bin="${TMPDIR:-/tmp}/oraql-serve-smoke"
log="${TMPDIR:-/tmp}/oraql-serve-smoke.log"

fail() { echo "serve_smoke: FAIL: $*" >&2; [ -f "$log" ] && tail -20 "$log" >&2; exit 1; }

go build -o "$bin" ./cmd/oraql-serve
"$bin" -addr "127.0.0.1:$port" >"$log" 2>&1 &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT INT TERM

# Wait for the listener.
i=0
until curl -fs "$base/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	[ "$i" -gt 50 ] && fail "server did not come up"
	sleep 0.2
done
echo "serve_smoke: server up on $base"

# 1. First compilation: a cache miss.
first=$(curl -fs -X POST -H 'Content-Type: application/json' \
	--data @examples/serve/compile-request.json "$base/v1/compile")
echo "$first" | grep -q '"cached": false' || fail "first compile should miss the cache: $first"
echo "$first" | grep -q '"exe_hash"' || fail "compile result carries no exe hash: $first"

# 2. Identical resubmission: must be served from the cache.
second=$(curl -fs -X POST -H 'Content-Type: application/json' \
	--data @examples/serve/compile-request.json "$base/v1/compile")
echo "$second" | grep -q '"cached": true' || fail "resubmission was not a cache hit: $second"
echo "serve_smoke: compile cache hit observed"

# 3. The hit is visible on /metrics as a nonzero counter.
metrics=$(curl -fs "$base/metrics")
hits=$(echo "$metrics" | awk '$1 == "oraql_result_cache_hits_total" { print $2 }')
[ -n "$hits" ] || fail "oraql_result_cache_hits_total missing from /metrics"
[ "$hits" -ge 1 ] 2>/dev/null || fail "oraql_result_cache_hits_total = $hits, want >= 1"
compiles=$(echo "$metrics" | awk '$1 == "oraql_compiles_total" { print $2 }')
[ "$compiles" -ge 1 ] 2>/dev/null || fail "oraql_compiles_total = $compiles, want >= 1"
echo "serve_smoke: metrics report $hits cache hit(s)"

# 4. Probe campaign via the raw API: submit, poll to completion.
job=$(curl -fs -X POST -H 'Content-Type: application/json' \
	--data @examples/serve/probe-request.json "$base/v1/probe")
id=$(echo "$job" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$id" ] || fail "probe submission returned no job id: $job"
i=0
while :; do
	info=$(curl -fs "$base/v1/jobs/$id")
	state=$(echo "$info" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' | head -1)
	case "$state" in
	done) break ;;
	failed | canceled) fail "probe job $id ended $state: $info" ;;
	esac
	i=$((i + 1))
	[ "$i" -gt 150 ] && fail "probe job $id still $state after 30s"
	sleep 0.2
done
echo "$info" | grep -q '"final_seq"' || fail "probe result carries no final_seq: $info"
echo "serve_smoke: probe job $id done"

# 5. The same probe through the CLI client (-server mode).
go run ./cmd/oraql probe -file examples/serve/sum.mc -server "$base" |
	grep -q 'fully optimistic' || fail "oraql probe -server produced no summary"
echo "serve_smoke: oraql probe -server OK"

# 6. SIGTERM must drain cleanly.
kill -TERM "$pid"
i=0
while kill -0 "$pid" 2>/dev/null; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && fail "server did not exit after SIGTERM"
	sleep 0.1
done
trap - EXIT INT TERM
grep -q 'drained cleanly' "$log" || fail "no clean-drain line in the server log"
echo "serve_smoke: PASS"
