#!/bin/sh
# Records the compile benchmarks into BENCH_compile.json:
#
#   - per-configuration compile wall time with the analysis cache
#     enabled ("cached") and with force-invalidation ("forced"), plus
#     the cache hit rate;
#   - the per-function parallel pass scheduler at 1/2/4/8 workers,
#     warm (cached analyses) and cold (force-invalidated), with the
#     w1/w4 warm speedup. Speedup is bounded by the recorded
#     gomaxprocs — on a single-core host every width ties at ~1.0.
#
# Run from the repo root:
#
#   scripts/bench_compile.sh [count]
#
# Every configuration must show a hit rate > 0 — the pipeline reuses
# CFG info and MemorySSA across passes whenever the previous pass
# declared them preserved.
set -eu
count="${1:-3}"
out="BENCH_compile.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench 'Compile_AnalysisCache|Compile_Workers' -benchtime=1x \
	-count="$count" . | tee "$raw"

gomaxprocs="$(go run ./scripts/gomaxprocs 2>/dev/null || nproc)"

awk -v gomaxprocs="$gomaxprocs" -v ncpu="$(nproc 2>/dev/null || echo 1)" '
/^BenchmarkCompile_AnalysisCache\// {
	split($1, parts, "/")
	cfg = parts[2]
	mode = parts[3]; sub(/-[0-9]+$/, "", mode)
	key = cfg SUBSEP mode
	ns[key] += $3; n[key]++
	if (!(cfg in seen)) { order[++ncfg] = cfg; seen[cfg] = 1 }
	for (i = 5; i < NF; i += 2) {
		if ($(i+1) == "analysis-hit-%") hit[key] = $i
		if ($(i+1) == "analysis-hits") hits[key] = $i
		if ($(i+1) == "analysis-misses") miss[key] = $i
	}
}
/^BenchmarkCompile_Workers\// {
	split($1, parts, "/")
	cfg = parts[2]
	w = parts[3]
	mode = parts[4]; sub(/-[0-9]+$/, "", mode)
	key = cfg SUBSEP w SUBSEP mode
	wns[key] += $3; wn[key]++
	if (!(cfg in wseen)) { worder[++nwcfg] = cfg; wseen[cfg] = 1 }
}
function wms(cfg, w, mode,    k) {
	k = cfg SUBSEP w SUBSEP mode
	return wns[k] / wn[k] / 1e6
}
END {
	printf "{\n  \"cpus\": %d,\n  \"gomaxprocs\": %d,\n", ncpu, gomaxprocs
	printf "  \"configs\": {\n"
	for (j = 1; j <= ncfg; j++) {
		cfg = order[j]
		ck = cfg SUBSEP "cached"; fk = cfg SUBSEP "forced"
		cms = ns[ck] / n[ck] / 1e6; fms = ns[fk] / n[fk] / 1e6
		printf "    \"%s\": {\n", cfg
		printf "      \"cached_ms\": %.2f,\n", cms
		printf "      \"forced_ms\": %.2f,\n", fms
		printf "      \"speedup\": %.2f,\n", fms / cms
		printf "      \"analysis_hits\": %d,\n", hits[ck]
		printf "      \"analysis_misses\": %d,\n", miss[ck]
		printf "      \"analysis_hit_pct\": %.2f\n", hit[ck]
		printf "    }%s\n", (j < ncfg) ? "," : ""
	}
	printf "  },\n  \"workers\": {\n"
	for (j = 1; j <= nwcfg; j++) {
		cfg = worder[j]
		printf "    \"%s\": {\n", cfg
		printf "      \"w1_warm_ms\": %.2f,\n", wms(cfg, "w1", "warm")
		printf "      \"w2_warm_ms\": %.2f,\n", wms(cfg, "w2", "warm")
		printf "      \"w4_warm_ms\": %.2f,\n", wms(cfg, "w4", "warm")
		printf "      \"w8_warm_ms\": %.2f,\n", wms(cfg, "w8", "warm")
		printf "      \"w1_cold_ms\": %.2f,\n", wms(cfg, "w1", "cold")
		printf "      \"w2_cold_ms\": %.2f,\n", wms(cfg, "w2", "cold")
		printf "      \"w4_cold_ms\": %.2f,\n", wms(cfg, "w4", "cold")
		printf "      \"w8_cold_ms\": %.2f,\n", wms(cfg, "w8", "cold")
		printf "      \"speedup_w4\": %.2f\n", wms(cfg, "w1", "warm") / wms(cfg, "w4", "warm")
		printf "    }%s\n", (j < nwcfg) ? "," : ""
	}
	printf "  }\n}\n"
}' "$raw" > "$out"
echo "wrote $out"
