#!/bin/sh
# Records the probing benchmarks into BENCH_probe.json:
#
#   - sequential vs parallel driver: wall clock per workflow sweep,
#     speculation counts, and the alias-query cache hit rate;
#   - the strategy matrix: chunked / freq / bayes, cold and seeded
#     (a prior chunked campaign populated a disk cache), per app
#     configuration, with compile counts and conviction counts.
#
# Run from the repo root:
#
#   scripts/bench_probe.sh [count]
#
# On a single-core machine the parallel driver cannot overlap its
# speculative tests, so expect parallel >= sequential there; the >=2x
# speedup target is for multi-core hosts.
#
# The script fails if seeded bayes does not beat BOTH cold chunked and
# cold freq on compiles and wall clock on every configuration, or if a
# prefix-context strategy's conviction count diverges from chunked —
# the headline claims the matrix exists to pin.
set -eu
count="${1:-3}"
out="BENCH_probe.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench 'Probe_(Sequential|Parallel)' -benchtime=1x -benchmem \
	-count="$count" . | tee "$raw"
# The matrix averages wall clock over $count iterations per cell —
# single-shot timings on small configurations are too noisy for the
# strict win check below.
go test -run '^$' -bench 'Probe_StrategyMatrix' -benchtime="${count}x" \
	-count=1 . | tee -a "$raw"

awk -v ncpu="$(nproc 2>/dev/null || echo 1)" '
/^BenchmarkProbe_(Sequential|Parallel)/ {
	name = ($1 ~ /Sequential/) ? "sequential" : "parallel"
	ns[name] += $3; n[name]++
	for (i = 5; i < NF; i += 2) {
		if ($(i+1) == "aa-cache-hit-%") hit[name] = $i
		if ($(i+1) == "compiles") comp[name] = $i
		if ($(i+1) == "tests-speculated") spec[name] = $i
		if ($(i+1) == "tests-wasted") waste[name] = $i
	}
}
/^BenchmarkProbe_StrategyMatrix\// {
	split($1, parts, "/")
	strat = parts[2]; mode = parts[3]; cfg = parts[4]
	sub(/-[0-9]+$/, "", cfg)
	key = strat SUBSEP mode SUBSEP cfg
	mms[key] = $3 / 1e6
	for (i = 5; i < NF; i += 2) {
		if ($(i+1) == "compiles") mcomp[key] = $i
		if ($(i+1) == "convictions") mconv[key] = $i
	}
	if (!(cfg in seen)) { seen[cfg] = ++ncfg; cfgs[ncfg] = cfg }
}
END {
	printf "{\n"
	printf "  \"suite\": [\"lulesh-seq\", \"testsnap-openmp\", \"minigmg-sse\", \"quicksilver-openmp\"],\n"
	printf "  \"cpus\": %d,\n", ncpu
	for (name in ns) {
		printf "  \"%s\": {\n", name
		printf "    \"wall_clock_ms\": %.1f,\n", ns[name] / n[name] / 1e6
		printf "    \"compiles\": %d,\n", comp[name]
		printf "    \"tests_speculated\": %d,\n", spec[name]
		printf "    \"tests_wasted\": %d,\n", waste[name]
		printf "    \"aa_cache_hit_pct\": %.2f\n", hit[name]
		printf "  },\n"
	}
	printf "  \"strategy_matrix\": {\n"
	printf "    \"workers\": 1,\n"
	printf "    \"seeding\": \"one chunked campaign against a fresh disk cache, excluded from timing\",\n"
	printf "    \"rows\": [\n"
	nstrat = split("chunked freq bayes", strats, " ")
	sep = ""
	bad = 0
	for (s = 1; s <= nstrat; s++) {
		for (m = 1; m <= 2; m++) {
			mode = (m == 1) ? "cold" : "seeded"
			for (c = 1; c <= ncfg; c++) {
				key = strats[s] SUBSEP mode SUBSEP cfgs[c]
				if (!(key in mcomp)) continue
				printf "%s      {\"strategy\": \"%s\", \"mode\": \"%s\", \"config\": \"%s\", ", \
					sep, strats[s], mode, cfgs[c]
				printf "\"wall_ms\": %.1f, \"compiles\": %d, \"convictions\": %d}", \
					mms[key], mcomp[key], mconv[key]
				sep = ",\n"
			}
		}
	}
	printf "\n    ],\n"
	# The headline claims: seeded bayes beats cold chunked and cold
	# freq on compiles and wall clock everywhere, with conviction
	# counts identical to chunked (freq may convict a superset).
	for (c = 1; c <= ncfg; c++) {
		bk = "bayes" SUBSEP "seeded" SUBSEP cfgs[c]
		ck = "chunked" SUBSEP "cold" SUBSEP cfgs[c]
		fk = "freq" SUBSEP "cold" SUBSEP cfgs[c]
		if (!(bk in mcomp) || !(ck in mcomp) || !(fk in mcomp)) continue
		if (mcomp[bk] >= mcomp[ck] || mcomp[bk] >= mcomp[fk] ||
		    mms[bk] >= mms[ck] || mms[bk] >= mms[fk]) {
			printf "BENCH: seeded bayes does not win on %s\n", cfgs[c] > "/dev/stderr"
			bad = 1
		}
		if (mconv[bk] != mconv[ck]) {
			printf "BENCH: bayes convictions diverge from chunked on %s\n", cfgs[c] > "/dev/stderr"
			bad = 1
		}
	}
	printf "    \"seeded_bayes_beats_cold_chunked_and_freq_everywhere\": %s\n", bad ? "false" : "true"
	printf "  }\n"
	printf "}\n"
	exit bad
}' "$raw" > "$out"
echo "wrote $out"
