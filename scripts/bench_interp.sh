#!/bin/sh
# Records the interpreter benchmark into BENCH_interp.json: the speed
# of internal/irinterp over the 16 Fig. 4 configurations at OptLevel -1
# and 3 and as their fully optimistic ORAQL builds
# (BenchmarkInterp_AllConfigs), for a parent commit and for the
# working tree, in alternating pairs so that host drift hits both rows.
#
# Run from the repo root:
#
#   scripts/bench_interp.sh [parent-ref] [count]
#
# parent-ref defaults to HEAD~1 and count (pairs) to 3. The parent
# tree is exported with git archive into a temporary directory and
# gets the working tree's benchmark file, so a parent that predates
# the benchmark is measured the same way. Each row holds the median
# over its count samples of Minstr/s, ms/run and MB/run.
set -eu
parent="${1:-HEAD~1}"
count="${2:-3}"
out="BENCH_interp.json"
bench="internal/irinterp/bench_test.go"

rev="$(git rev-parse --short "$parent")"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$rev" | tar -x -C "$tmp/parent"
cp "$bench" "$tmp/parent/$bench"

run() {
	(cd "$1" && go test -run '^$' -bench 'Interp_AllConfigs' -benchtime=2s -count=1 ./internal/irinterp) |
		grep '^BenchmarkInterp_AllConfigs' | sed "s/^/$2 /"
}
: > "$tmp/bench.txt"
i=0
while [ "$i" -lt "$count" ]; do
	run "$tmp/parent" parent | tee -a "$tmp/bench.txt"
	run . change | tee -a "$tmp/bench.txt"
	i=$((i + 1))
done

awk -v ncpu="$(nproc 2>/dev/null || echo 1)" -v rev="$rev" -v count="$count" '
function median(list,   n, a, i, j, t) {
	n = split(list, a, " ")
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j-1] + 0 > a[j] + 0; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
	return (n % 2) ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
}
{
	row = $1
	for (i = 4; i < NF; i += 2) {
		if ($(i+1) == "Minstr/s") mi[row] = mi[row] " " $i
		if ($(i+1) == "ms/run") ms[row] = ms[row] " " $i
		if ($(i+1) == "runs/op") runs = $i
		if ($(i+1) == "B/op") bop[row] = bop[row] " " $i
	}
}
END {
	nrow = split("parent change", rows, " ")
	printf "{\n"
	printf "  \"benchmark\": \"BenchmarkInterp_AllConfigs\",\n"
	printf "  \"runs\": \"16 Fig. 4 configurations x {O-1, O3, fully optimistic}, %d runs per iteration\",\n", runs
	printf "  \"pairs\": %d,\n", count
	printf "  \"rows\": [\n"
	for (r = 1; r <= nrow; r++) {
		name = rows[r]
		m[name] = median(mi[name])
		printf "    {\"name\": \"%s\", \"ref\": \"%s\", \"cpus\": %d, ", name, (name == "parent") ? rev : "working tree", ncpu
		printf "\"minstr_per_s\": %.2f, \"ms_per_run\": %.2f, \"mb_per_run\": %.2f}%s\n", \
			m[name], median(ms[name]), median(bop[name]) / runs / 1e6, (r < nrow) ? "," : ""
	}
	printf "  ],\n"
	printf "  \"speedup_minstr_per_s\": %.2f\n", m["change"] / m["parent"]
	printf "}\n"
}' "$tmp/bench.txt" > "$out"
cat "$out"
