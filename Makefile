GO ?= go

.PHONY: tier1 fmt-check vet build test race bench bench-interp bench-compile bench-serve bench-diskcache bench-cluster bench-warehouse cluster-smoke serve-smoke campaign-smoke warehouse-smoke fuzz fuzz-smoke check

# tier1 is the gate the roadmap pins: it must stay green.
tier1: build test

# fmt-check fails when any Go file is not gofmt-formatted, listing it.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs once per GOMAXPROCS value: one core catches lost wakeups
# the scheduler hides, several catch real races in the parallel pass
# scheduler.
race:
	GOMAXPROCS=1 $(GO) test -race ./...
	GOMAXPROCS=4 $(GO) test -race ./...

# bench smoke-runs the probing benchmarks (1 iteration each); use
# scripts/bench_probe.sh to record a BENCH_probe.json baseline.
bench:
	$(GO) test -run '^$$' -bench 'Probe_(Sequential|Parallel)' -benchtime=1x .

# bench-interp smoke-runs the interpreter benchmark (all 16 configs at
# OptLevel -1 and 3, once); use scripts/bench_interp.sh to record a
# parent/change BENCH_interp.json.
bench-interp:
	$(GO) test -run '^$$' -bench 'Interp_AllConfigs' -benchtime=1x ./internal/irinterp

# bench-compile smoke-runs the compile benchmarks (analysis cache and
# the 1/2/4/8-worker parallel scheduler); use scripts/bench_compile.sh
# to record a BENCH_compile.json baseline.
bench-compile:
	$(GO) test -run '^$$' -bench 'Compile_AnalysisCache|Compile_Workers' -benchtime=1x .

# bench-serve smoke-runs the oraql-serve latency benchmark; use
# scripts/bench_serve.sh to record a BENCH_serve.json baseline.
bench-serve:
	$(GO) test -run '^$$' -bench 'Serve_Compile' -benchtime=1x .

# bench-diskcache records BENCH_diskcache.json and doubles as the CI
# cross-process warm-start smoke: cold/warm `oraql sweep` from two
# processes over one -cache-dir (byte-identical, >=5x), then the
# seeded reprobe of an edited program (strictly fewer compiles, same
# convictions).
bench-diskcache:
	scripts/bench_diskcache.sh

# bench-cluster records BENCH_cluster.json and doubles as the CI
# cluster smoke: 1/2/4-process fleets over a shared -cache-dir (warm
# sweep fully deduplicated fleet-wide, byte-identical), then the
# peer-kill degradation leg on distinct dirs (SIGKILL one of two
# peered instances mid-sweep; the survivor completes identically).
bench-cluster:
	scripts/bench_cluster.sh

# bench-warehouse records BENCH_warehouse.json and doubles as the CI
# warehouse smoke: 500-finding ingest throughput with idempotent
# re-ingest, two racing ingest processes over one shared directory
# (exactly one record per unique finding), query latency with
# byte-identical answers, and the scripted forensics campaign's
# cross-worker byte-identity.
bench-warehouse:
	scripts/bench_warehouse.sh

# warehouse-smoke runs the warehouse store, query, and CPG-export
# suites under the race detector (racing writers share a directory).
warehouse-smoke:
	$(GO) test -race -count=1 ./internal/warehouse/...

# cluster-smoke runs the in-process cluster/batch/retry suites under
# the race detector: peer forwarding, breaker trips, fault-injected
# transports, batch dedup, and the client retry policy.
cluster-smoke:
	$(GO) test -race -count=1 -run 'Cluster|Batch|Retry' ./internal/service/...

# serve-smoke mirrors the CI serve job: build the server, drive every
# endpoint with the checked-in example, assert the cache hit on
# /metrics, and check the SIGTERM drain.
serve-smoke:
	scripts/serve_smoke.sh

# campaign-smoke mirrors the CI campaign job: every example campaign
# through `oraql run` (cross-worker byte-identity for the scripted
# default probe), the -max-steps sandbox, and one campaign through a
# live oraql-serve with -cache-dir via POST /v1/campaign.
campaign-smoke:
	scripts/campaign_smoke.sh

# fuzz-smoke mirrors the CI fuzz job: a 200-program differential
# campaign, the fault-injection triage self-test, and 30s of each
# native fuzz target.
fuzz-smoke:
	$(GO) run ./cmd/oraql-fuzz -n 200 -seed 1 -v
	$(GO) run ./cmd/oraql-fuzz -inject -n 10 -seed 1 -v
	$(GO) test ./internal/irtext -fuzz FuzzIRTextRoundtrip -fuzztime 30s -run '^$$'
	$(GO) test ./internal/irtext -fuzz FuzzParseNoPanic -fuzztime 30s -run '^$$'
	$(GO) test ./internal/difftest -fuzz FuzzDifferential -fuzztime 30s -run '^$$'

# fuzz runs an open-ended differential campaign; tune N/SEED/ARGS.
N ?= 1000
SEED ?= 1
fuzz:
	$(GO) run ./cmd/oraql-fuzz -n $(N) -seed $(SEED) -v $(ARGS)

check: fmt-check vet tier1 race bench bench-interp bench-compile bench-serve bench-diskcache warehouse-smoke bench-warehouse serve-smoke campaign-smoke
