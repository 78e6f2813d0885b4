package service

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/oraql/go-oraql/internal/diskcache"
)

// metrics is a hand-rolled Prometheus-text registry: request counters
// and latency histograms per route, queue/worker gauges, and the
// compiler-level cache counters (result cache, AA query cache,
// analysis cache) accumulated from every compilation the service
// runs. Everything is rendered by render() in the text exposition
// format; no external client library is involved.
type metrics struct {
	mu sync.Mutex

	// requests[route][code] counts completed HTTP requests.
	requests map[string]map[int]int64
	// latency[route] is a fixed-bucket duration histogram.
	latency map[string]*histogram

	// jobs[kind][state] counts job transitions into terminal states
	// plus submissions (state "queued").
	jobs map[string]map[string]int64
	// inflight[kind] gauges the jobs currently executing, per kind.
	inflight map[string]int64
	// campaignScripts[sha256] counts campaign submissions per script
	// body (bounded: the job store itself bounds distinct campaigns).
	campaignScripts map[string]int64

	// Compiler-level counters, summed over every compilation executed
	// by the service (sync compiles and job compiles alike).
	compiles       int64
	analysisHits   int64
	analysisMisses int64

	// peer[base] counts cluster fetches against each peer, by outcome.
	peer map[string]*peerCounters
	// Batch endpoint counters: requests, items across them, and the
	// distinct content keys those items deduplicated to.
	batchRequests int64
	batchItems    int64
	batchUnique   int64

	// warehouse[op] counts completed /v1/warehouse operations.
	warehouse map[string]int64
}

// peerCounters tallies one peer's fetch outcomes.
type peerCounters struct {
	forwards, hits, misses, failures int64
}

// Peer fetch outcomes for observePeer.
const (
	peerForward = "forward"
	peerHit     = "hit"
	peerMiss    = "miss"
	peerFailure = "failure"
)

// latencyBuckets are the histogram upper bounds in seconds.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

type histogram struct {
	counts []int64 // one per bucket, cumulative style computed at render
	sum    float64
	total  int64
}

func newMetrics() *metrics {
	return &metrics{
		requests: map[string]map[int]int64{},
		latency:  map[string]*histogram{},
		jobs:     map[string]map[string]int64{},
		// Pre-seed the known kinds so the labeled gauge renders a zero
		// series from the first scrape.
		inflight:        map[string]int64{"probe": 0, "fuzz": 0, "campaign": 0},
		campaignScripts: map[string]int64{},
		peer:            map[string]*peerCounters{},
		warehouse:       map[string]int64{},
	}
}

// observeWarehouse books one completed /v1/warehouse operation.
func (m *metrics) observeWarehouse(op string) {
	m.mu.Lock()
	m.warehouse[op]++
	m.mu.Unlock()
}

// observePeer books one peer fetch outcome (peerForward/Hit/Miss/Failure).
func (m *metrics) observePeer(peer, outcome string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.peer[peer]
	if c == nil {
		c = &peerCounters{}
		m.peer[peer] = c
	}
	switch outcome {
	case peerForward:
		c.forwards++
	case peerHit:
		c.hits++
	case peerMiss:
		c.misses++
	case peerFailure:
		c.failures++
	}
}

// observeBatch books one /v1/compile/batch request.
func (m *metrics) observeBatch(items, unique int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batchRequests++
	m.batchItems += int64(items)
	m.batchUnique += int64(unique)
}

// observeRequest books one completed HTTP request.
func (m *metrics) observeRequest(route string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byCode := m.requests[route]
	if byCode == nil {
		byCode = map[int]int64{}
		m.requests[route] = byCode
	}
	byCode[code]++
	h := m.latency[route]
	if h == nil {
		h = &histogram{counts: make([]int64, len(latencyBuckets))}
		m.latency[route] = h
	}
	sec := d.Seconds()
	for i, ub := range latencyBuckets {
		if sec <= ub {
			h.counts[i]++
			break
		}
	}
	h.sum += sec
	h.total++
}

// observeJob books a job state transition (queued and terminal states).
func (m *metrics) observeJob(kind, state string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byState := m.jobs[kind]
	if byState == nil {
		byState = map[string]int64{}
		m.jobs[kind] = byState
	}
	byState[state]++
}

// jobStarted/jobEnded track the per-kind inflight gauge.
func (m *metrics) jobStarted(kind string) {
	m.mu.Lock()
	m.inflight[kind]++
	m.mu.Unlock()
}

func (m *metrics) jobEnded(kind string) {
	m.mu.Lock()
	m.inflight[kind]--
	m.mu.Unlock()
}

// observeCampaignScript books one campaign submission by script hash.
func (m *metrics) observeCampaignScript(sha string) {
	m.mu.Lock()
	m.campaignScripts[sha]++
	m.mu.Unlock()
}

// observeCompile counts one compilation and lifts its analysis
// manager's hit/miss counters into the service-wide series.
func (m *metrics) observeCompile(anHits, anMisses int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.compiles++
	m.analysisHits += anHits
	m.analysisMisses += anMisses
}

// render writes the registry in the Prometheus text exposition format,
// with the live gauges passed in by the server. disk is the shared
// persistent store (nil when the service runs memory-only);
// peerTripped maps every configured peer to its live breaker state
// (nil when the instance is not in a cluster).
// warehouseRecords is the live corpus size (-1 when no persistent
// store is configured, which suppresses the gauge).
func (m *metrics) render(cache *resultCache, disk *diskcache.Store, queueDepth, queueCap int, inflight int64, workers, compileWorkers int, peerTripped map[string]bool, warehouseRecords int) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder

	b.WriteString("# HELP oraql_requests_total Completed HTTP requests by route and status code.\n")
	b.WriteString("# TYPE oraql_requests_total counter\n")
	for _, route := range sortedKeys(m.requests) {
		codes := make([]int, 0, len(m.requests[route]))
		for c := range m.requests[route] {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(&b, "oraql_requests_total{route=%q,code=\"%d\"} %d\n", route, c, m.requests[route][c])
		}
	}

	b.WriteString("# HELP oraql_request_duration_seconds Request latency by route.\n")
	b.WriteString("# TYPE oraql_request_duration_seconds histogram\n")
	for _, route := range sortedKeys(m.latency) {
		h := m.latency[route]
		var cum int64
		for i, ub := range latencyBuckets {
			cum += h.counts[i]
			fmt.Fprintf(&b, "oraql_request_duration_seconds_bucket{route=%q,le=\"%g\"} %d\n",
				route, ub, cum)
		}
		fmt.Fprintf(&b, "oraql_request_duration_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", route, h.total)
		fmt.Fprintf(&b, "oraql_request_duration_seconds_sum{route=%q} %g\n", route, h.sum)
		fmt.Fprintf(&b, "oraql_request_duration_seconds_count{route=%q} %d\n", route, h.total)
	}

	b.WriteString("# HELP oraql_jobs_total Job submissions and terminal transitions by kind and state.\n")
	b.WriteString("# TYPE oraql_jobs_total counter\n")
	for _, kind := range sortedKeys(m.jobs) {
		for _, state := range sortedKeys(m.jobs[kind]) {
			fmt.Fprintf(&b, "oraql_jobs_total{kind=%q,state=%q} %d\n", kind, state, m.jobs[kind][state])
		}
	}

	b.WriteString("# HELP oraql_queue_depth Jobs waiting in the bounded queue.\n")
	b.WriteString("# TYPE oraql_queue_depth gauge\n")
	fmt.Fprintf(&b, "oraql_queue_depth %d\n", queueDepth)
	b.WriteString("# HELP oraql_queue_capacity Queue capacity.\n")
	b.WriteString("# TYPE oraql_queue_capacity gauge\n")
	fmt.Fprintf(&b, "oraql_queue_capacity %d\n", queueCap)
	b.WriteString("# HELP oraql_jobs_inflight Jobs currently executing on the worker pool, by kind.\n")
	b.WriteString("# TYPE oraql_jobs_inflight gauge\n")
	for _, kind := range sortedKeys(m.inflight) {
		fmt.Fprintf(&b, "oraql_jobs_inflight{kind=%q} %d\n", kind, m.inflight[kind])
	}
	_ = inflight // the aggregate stays on /healthz; the gauge is per-kind
	b.WriteString("# HELP oraql_workers Job worker pool size.\n")
	b.WriteString("# TYPE oraql_workers gauge\n")
	fmt.Fprintf(&b, "oraql_workers %d\n", workers)
	b.WriteString("# HELP oraql_compile_workers Per-function parallelism inside each compilation.\n")
	b.WriteString("# TYPE oraql_compile_workers gauge\n")
	fmt.Fprintf(&b, "oraql_compile_workers %d\n", compileWorkers)

	hits, misses, entries := cache.counters()
	b.WriteString("# HELP oraql_result_cache_hits_total Compile requests served from the cross-request result cache.\n")
	b.WriteString("# TYPE oraql_result_cache_hits_total counter\n")
	fmt.Fprintf(&b, "oraql_result_cache_hits_total %d\n", hits)
	b.WriteString("# HELP oraql_result_cache_misses_total Compile requests that ran the pipeline.\n")
	b.WriteString("# TYPE oraql_result_cache_misses_total counter\n")
	fmt.Fprintf(&b, "oraql_result_cache_misses_total %d\n", misses)
	b.WriteString("# HELP oraql_result_cache_entries Live result-cache entries.\n")
	b.WriteString("# TYPE oraql_result_cache_entries gauge\n")
	fmt.Fprintf(&b, "oraql_result_cache_entries %d\n", entries)

	if disk != nil {
		c := disk.Counters()
		entries, bytes := disk.Usage()
		b.WriteString("# HELP oraql_disk_cache_hits_total Persistent-store lookups served from disk.\n")
		b.WriteString("# TYPE oraql_disk_cache_hits_total counter\n")
		fmt.Fprintf(&b, "oraql_disk_cache_hits_total %d\n", c.Hits)
		b.WriteString("# HELP oraql_disk_cache_misses_total Persistent-store lookups that found nothing.\n")
		b.WriteString("# TYPE oraql_disk_cache_misses_total counter\n")
		fmt.Fprintf(&b, "oraql_disk_cache_misses_total %d\n", c.Misses)
		b.WriteString("# HELP oraql_disk_cache_corrupt_total Torn/truncated/foreign entries discarded as misses.\n")
		b.WriteString("# TYPE oraql_disk_cache_corrupt_total counter\n")
		fmt.Fprintf(&b, "oraql_disk_cache_corrupt_total %d\n", c.Corrupt)
		b.WriteString("# HELP oraql_disk_cache_puts_total Entries published to the persistent store.\n")
		b.WriteString("# TYPE oraql_disk_cache_puts_total counter\n")
		fmt.Fprintf(&b, "oraql_disk_cache_puts_total %d\n", c.Puts)
		b.WriteString("# HELP oraql_disk_cache_evictions_total Entries removed by size-capped GC.\n")
		b.WriteString("# TYPE oraql_disk_cache_evictions_total counter\n")
		fmt.Fprintf(&b, "oraql_disk_cache_evictions_total %d\n", c.Evictions)
		b.WriteString("# HELP oraql_disk_cache_entries Live entries in the shared cache directory.\n")
		b.WriteString("# TYPE oraql_disk_cache_entries gauge\n")
		fmt.Fprintf(&b, "oraql_disk_cache_entries %d\n", entries)
		b.WriteString("# HELP oraql_disk_cache_bytes Bytes used by the shared cache directory.\n")
		b.WriteString("# TYPE oraql_disk_cache_bytes gauge\n")
		fmt.Fprintf(&b, "oraql_disk_cache_bytes %d\n", bytes)
	}

	if len(m.peer) > 0 || len(peerTripped) > 0 {
		b.WriteString("# HELP oraql_peer_forwards_total Cache misses forwarded to a peer ring owner.\n")
		b.WriteString("# TYPE oraql_peer_forwards_total counter\n")
		for _, p := range sortedKeys(m.peer) {
			fmt.Fprintf(&b, "oraql_peer_forwards_total{peer=%q} %d\n", p, m.peer[p].forwards)
		}
		b.WriteString("# HELP oraql_peer_hits_total Forwarded fetches the peer answered from its cache.\n")
		b.WriteString("# TYPE oraql_peer_hits_total counter\n")
		for _, p := range sortedKeys(m.peer) {
			fmt.Fprintf(&b, "oraql_peer_hits_total{peer=%q} %d\n", p, m.peer[p].hits)
		}
		b.WriteString("# HELP oraql_peer_misses_total Forwarded fetches the peer had no artifact for.\n")
		b.WriteString("# TYPE oraql_peer_misses_total counter\n")
		for _, p := range sortedKeys(m.peer) {
			fmt.Fprintf(&b, "oraql_peer_misses_total{peer=%q} %d\n", p, m.peer[p].misses)
		}
		b.WriteString("# HELP oraql_peer_failures_total Forwarded fetches that failed in transport (degraded to local compile).\n")
		b.WriteString("# TYPE oraql_peer_failures_total counter\n")
		for _, p := range sortedKeys(m.peer) {
			fmt.Fprintf(&b, "oraql_peer_failures_total{peer=%q} %d\n", p, m.peer[p].failures)
		}
		b.WriteString("# HELP oraql_peer_tripped Peer circuit breakers currently open (1 = fetches suppressed).\n")
		b.WriteString("# TYPE oraql_peer_tripped gauge\n")
		for _, p := range sortedKeys(peerTripped) {
			v := 0
			if peerTripped[p] {
				v = 1
			}
			fmt.Fprintf(&b, "oraql_peer_tripped{peer=%q} %d\n", p, v)
		}
	}

	b.WriteString("# HELP oraql_batch_requests_total Batch compile requests served.\n")
	b.WriteString("# TYPE oraql_batch_requests_total counter\n")
	fmt.Fprintf(&b, "oraql_batch_requests_total %d\n", m.batchRequests)
	b.WriteString("# HELP oraql_batch_items_total Items across all batch compile requests.\n")
	b.WriteString("# TYPE oraql_batch_items_total counter\n")
	fmt.Fprintf(&b, "oraql_batch_items_total %d\n", m.batchItems)
	b.WriteString("# HELP oraql_batch_unique_total Distinct content keys across all batch compile requests.\n")
	b.WriteString("# TYPE oraql_batch_unique_total counter\n")
	fmt.Fprintf(&b, "oraql_batch_unique_total %d\n", m.batchUnique)

	if len(m.warehouse) > 0 {
		b.WriteString("# HELP oraql_warehouse_requests_total Completed /v1/warehouse operations by op.\n")
		b.WriteString("# TYPE oraql_warehouse_requests_total counter\n")
		for _, op := range sortedKeys(m.warehouse) {
			fmt.Fprintf(&b, "oraql_warehouse_requests_total{op=%q} %d\n", op, m.warehouse[op])
		}
	}
	if warehouseRecords >= 0 {
		b.WriteString("# HELP oraql_warehouse_records Findings registered in the forensics warehouse.\n")
		b.WriteString("# TYPE oraql_warehouse_records gauge\n")
		fmt.Fprintf(&b, "oraql_warehouse_records %d\n", warehouseRecords)
	}

	if len(m.campaignScripts) > 0 {
		b.WriteString("# HELP oraql_campaign_scripts_total Campaign submissions by script sha256.\n")
		b.WriteString("# TYPE oraql_campaign_scripts_total counter\n")
		for _, sha := range sortedKeys(m.campaignScripts) {
			fmt.Fprintf(&b, "oraql_campaign_scripts_total{sha256=%q} %d\n", sha, m.campaignScripts[sha])
		}
	}

	b.WriteString("# HELP oraql_compiles_total Pipeline compilations executed by the service.\n")
	b.WriteString("# TYPE oraql_compiles_total counter\n")
	fmt.Fprintf(&b, "oraql_compiles_total %d\n", m.compiles)
	b.WriteString("# HELP oraql_analysis_cache_hits_total Analysis-manager cache hits over all service compilations.\n")
	b.WriteString("# TYPE oraql_analysis_cache_hits_total counter\n")
	fmt.Fprintf(&b, "oraql_analysis_cache_hits_total %d\n", m.analysisHits)
	b.WriteString("# HELP oraql_analysis_cache_misses_total Analysis-manager cache misses over all service compilations.\n")
	b.WriteString("# TYPE oraql_analysis_cache_misses_total counter\n")
	fmt.Fprintf(&b, "oraql_analysis_cache_misses_total %d\n", m.analysisMisses)

	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
