package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every
// workload. They must match BENCHMARK.json's end_to_end list.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run, reported by every
// workload; a layer the workload does not exercise reports 0. They
// must match BENCHMARK.json's per_layer list.
var perLayer = []metricDef{
	{"driver.compiles_per_op", "count/op"},
	{"driver.tests_per_op", "count/op"},
	{"driver.tests_disk_per_op", "count/op"},
	{"driver.runs_replayed_per_op", "count/op"},
	{"driver.spec_launched_per_op", "count/op"},
	{"driver.spec_useful_ratio", "ratio"},
	{"driver.test_ms_p50", "ms"},
	{"driver.self_ms_per_op", "ms"},
	{"minic.ms_per_compile", "ms"},
	{"pipeline.ms_per_compile", "ms"},
	{"passes.ms_per_compile", "ms"},
	{"aa.queries_per_compile", "count"},
	{"aa.cache_hit_ratio", "ratio"},
	{"analysis.hit_ratio", "ratio"},
	{"oraql.queries_per_compile", "count"},
	{"irinterp.ms_per_run", "ms"},
	{"irinterp.minstrs_per_s", "Minstr/s"},
	{"irinterp.alloc_mb_per_run", "MB"},
	{"irinterp.runs_per_op", "count/op"},
	{"verify.ms_per_check", "ms"},
	{"diskcache.hits_per_op", "count/op"},
	{"diskcache.misses_per_op", "count/op"},
	{"diskcache.puts_per_op", "count/op"},
	{"diskcache.hit_ratio", "ratio"},
	{"diskcache.mb", "MB"},
	{"service.hit_share", "ratio"},
	{"service.compile_ms_p50", "ms"},
	{"service.overhead_ms_p50", "ms"},
	{"loadgen.late_ms_p99", "ms"},
	{"trace.span_coverage", "ratio"},
	{"trace.irinterp_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"input.bisect_share", "ratio"},
	{"input.replayed_share", "ratio"},
	{"input.mem_hit_share", "ratio"},
	{"input.disk_hit_share", "ratio"},
	{"input.compile_share", "ratio"},
	{"input.oraql_share", "ratio"},
}

// result is what a workload run measured and checked.
type result struct {
	attempted, failed int
	failures          []string
	// e2e and layer hold the end-to-end and per-layer metric values.
	e2e, layer map[string]float64
	// props are the measured input properties ("input.*"); they are
	// reported with the per-layer metrics and summarised on stderr.
	props map[string]float64
	// notes are figures printed on stderr only (tail percentiles a run
	// has too few samples to report in every workload).
	notes map[string]float64
	lines []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{},
		props: map[string]float64{}, notes: map[string]float64{}}
}

// fail records one failed check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// zeroLayers sets every per-layer metric the workload left unset to 0:
// that layer does no measured work on this workload.
func (r *result) zeroLayers() {
	for _, d := range perLayer {
		if _, ok := r.layer[d.name]; !ok {
			if _, ok := r.props[d.name]; !ok {
				r.layer[d.name] = 0
			}
		}
	}
}

// env is what a workload run gets from the command line.
type env struct {
	opts options
	work string // scratch directory inside the checkout, removed at exit
	log  io.Writer
	tr   *tracer // nil for a timed run
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes is the cumulative count of bytes allocated on the Go
// heap by the whole process.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

const mb = 1 << 20

// phase measures one timed phase: wall, CPU and heap allocation, per
// chunk of identical work when the workload marks chunks.
type phase struct {
	start, chunkStart time.Time
	cpu0, chunkCPU    time.Duration
	alloc0, chunkHeap uint64
	chunks            []chunk
}

// chunk is the cost of one marked stretch of the phase.
type chunk struct {
	ops   int
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
}

// beginPhase collects garbage left by set-up, so the phase starts from
// the same heap on every run, and starts the clocks.
func beginPhase() *phase {
	runtime.GC()
	now, cpu, heap := time.Now(), cpuTime(), heapAllocBytes()
	return &phase{start: now, chunkStart: now, cpu0: cpu, chunkCPU: cpu, alloc0: heap, chunkHeap: heap}
}

// mark closes a chunk of ops ops. A nil phase ignores it.
func (p *phase) mark(ops int) {
	if p == nil {
		return
	}
	now, cpu, heap := time.Now(), cpuTime(), heapAllocBytes()
	p.chunks = append(p.chunks, chunk{ops: ops, wall: now.Sub(p.chunkStart),
		cpu: cpu - p.chunkCPU, alloc: heap - p.chunkHeap})
	p.chunkStart, p.chunkCPU, p.chunkHeap = now, cpu, heap
}

// finish fills the end-to-end metrics for n ops with the given
// latencies (milliseconds) and set-up samples (seconds). When the
// workload marked chunks of identical work (probe passes), the rates
// are the medians over chunks, so a burst of host contention during
// one chunk does not move them; otherwise the whole phase is one
// chunk.
func (p *phase) finish(r *result, n int, latMS, setupS []float64) {
	wall := time.Since(p.start)
	chunks := p.chunks
	if len(chunks) == 0 {
		chunks = []chunk{{ops: n, wall: wall, cpu: cpuTime() - p.cpu0, alloc: heapAllocBytes() - p.alloc0}}
	}
	var rate, cpu, alloc []float64
	for _, c := range chunks {
		k := float64(c.ops)
		rate = append(rate, k/c.wall.Seconds())
		cpu = append(cpu, ms(c.cpu)/k)
		alloc = append(alloc, float64(c.alloc)/mb/k)
	}
	r.e2e["ops_per_s"] = quantile(rate, 0.5)
	r.e2e["op_ms_p50"] = quantile(latMS, 0.5)
	r.e2e["cpu_ms_per_op"] = quantile(cpu, 0.5)
	r.e2e["alloc_mb_per_op"] = quantile(alloc, 0.5)
	r.e2e["peak_rss_mb"] = peakRSSMB()
	r.e2e["setup_s"] = quantile(setupS, 0.5)
	r.notes["ops_timed"] = float64(n)
	r.notes["timed_phase_s"] = wall.Seconds()
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile reports the q-quantile only when at least ten samples
// lie beyond it; ok is false on thinner data.
func tailQuantile(xs []float64, q float64) (v float64, ok bool) {
	if float64(len(xs))*(1-q) < 10-1e-9 {
		return 0, false
	}
	return quantile(xs, q), true
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
