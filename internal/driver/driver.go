// Package driver implements the ORAQL probing driver (paper Section
// IV-B): it compiles a benchmark with increasingly refined response
// sequences until it finds a locally maximal set of queries that can
// be answered "no-alias" without breaking the benchmark's verification.
// Two bisection strategies are provided — the chunked recursion the
// paper settled on, and the frequency-space splitting it compares
// against — plus the executable-hash test cache that skips re-running
// bit-identical binaries.
//
// Deviating from the paper's strictly sequential driver, probing runs
// on a bounded worker pool (BenchSpec.Workers): sibling subranges of
// the chunked recursion and residue classes of the freq-space strategy
// are independent candidates, so the driver speculatively tests the
// likely next candidates concurrently and cancels losers. The decision
// loop itself stays sequential and consumes test outcomes in canonical
// order, so parallel and sequential probing produce bit-identical
// FinalSeq (see engine.go).
package driver

import (
	"context"
	"fmt"
	"io"
	"slices"

	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/verify"
)

// BenchSpec is the benchmark-specific configuration file equivalent:
// compiler invocation, probing scope, run options, and verification.
type BenchSpec struct {
	Name    string
	Compile pipeline.Config // ORAQL and Lowered fields are managed by the driver
	Run     irinterp.Options
	Verify  verify.Spec // empty references: baseline output is recorded
	ORAQL   oraql.Options
	// Strategy is the bisection strategy (see strategies.go); nil means
	// the registered default, Chunked.
	Strategy Strategy
	// Workers bounds the worker pool for speculative parallel probing
	// (0 defaults to runtime.NumCPU(); 1 probes strictly sequentially).
	// The final sequence is identical for every worker count.
	Workers int
	// DisableExeCache turns off the executable-hash test cache (for the
	// ablation benchmark).
	DisableExeCache bool
	// MaxTests bounds probing effort (0 = no bound). The budget counts
	// consumed tests only; speculative tests are free.
	MaxTests int
	// Cache, when non-nil, persists campaign state across processes:
	// test outcomes keyed by the baseline content identity (a repeated
	// campaign replays from disk) and per-query verdicts keyed by
	// function content hashes (a campaign on an edited program seeds
	// its bisection from the unchanged functions' history — see
	// persist.go). The store is also installed as the pipeline's
	// compile cache for the non-ORAQL baseline/final compilations.
	Cache *diskcache.Store
	// Log receives progress lines when non-nil.
	Log io.Writer
}

// Outcome is one compile+run+verify cycle.
type Outcome struct {
	Compile *pipeline.CompileResult
	Run     *irinterp.Result
	RunErr  error
	Verify  verify.Result
}

// Result is the full probing outcome.
type Result struct {
	// Spec is the campaign's own copy of the probed BenchSpec, with the
	// settings the driver filled in: the cache wiring, the recorded
	// verify references and the campaign's frontend result.
	Spec *BenchSpec

	// Baseline is the non-ORAQL compilation (the reference).
	Baseline *Outcome
	// Final is the compilation with the discovered sequence.
	Final *Outcome
	// FinalSeq is the locally maximal response sequence.
	FinalSeq oraql.Seq
	// FullyOptimistic reports whether the empty sequence already
	// verified (no pessimistic answers needed).
	FullyOptimistic bool

	// Probing effort counters. Compiles includes speculative compiles;
	// TestsRun + TestsCached counts the tests the decision loop
	// consumed and is identical for every worker count (the split
	// between run and cached may shift with speculative timing).
	Compiles    int
	TestsRun    int
	TestsCached int
	// TestsDisk is the subset of TestsCached whose outcome was replayed
	// from the persistent campaign state (BenchSpec.Cache).
	TestsDisk int
	// RunsReplayed counts baseline/final interpreter runs served from
	// the persistent run-replay layer instead of executing (runcache.go).
	RunsReplayed int
	// TestsSpeculated counts speculative tests launched by the parallel
	// driver; TestsWasted is the subset whose outcome was never
	// consumed by the decision loop (cancelled losers included).
	TestsSpeculated int
	TestsWasted     int
}

// GuiltyQueries returns the alias queries the probe had to answer
// pessimistically in the final verified compilation — the queries
// whose optimistic answer breaks the program (or rides along with one
// that does; the chunked strategy does not always isolate singletons).
// It is the programmatic form of the paper's Fig. 3 dump and the
// hand-off point to the difftest triage, which delta-debugs such sets
// further.
func (r *Result) GuiltyQueries() []*oraql.QueryRecord {
	if r.Final == nil || r.Final.Compile == nil {
		return nil
	}
	var out []*oraql.QueryRecord
	for _, rec := range r.Final.Compile.Records() {
		if !rec.Optimistic {
			out = append(out, rec)
		}
	}
	return out
}

// Probe runs the full ORAQL workflow on a benchmark.
func Probe(spec *BenchSpec) (*Result, error) {
	return ProbeContext(context.Background(), spec)
}

// ProbeContext is Probe with cancellation: ctx covers the whole
// workflow — the sequential decision loop checks it before every
// consumed test, speculative workers inherit it, and it is threaded
// into every compilation (pipeline.CompileContext), so cancelling it
// stops probing mid-pipeline, not only between tests.
//
// The caller's spec is never written: the campaign works on a private
// copy, so a spec can be edited and probed again, or probed
// concurrently, without one campaign seeing another's baseline output
// or frontend result.
func ProbeContext(ctx context.Context, spec *BenchSpec) (*Result, error) {
	sp := *spec
	sp.Verify = verify.Spec{
		References:   slices.Clone(spec.Verify.References),
		MaskPatterns: spec.Verify.MaskPatterns,
	}
	// Every test of the campaign compiles the same source: lower it
	// once, lazily, and give each compilation a clone.
	sp.Compile.Lowered = &pipeline.Lowered{}
	st := &state{ctx: ctx, spec: &sp}
	return st.probe()
}

type state struct {
	ctx     context.Context
	spec    *BenchSpec
	res     *Result
	eng     *engine
	padLen  int // generous pessimistic padding length
	maxSeen int // highest unique-query count observed
	// last is the newest verified build among the consumed tests, the
	// only build the campaign keeps alive; finalize adopts it when it
	// is the final sequence's compilation.
	last *build

	// Persistent-campaign state (nil/empty without BenchSpec.Cache).
	campID  string    // test-outcome identity: content hashes + checkID
	checkID string    // check identity: spec config sans module content
	pins    []int8    // per-index persisted verdict: +1 opt, -1 pess, 0 unknown
	priors  []float64 // per-index P(must stay pessimistic), 0.5 unknown
}

func (st *state) logf(format string, args ...any) {
	if st.spec.Log != nil {
		fmt.Fprintf(st.spec.Log, "[oraql-driver] "+format+"\n", args...)
	}
}

// execute compiles with the given ORAQL options (nil = pass disabled)
// and runs the program.
func (st *state) execute(opts *oraql.Options) (*Outcome, error) {
	cfg := st.spec.Compile
	cfg.Name = st.spec.Name
	cfg.ORAQL = opts
	// The baseline's content hashes identify the campaign and key the
	// per-function verdict history; no other compilation's are read.
	if st.spec.Cache != nil && opts == nil {
		cfg.WantContentHashes = true
	}
	cr, err := pipeline.CompileContext(st.ctx, cfg)
	if err != nil {
		return nil, err
	}
	st.res.Compiles++
	rr, runErr := st.run(cr, nil)
	out := &Outcome{Compile: cr, Run: rr, RunErr: runErr}
	var stdout string
	if rr != nil {
		stdout = rr.Stdout
	}
	out.Verify = st.spec.Verify.Check(stdout, runErr)
	return out, nil
}

// test verifies a candidate sequence through the engine, optionally
// prefetching speculative candidates onto the worker pool first. Only
// consumed tests update the decision state (budget, counters, drift),
// which keeps the probing decisions independent of worker count.
func (st *state) test(seq oraql.Seq, specs ...oraql.Seq) (bool, error) {
	if err := st.ctx.Err(); err != nil {
		return false, fmt.Errorf("driver: probing cancelled: %w", err)
	}
	if st.spec.MaxTests > 0 && st.res.TestsRun+st.res.TestsCached >= st.spec.MaxTests {
		return false, fmt.Errorf("driver: test budget (%d) exhausted", st.spec.MaxTests)
	}
	for _, s := range specs {
		st.eng.prefetch(s)
	}
	out := st.eng.get(seq)
	if out.err != nil {
		return false, out.err
	}
	if out.unique > st.maxSeen {
		st.maxSeen = out.unique
	}
	if out.build != nil {
		st.last = out.build
	}
	if out.didRun {
		st.res.TestsRun++
	} else {
		st.res.TestsCached++
	}
	if out.ok {
		// A success flips decided bits: every candidate speculated from
		// the previous decided state is now a loser.
		st.eng.cancelSpeculative()
	}
	return out.ok, nil
}

func (st *state) probe() (*Result, error) {
	spec := st.spec
	st.res = &Result{Spec: spec}
	if err := spec.Verify.Compile(); err != nil {
		return nil, fmt.Errorf("driver: verify spec: %w", err)
	}
	if spec.Cache != nil && spec.Compile.DiskCache == nil {
		// The shared store serves the compile cache for the non-ORAQL
		// baseline compilation.
		spec.Compile.DiskCache = spec.Cache
	}

	// Step 1: baseline compile and run without ORAQL.
	base, err := st.execute(nil)
	if err != nil {
		return nil, fmt.Errorf("driver: baseline: %w", err)
	}
	if base.RunErr != nil {
		return nil, fmt.Errorf("driver: baseline run failed: %w", base.RunErr)
	}
	if len(spec.Verify.References) == 0 {
		spec.Verify.References = []string{base.Run.Stdout}
	}
	base.Verify = spec.Verify.Check(base.Run.Stdout, nil)
	if !base.Verify.OK {
		return nil, fmt.Errorf("driver: baseline does not verify: %s", base.Verify.Diff)
	}
	st.res.Baseline = base
	st.logf("%s: baseline verified (%d instrs)", spec.Name, base.Run.Instrs)
	st.campaignKeys()

	// The engine is created only after the verify references are
	// recorded: workers verify concurrently against the frozen spec.
	st.eng = newEngine(st.ctx, spec, st.campID)
	defer st.eng.shutdown()

	// Step 2: fully optimistic attempt (empty sequence).
	ok, err := st.test(nil)
	if err != nil {
		return nil, err
	}
	if ok {
		st.logf("%s: fully optimistic compilation verified", spec.Name)
		st.res.FullyOptimistic = true
		st.res.FinalSeq = nil
		return st.finalize(nil)
	}
	st.logf("%s: fully optimistic failed; bisecting %d unique queries", spec.Name, st.maxSeen)
	st.seedPriors()

	// Step 3: bisection. The padding keeps undecided queries
	// pessimistic; it adapts as query counts drift.
	strat := spec.Strategy
	if strat == nil {
		strat = Chunked
	}
	var final oraql.Seq
	for round := 0; round < 4; round++ {
		n := st.maxSeen
		st.padLen = 2*n + 64
		var decided oraql.Seq
		// The disk-seeded round-0 path pins persisted verdicts and
		// bisects only unknowns; it refines the chunked recursion, so it
		// applies only when the chunked strategy is in charge.
		if round == 0 && st.pins != nil && strat == Chunked {
			decided, err = st.seededSolve(n)
		} else {
			decided, err = strat.Solve(st, n)
		}
		if err != nil {
			return nil, err
		}
		final = trimTrailingOptimistic(decided)
		ok, err := st.test(final)
		if err != nil {
			return nil, err
		}
		if ok {
			return st.finalize(final)
		}
		st.logf("%s: query count drifted (now %d); re-probing", spec.Name, st.maxSeen)
	}
	// Fall back to the all-pessimistic sequence, which reproduces the
	// baseline compilation behaviour for ORAQL-visible queries.
	final = make(oraql.Seq, st.maxSeen+64)
	ok, err = st.test(final)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("driver: %s: even the all-pessimistic sequence fails verification", spec.Name)
	}
	return st.finalize(final)
}

// finalBuild returns the final sequence's compile+run+verify. It
// adopts the newest verified build when that build is the final
// sequence's compilation — it consumed the same answers — and
// compiles otherwise. The adopted run still goes through the
// run-replay layer, so a persistent campaign replays or stores it
// exactly as it would a fresh run.
func (st *state) finalBuild(seq oraql.Seq) (*Outcome, error) {
	b := st.last
	st.last = nil
	if b == nil || !b.matches(seq, st.spec.ORAQL.Mode) {
		opts := st.spec.ORAQL
		opts.Seq = seq
		return st.execute(&opts)
	}
	rr, _ := st.run(b.cr, b.run)
	return &Outcome{Compile: b.cr, Run: rr, Verify: b.verify}, nil
}

// finalize builds the final sequence and records results.
func (st *state) finalize(seq oraql.Seq) (*Result, error) {
	fin, err := st.finalBuild(seq)
	if err != nil {
		return nil, err
	}
	if !fin.Verify.OK {
		return nil, fmt.Errorf("driver: final sequence does not verify: %s", fin.Verify.Diff)
	}
	st.res.Final = fin
	st.res.FinalSeq = seq
	st.res.Compiles += int(st.eng.compiles.Load())
	st.res.TestsSpeculated = int(st.eng.specLaunched.Load())
	st.res.TestsWasted = st.res.TestsSpeculated - int(st.eng.specConsumed.Load())
	st.res.TestsDisk = int(st.eng.diskTests.Load())
	st.persistVerdicts(fin.Compile)
	st.ingestWarehouse()
	s := fin.Compile.ORAQLStats()
	st.logf("%s: done: %d opt (%d cached), %d pess (%d cached); %d compiles, %d tests (+%d cached, %d from disk, %d speculated, %d wasted)",
		st.spec.Name, s.UniqueOptimistic, s.CachedOptimistic, s.UniquePessimistic, s.CachedPessimistic,
		st.res.Compiles, st.res.TestsRun, st.res.TestsCached, st.res.TestsDisk, st.res.TestsSpeculated, st.res.TestsWasted)
	// -time-passes style summary of the final compilation.
	tm := fin.Compile.Timing()
	var runs int64
	for _, pt := range tm.Entries() {
		runs += pt.Runs
	}
	var hits, misses int64
	for _, as := range fin.Compile.AnalysisStats() {
		hits += as.Hits
		misses += as.Misses
	}
	st.logf("%s: final compile: %d pass runs in %.2fms; analysis cache %d hits / %d misses",
		st.spec.Name, runs, float64(tm.Total().Microseconds())/1000, hits, misses)
	return st.res, nil
}

// pad extends a decided prefix with pessimistic padding, preallocating
// the padded sequence in one step.
func (st *state) pad(decided oraql.Seq, upto int) oraql.Seq {
	if upto < len(decided) {
		upto = len(decided)
	}
	out := make(oraql.Seq, upto)
	copy(out, decided)
	return out
}

// state implements Prober — the view strategies get of the probing
// machinery (strategies.go).

// Test verifies one candidate, speculatively prefetching specs.
func (st *state) Test(seq oraql.Seq, specs ...oraql.Seq) (bool, error) {
	return st.test(seq, specs...)
}

// Pad extends a decided prefix to the current generous padding length.
func (st *state) Pad(decided oraql.Seq) oraql.Seq { return st.pad(decided, st.padLen) }

// Workers is the speculation budget.
func (st *state) Workers() int { return st.eng.workers }

// PFail is defined in persist.go (persisted-prior estimate).

// HasPriors reports whether persisted verdict priors were loaded.
func (st *state) HasPriors() bool { return st.priors != nil }

// Logf prefixes progress lines with the benchmark name.
func (st *state) Logf(format string, args ...any) {
	st.logf("%s: "+format, append([]any{st.spec.Name}, args...)...)
}

// trimTrailingOptimistic drops trailing 1s (queries beyond the sequence
// end are optimistic by definition).
func trimTrailingOptimistic(s oraql.Seq) oraql.Seq {
	end := len(s)
	for end > 0 && s[end-1] {
		end--
	}
	return s[:end].Clone()
}
