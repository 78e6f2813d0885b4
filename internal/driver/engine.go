package driver

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/verify"
)

// testOutcome is one candidate sequence's compile+run+verify verdict.
// It is a pure function of the candidate (compilation is deterministic,
// and the exe-hash cache only ever replays the verify result of a
// bit-identical binary or of an identical compilation), which is what
// makes speculative execution safe:
// a result computed ahead of time is the same result the sequential
// driver would have computed on demand.
type testOutcome struct {
	ok       bool
	unique   int  // unique ORAQL query count of this compile
	didRun   bool // false when the verdict came from the exe-hash cache
	fromDisk bool // verdict replayed from the persistent campaign state
	err      error
	// build is the verified build of this test, when it compiled one
	// that passed; nil otherwise. finalize adopts it (see state.last).
	build *build
}

// build is one verified compile+run: the compilation, the run that
// passed verification, and the verdict.
type build struct {
	answered
	cr     *pipeline.CompileResult
	run    *irinterp.Result
	verify verify.Result
}

// consumedPositions is how many sequence positions a compilation read:
// every target's ORAQL pass starts at position 0 and consumes one
// position per unique query, so the largest unique count over the
// targets.
func consumedPositions(cr *pipeline.CompileResult) int {
	n := 0
	for _, t := range []*pipeline.TargetStats{cr.Host, cr.Device} {
		if t != nil && t.ORAQL != nil {
			n = max(n, t.ORAQL.Stats().Unique())
		}
	}
	return n
}

// answered is a finished compilation's verdict, indexed by the answers
// it consumed.
type answered struct {
	seq      oraql.Seq
	consumed int // sequence positions the compilation read
	ok       bool
	unique   int
}

// matches reports whether seq gives the same answer as a.seq at every
// position a's compilation consumed, reading the responder's
// past-the-end answer beyond a sequence's end: optimistic, or
// pessimistic (blocked) in blocking mode. seq's compilation is then
// exactly a's: the responder's answers drive everything else.
func (a answered) matches(seq oraql.Seq, mode oraql.Mode) bool {
	end := mode != oraql.ModeBlocking
	at := func(s oraql.Seq, i int) bool {
		if i < len(s) {
			return s[i]
		}
		return end
	}
	for i := 0; i < a.consumed; i++ {
		if at(seq, i) != at(a.seq, i) {
			return false
		}
	}
	return true
}

// testCall is one in-flight or completed test, single-flighted by the
// candidate sequence: duplicate requests wait for the first instead of
// re-running.
type testCall struct {
	key         string
	done        chan struct{}
	out         testOutcome
	speculative bool
	canceled    bool
	cancel      context.CancelFunc
}

// exeEntry single-flights verification by executable hash: a test whose
// binary hash matches an in-flight run waits for that run's verdict
// instead of executing the bit-identical binary again.
type exeEntry struct {
	done     chan struct{}
	v        verify.Result
	run      *irinterp.Result
	canceled bool
}

// engine executes candidate tests for the probing driver on a bounded
// worker pool. The decision loop stays strictly sequential and
// deterministic; the engine adds two layers the loop consults:
//
//   - a single-flight candidate map, so a speculatively prefetched test
//     is joined (not repeated) when the decision loop requests it;
//   - a concurrency-safe, single-flight executable-hash cache, so
//     bit-identical binaries are verified exactly once;
//   - within that cache, a table of finished compilations keyed by the
//     answers they consumed, so a candidate that answers every
//     consumed position like an earlier build gets its verdict
//     without compiling.
//
// Speculative calls carry a context and are cancelled as losers the
// moment a consumed test succeeds (success flips decided bits, which
// stales every candidate built from the previous decided state).
type engine struct {
	// ctx is the probe-wide context: consumed tests run directly under
	// it, speculative tests under children of it, so cancelling the
	// probe stops every in-flight compilation.
	ctx     context.Context
	spec    *BenchSpec
	workers int
	campID  string // persistent campaign identity ("" = no disk outcomes)
	sem     chan struct{}
	wg      sync.WaitGroup

	mu         sync.Mutex
	calls      map[string]*testCall
	exe        map[string]*exeEntry
	answers    []answered
	optRecords []*oraql.QueryRecord // query stream of the empty-seq compile

	compiles     atomic.Int64
	specLaunched atomic.Int64
	specConsumed atomic.Int64
	diskTests    atomic.Int64

	// specDepth bounds in-flight *compile* speculation, adapting to the
	// observed hit/waste rate: it starts at min(workers-1, cores-1) —
	// zero on a single-core host, where a speculative compile only
	// steals cycles from the consumed test — shrinks when speculation is
	// cancelled unconsumed, and grows (up to workers-1) when consumed.
	// The gate applies to compiles only: a candidate whose outcome is
	// already on disk completes its speculative call synchronously in
	// prefetch, costing neither a compile nor a worker slot, so it
	// bypasses the depth bound (and, being free, never feeds the
	// adaptive +1 evidence that compile-speculation pays).
	specDepth  atomic.Int64
	specActive atomic.Int64
}

// innerWorkers splits the machine between outer (probe) and inner
// (intra-compile) parallelism: with outer workers already saturating
// cores, each compilation gets GOMAXPROCS/outer workers, at least one.
func innerWorkers(outer int) int {
	if outer <= 0 {
		outer = 1
	}
	if w := runtime.GOMAXPROCS(0) / outer; w > 1 {
		return w
	}
	return 1
}

func newEngine(ctx context.Context, spec *BenchSpec, campID string) *engine {
	w := spec.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e := &engine{
		ctx:     ctx,
		spec:    spec,
		workers: w,
		campID:  campID,
		sem:     make(chan struct{}, w),
		calls:   map[string]*testCall{},
		exe:     map[string]*exeEntry{},
	}
	depth := int64(w - 1)
	if c := int64(runtime.GOMAXPROCS(0) - 1); c < depth {
		depth = c
	}
	if depth < 0 {
		depth = 0
	}
	e.specDepth.Store(depth)
	return e
}

// adjustDepth moves the speculation depth by delta within [0, workers-1].
func (e *engine) adjustDepth(delta int64) {
	max := int64(e.workers - 1)
	for {
		cur := e.specDepth.Load()
		next := cur + delta
		if next < 0 {
			next = 0
		}
		if next > max {
			next = max
		}
		if next == cur || e.specDepth.CompareAndSwap(cur, next) {
			return
		}
	}
}

// takeOptRecords hands the empty-sequence compile's query records to
// the driver (once) for verdict seeding.
func (e *engine) takeOptRecords() []*oraql.QueryRecord {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.optRecords
	e.optRecords = nil
	return r
}

// get returns the outcome for a candidate, joining an in-flight or
// completed speculative call when one exists, else testing inline. The
// consumed call is removed from the single-flight map so that a later
// identical candidate re-tests (and is then served by the exe-hash
// cache), exactly like the sequential driver.
func (e *engine) get(seq oraql.Seq) testOutcome {
	key := seq.String()
	for {
		e.mu.Lock()
		if c, ok := e.calls[key]; ok {
			e.mu.Unlock()
			<-c.done
			if c.canceled {
				continue // cancelled speculation: re-issue inline
			}
			out := e.consume(c)
			if c.speculative {
				e.specConsumed.Add(1)
				if !out.fromDisk {
					// Compile speculation paid off: widen. Disk-served
					// outcomes cost nothing, so they are no evidence that
					// spending a worker on a speculative compile pays.
					e.adjustDepth(1)
				}
			}
			if out.fromDisk {
				e.diskTests.Add(1)
			}
			return out
		}
		c := &testCall{key: key, done: make(chan struct{})}
		e.calls[key] = c
		e.mu.Unlock()
		c.out = e.run(e.ctx, seq)
		close(c.done)
		out := e.consume(c)
		if out.fromDisk {
			e.diskTests.Add(1)
		}
		return out
	}
}

// prefetch speculatively launches a candidate test on the worker pool.
// It is a no-op when probing sequentially, when the adaptive depth
// bound is reached, or when the candidate is already in flight. The
// driver passes candidates in descending consumption-probability
// order, so depth throttling drops the least promising ones first.
//
// The depth bound gates compile speculation only: when it is reached
// (including the permanent depth 0 of a single-core host) a candidate
// whose outcome is already in the persistent campaign state is still
// registered as a completed speculative call — a warm prefetch costs
// no compile and no worker slot, so priors keep paying off even where
// compile speculation never engages.
func (e *engine) prefetch(seq oraql.Seq) {
	if e.workers <= 1 {
		return
	}
	key := seq.String()
	if e.specActive.Load() >= e.specDepth.Load() {
		e.prefetchFromDisk(key)
		return
	}
	e.mu.Lock()
	if _, ok := e.calls[key]; ok {
		e.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(e.ctx)
	c := &testCall{key: key, done: make(chan struct{}), speculative: true, cancel: cancel}
	e.calls[key] = c
	e.mu.Unlock()
	e.specLaunched.Add(1)
	e.specActive.Add(1)
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		defer e.specActive.Add(-1)
		out := e.run(ctx, seq)
		e.mu.Lock()
		if errors.Is(out.err, context.Canceled) {
			c.canceled = true
			if e.calls[key] == c {
				delete(e.calls, key)
			}
		}
		if ctx.Err() != nil {
			out.build = nil // a loser keeps no build
		}
		c.out = out
		e.mu.Unlock()
		if c.canceled {
			e.adjustDepth(-1) // cancelled unconsumed: wasted work, narrow
		}
		close(c.done)
	}()
}

// prefetchFromDisk registers a completed speculative call for a
// candidate whose outcome is already persisted, without taking a
// worker slot. Called when the adaptive depth bound blocks a compile
// prefetch; quietly does nothing without a persistent campaign or on
// a cold candidate.
func (e *engine) prefetchFromDisk(key string) {
	if e.spec.Cache == nil || e.campID == "" {
		return
	}
	o, ok := e.spec.Cache.LoadTestOutcome(diskcache.TestOutcomeKey(e.campID, key))
	if !ok {
		return
	}
	e.mu.Lock()
	if _, dup := e.calls[key]; dup {
		e.mu.Unlock()
		return
	}
	c := &testCall{key: key, done: make(chan struct{}), speculative: true}
	c.out = testOutcome{ok: o.OK, unique: o.Unique, fromDisk: true}
	close(c.done)
	e.calls[key] = c
	e.mu.Unlock()
	e.specLaunched.Add(1)
}

// cancelSpeculative cancels every outstanding speculative call and
// drops the builds of the finished ones. Called when a consumed test
// succeeds: successes flip decided bits, so every candidate speculated
// from the previous decided state is a loser.
func (e *engine) cancelSpeculative() {
	e.mu.Lock()
	for _, c := range e.calls {
		if c.speculative && c.cancel != nil {
			c.cancel()
			c.out.build = nil
		}
	}
	e.mu.Unlock()
}

// shutdown cancels outstanding speculation and waits for the worker
// goroutines to drain.
func (e *engine) shutdown() {
	e.cancelSpeculative()
	e.wg.Wait()
}

// consume removes a finished call from the single-flight map and
// returns its outcome, read under the lock because cancelSpeculative
// may drop the build of a finished speculative call.
func (e *engine) consume(c *testCall) testOutcome {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.calls[c.key] == c {
		delete(e.calls, c.key)
	}
	return c.out
}

// run compiles and verifies one candidate on a worker slot. ctx is
// threaded into the compilation and checked again before executing, so
// a cancelled speculative test stops mid-pipeline. With a persistent
// campaign (BenchSpec.Cache + content-hash identity), outcomes are
// consulted on disk first — a warm campaign replays every test without
// compiling — and persisted after each fresh verdict.
func (e *engine) run(ctx context.Context, seq oraql.Seq) testOutcome {
	var dkey string
	if e.spec.Cache != nil && e.campID != "" {
		dkey = diskcache.TestOutcomeKey(e.campID, seq.String())
		if o, ok := e.spec.Cache.LoadTestOutcome(dkey); ok {
			// Counted into diskTests at consumption (get), so the stat
			// stays a subset of the tests the decision loop consumed.
			return testOutcome{ok: o.OK, unique: o.Unique, fromDisk: true}
		}
	}
	if !e.spec.DisableExeCache {
		if a, ok := e.lookupAnswers(seq); ok {
			out := testOutcome{ok: a.ok, unique: a.unique}
			e.storeOutcome(dkey, out)
			return out
		}
	}
	e.sem <- struct{}{}
	defer func() { <-e.sem }()
	if ctx.Err() != nil {
		return testOutcome{err: ctx.Err()}
	}
	opts := e.spec.ORAQL
	opts.Seq = seq
	cfg := e.spec.Compile
	cfg.Name = e.spec.Name
	cfg.ORAQL = &opts
	if cfg.CompileWorkers == 0 {
		// One global budget: outer probe workers x inner compile
		// workers should not exceed the machine. ORAQL compiles run
		// sequentially regardless (the responder is order-dependent);
		// the split covers blocking-mode and future non-ORAQL tests.
		cfg.CompileWorkers = innerWorkers(e.workers)
	}
	cr, err := pipeline.CompileContext(ctx, cfg)
	if err != nil {
		return testOutcome{err: err}
	}
	e.compiles.Add(1)
	if len(seq) == 0 {
		// The fully-optimistic compile's query stream feeds both the
		// persisted-verdict seeding and the IR feature extraction, so it
		// is captured with or without a persistent campaign.
		e.mu.Lock()
		if e.optRecords == nil {
			e.optRecords = cr.Records()
		}
		e.mu.Unlock()
	}
	out := testOutcome{unique: cr.ORAQLStats().Unique()}
	// finish records a verdict and, for a passing one, the build.
	finish := func(v verify.Result, rr *irinterp.Result) testOutcome {
		a := answered{seq: seq, consumed: consumedPositions(cr), ok: v.OK, unique: out.unique}
		out.ok = v.OK
		if v.OK {
			out.build = &build{answered: a, cr: cr, run: rr, verify: v}
		}
		if !e.spec.DisableExeCache {
			e.mu.Lock()
			e.answers = append(e.answers, a)
			e.mu.Unlock()
		}
		e.storeOutcome(dkey, out)
		return out
	}
	if e.spec.DisableExeCache {
		if ctx.Err() != nil {
			return testOutcome{err: ctx.Err()}
		}
		out.didRun = true
		return finish(e.verifyRun(cr))
	}

	hash := cr.ExeHash()
	for {
		e.mu.Lock()
		ent, ok := e.exe[hash]
		if !ok {
			ent = &exeEntry{done: make(chan struct{})}
			e.exe[hash] = ent
		}
		e.mu.Unlock()
		if ok {
			// Completed or in-flight run of a bit-identical binary: wait
			// for its verdict instead of re-running.
			<-ent.done
			if ent.canceled {
				continue // owner was cancelled mid-flight; re-claim
			}
			return finish(ent.v, ent.run)
		}
		if ctx.Err() != nil {
			// Don't publish a cancelled entry: remove it so the next test
			// of this binary runs for real.
			e.mu.Lock()
			delete(e.exe, hash)
			ent.canceled = true
			e.mu.Unlock()
			close(ent.done)
			return testOutcome{err: ctx.Err()}
		}
		ent.v, ent.run = e.verifyRun(cr)
		close(ent.done)
		out.didRun = true
		return finish(ent.v, ent.run)
	}
}

// lookupAnswers finds a finished compilation whose consumed answers
// the candidate repeats.
func (e *engine) lookupAnswers(seq oraql.Seq) (answered, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, a := range e.answers {
		if a.matches(seq, e.spec.ORAQL.Mode) {
			return a, true
		}
	}
	return answered{}, false
}

// storeOutcome persists a fresh test verdict into the campaign state.
func (e *engine) storeOutcome(dkey string, out testOutcome) {
	if dkey == "" || out.err != nil {
		return
	}
	e.spec.Cache.StoreTestOutcome(dkey, diskcache.TestOutcome{OK: out.ok, Unique: out.unique})
}

// verifyRun executes the compiled program and checks its output.
func (e *engine) verifyRun(cr *pipeline.CompileResult) (verify.Result, *irinterp.Result) {
	rr, runErr := irinterp.Run(cr.Program, e.spec.Run)
	var stdout string
	if rr != nil {
		stdout = rr.Stdout
	}
	return e.spec.Verify.Check(stdout, runErr), rr
}
