// Package passes implements the optimization pipeline: a pass manager
// with LLVM-style statistics (-stats), pass-execution tracing
// (-debug-pass=Executions) and timing (-time-passes), and the
// AA-consuming transformation passes whose statistics the paper
// reports in Fig. 6 — EarlyCSE, GVN, MemCpyOpt, DSE, LICM, loop load
// elimination, loop deletion, the loop and SLP vectorizers, and
// sinking — plus the AA-free cleanups (InstSimplify, SimplifyCFG,
// ADCE) that keep the IR canonical.
//
// Passes obtain CFG info and the MemorySSA walker through the
// per-function analysis manager (Context.CFG / Context.MemSSA) and
// report what they preserved by returning an
// analysis.PreservedAnalyses set, the new-pass-manager protocol.
package passes

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/analysis"
	"github.com/oraql/go-oraql/internal/cfg"
	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/mssa"
)

// StatsRegistry accumulates named counters per pass, mirroring LLVM's
// STATISTIC mechanism surfaced through -mllvm -stats. Only
// deterministic counters belong here — the transparency tests compare
// registries across cached and uncached compilations bit-for-bit;
// wall times go to Timing instead.
type StatsRegistry struct {
	counters map[statKey]int64
	order    []statKey
}

type statKey struct{ Pass, Stat string }

// NewStats returns an empty registry.
func NewStats() *StatsRegistry {
	return &StatsRegistry{counters: map[statKey]int64{}}
}

// Add increments a counter.
func (s *StatsRegistry) Add(pass, stat string, n int64) {
	k := statKey{pass, stat}
	if _, ok := s.counters[k]; !ok {
		s.order = append(s.order, k)
	}
	s.counters[k] += n
}

// Get returns a counter value (0 if never incremented).
func (s *StatsRegistry) Get(pass, stat string) int64 {
	return s.counters[statKey{pass, stat}]
}

// Merge adds other's counters into s, preserving other's insertion
// order for keys s has not seen. The parallel pass manager books each
// function's counters into a private registry and merges them at the
// pass barrier in module function order, which reproduces the exact
// key order (and therefore byte-identical -stats output) of the
// sequential pipeline.
func (s *StatsRegistry) Merge(other *StatsRegistry) {
	if other == nil {
		return
	}
	for _, k := range other.order {
		if _, ok := s.counters[k]; !ok {
			s.order = append(s.order, k)
		}
		s.counters[k] += other.counters[k]
	}
}

// Entry is one (pass, statistic, value) line of the -stats report.
type Entry struct {
	Pass  string
	Stat  string
	Value int64
}

// Ordered returns all counters in insertion order — the order Merge
// reproduces, which the disk cache persists so replayed counters enter
// a warm registry exactly as the cold pipeline inserted them.
func (s *StatsRegistry) Ordered() []Entry {
	out := make([]Entry, len(s.order))
	for i, k := range s.order {
		out[i] = Entry{k.Pass, k.Stat, s.counters[k]}
	}
	return out
}

// Entries returns all counters sorted by pass then statistic name.
func (s *StatsRegistry) Entries() []Entry {
	keys := append([]statKey(nil), s.order...)
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Pass != keys[j].Pass {
			return keys[i].Pass < keys[j].Pass
		}
		return keys[i].Stat < keys[j].Stat
	})
	out := make([]Entry, len(keys))
	for i, k := range keys {
		out[i] = Entry{k.Pass, k.Stat, s.counters[k]}
	}
	return out
}

// Print renders the registry in the style of LLVM's -stats output.
func (s *StatsRegistry) Print(w io.Writer) {
	fmt.Fprintln(w, "===-------------------------------------------------------------------------===")
	fmt.Fprintln(w, "                          ... Statistics Collected ...")
	fmt.Fprintln(w, "===-------------------------------------------------------------------------===")
	for _, e := range s.Entries() {
		fmt.Fprintf(w, "%8d %s - %s\n", e.Value, e.Pass, e.Stat)
	}
}

// Context carries everything a pass needs: the module, the AA manager
// (with ORAQL possibly at the end of its chain), the statistics
// registry, the per-function analysis manager, and debug options.
type Context struct {
	Module *ir.Module
	AA     *aa.Manager
	Stats  *StatsRegistry

	// Ctx, when non-nil, cancels the pipeline between pass executions:
	// Pipeline.Run stops scheduling passes once it is done. Callers that
	// need the cancellation surfaced as an error check Ctx.Err() after
	// Run returns (pipeline.CompileContext does).
	Ctx context.Context

	// Timing, when non-nil, accumulates per-pass run counts and wall
	// times — the -time-passes report. It is deliberately separate from
	// Stats: wall time is nondeterministic.
	Timing *Timing

	// DisableAnalysisCache runs the analysis manager in force-invalidate
	// mode: every Get recomputes and any change invalidates everything,
	// never trusting declared preservation sets. This is the reference
	// behaviour the transparency tests compare the cache against.
	DisableAnalysisCache bool

	// DebugPassExec prints "Executing Pass '<name>' on Function '<fn>'"
	// lines to Out, the analogue of -debug-pass=Executions that the
	// paper uses to attribute queries to passes (Fig. 3).
	DebugPassExec bool
	Out           io.Writer

	// Disk, when non-nil, is the per-function disk-cache plan: hit
	// functions carry cached optimized bodies (already swapped in by
	// DiskPlan.Apply) and have their pass accounting replayed instead
	// of executed; miss functions run normally with their accounting
	// captured for persisting. See diskplan.go.
	Disk *DiskPlan

	// Workers bounds the per-function parallelism of Pipeline.Run:
	// each function pass fans out over Module.Funcs on a pool of this
	// many workers, with a barrier between passes (0 = GOMAXPROCS,
	// 1 = the strictly sequential pipeline). Compilation output is
	// byte-identical for every value; Run falls back to sequential
	// execution when the AA manager is order-dependent (ORAQL or a
	// Blocker installed) or when DebugPassExec traces executions.
	Workers int

	// curPass is the pass currently executing; queries carry it.
	curPass string

	// am is the lazily built analysis manager; use Analyses().
	am *analysis.Manager
}

// Analyses returns the context's analysis manager, building and
// populating it with the default registrations on first use: CFG info,
// and the MemorySSA walker (valid exactly as long as the CFG is).
func (c *Context) Analyses() *analysis.Manager {
	if c.am == nil {
		m := analysis.NewManager()
		m.Register(analysis.Registration{
			Key:   analysis.CFGKey,
			Build: func(_ *analysis.Manager, fn *ir.Func) any { return cfg.New(fn) },
		})
		m.Register(analysis.Registration{
			Key: analysis.MemSSAKey,
			Build: func(m *analysis.Manager, fn *ir.Func) any {
				info := m.Get(analysis.CFGKey, fn).(*cfg.Info)
				return mssa.New(fn, info, c.AA)
			},
			// The walker holds no state beyond its CFG view, so it stays
			// valid whenever the CFG does.
			PreservedWith: []analysis.Key{analysis.CFGKey},
		})
		m.SetCaching(!c.DisableAnalysisCache)
		c.am = m
	}
	return c.am
}

// CFG returns fn's control-flow analyses (cached until a pass fails to
// preserve them).
func (c *Context) CFG(fn *ir.Func) *cfg.Info {
	return c.Analyses().Get(analysis.CFGKey, fn).(*cfg.Info)
}

// MemSSA returns fn's MemorySSA clobber walker (cached with the CFG).
func (c *Context) MemSSA(fn *ir.Func) *mssa.Walker {
	return c.Analyses().Get(analysis.MemSSAKey, fn).(*mssa.Walker)
}

// InvalidateAll drops every cached analysis for fn. Passes that
// restructure the CFG mid-run (loop rotation, vectorization) call this
// between iterations before re-fetching CFG info.
func (c *Context) InvalidateAll(fn *ir.Func) {
	c.Analyses().Invalidate(fn, analysis.None())
}

// Query returns the AA query context for the currently running pass.
func (c *Context) Query(fn *ir.Func) *aa.QueryCtx {
	return &aa.QueryCtx{Pass: c.curPass, Func: fn}
}

// QueryAs returns an AA query context attributed to a named analysis
// (e.g. "Memory SSA") rather than the running transformation pass.
func (c *Context) QueryAs(name string, fn *ir.Func) *aa.QueryCtx {
	return &aa.QueryCtx{Pass: name, Func: fn}
}

// Pass is a function transformation pass.
type Pass interface {
	// Name is the human-readable pass name used in statistics and
	// query attribution (matching the paper's pass names).
	Name() string
	// Run transforms fn and declares which analyses it preserved:
	// All() when nothing changed, CFGOnly() when instructions changed
	// but block structure did not, None() after CFG surgery.
	Run(fn *ir.Func, ctx *Context) analysis.PreservedAnalyses
}

// Pipeline is an ordered list of passes run over every function.
type Pipeline struct {
	Passes []Pass
}

// O3Pipeline mirrors the structure of the default -O3 pipeline: local
// cleanups, then the AA-driven scalar optimizations, then loop
// optimizations and vectorization, then final cleanups. Two rounds of
// the scalar passes approximate LLVM's iteration.
func O3Pipeline() *Pipeline {
	return &Pipeline{Passes: []Pass{
		&InstSimplify{},
		&SimplifyCFG{},
		&EarlyCSE{},
		&GVN{},
		&MemCpyOpt{},
		&DSE{},
		&LICM{},
		&LoopLoadElim{},
		// Vectorization runs on the canonical top-tested form...
		&LoopVectorize{},
		&SLPVectorize{},
		// ...then rotation exposes guaranteed-to-execute bodies to the
		// second, stronger scalar round (LLVM's loop-rotate-before-LICM
		// ordering).
		&LoopRotate{},
		&LICM{},
		&GVN{},
		&DSE{},
		&LoopDeletion{},
		&SimplifyCFG{},
		&EarlyCSE{},
		&Sink{},
		&ADCE{},
		&SimplifyCFG{},
	}}
}

// O1Pipeline is a reduced pipeline without vectorization or loop
// deletion, used by the pipeline-comparison experiments.
func O1Pipeline() *Pipeline {
	return &Pipeline{Passes: []Pass{
		&InstSimplify{},
		&SimplifyCFG{},
		&EarlyCSE{},
		&GVN{},
		&DSE{},
		&LICM{},
		&ADCE{},
		&SimplifyCFG{},
	}}
}

// Run executes the pipeline over every function in ctx.Module. After
// each pass run it applies the pass's preservation set to the analysis
// manager — the invalidation boundary that used to be a module-wide
// AA cache flush and is now scoped to the function that changed.
//
// With an effective worker count above one, each function pass fans
// out over the module's functions on a bounded worker pool; passes
// remain sequential barriers (pass i+1 starts only after pass i
// finished on every function). Per-function statistics and timing are
// accumulated privately and merged at the barrier in module function
// order, so -stats and -time-passes output cannot depend on worker
// scheduling.
func (p *Pipeline) Run(ctx *Context) {
	if w := ctx.effectiveWorkers(); w > 1 {
		p.runParallel(ctx, w)
		return
	}
	p.runSequential(ctx)
}

// effectiveWorkers resolves Context.Workers against the configurations
// that require sequential execution: an order-dependent AA manager
// (the ORAQL responder consumes its response sequence in global query
// order) and -debug-pass tracing (the execution log is defined in
// sequential order).
func (c *Context) effectiveWorkers() int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w <= 1 {
		return 1
	}
	if c.DebugPassExec {
		return 1
	}
	if c.AA != nil && c.AA.OrderDependent() {
		return 1
	}
	return w
}

// runSequential is the worker-count-one pipeline, byte-for-byte the
// pre-parallel behaviour.
func (p *Pipeline) runSequential(ctx *Context) {
	am := ctx.Analyses()
	dp := ctx.Disk
	for pi, pass := range p.Passes {
		for fi, fn := range ctx.Module.Funcs {
			if ctx.Ctx != nil && ctx.Ctx.Err() != nil {
				ctx.curPass = ""
				return
			}
			if dp != nil && dp.isHit(fi) {
				// Body already swapped in from disk: replay this visit's
				// accounting instead of executing the pass.
				dp.replayRun(ctx, pi, fi, pass.Name())
				continue
			}
			if len(fn.Blocks) == 0 {
				continue
			}
			ctx.curPass = pass.Name()
			if ctx.DebugPassExec && ctx.Out != nil {
				fmt.Fprintf(ctx.Out, "Executing Pass '%s' on Function '%s'...\n", pass.Name(), fn.Name)
			}
			capture := dp != nil && dp.capturing(fi)
			shared := ctx.Stats
			if capture {
				// Book this run privately so the captured artifact holds
				// exactly this (pass, function) delta; merging back into
				// the shared registry preserves key insertion order.
				ctx.Stats = NewStats()
			}
			start := time.Now()
			pa := pass.Run(fn, ctx)
			elapsed := time.Since(start)
			fn.Compact()
			am.Invalidate(fn, pa)
			if capture {
				local := ctx.Stats
				ctx.Stats = shared
				shared.Merge(local)
				dp.recordRun(fi, pi, local, !pa.PreservesAll())
			}
			if ctx.Timing != nil {
				ctx.Timing.Record(pass.Name(), elapsed, !pa.PreservesAll())
			}
		}
	}
	ctx.curPass = ""
}

// fnRun is one function's accounting of one pass execution, collected
// by a worker and merged at the pass barrier.
type fnRun struct {
	stats   *StatsRegistry
	wall    time.Duration
	changed bool
	done    bool
}

// runParallel schedules each pass over the module's functions on
// workers goroutines. Functions are the unit of parallelism: one
// worker owns a function for the duration of a pass execution, and
// the pass barrier (WaitGroup) establishes happens-before between
// owners across passes, so per-function IR mutation needs no locks.
// The AA manager and analysis manager are sharded per function and
// safe for this access pattern.
func (p *Pipeline) runParallel(ctx *Context, workers int) {
	am := ctx.Analyses()
	funcs := ctx.Module.Funcs
	if workers > len(funcs) {
		workers = len(funcs)
	}
	if workers <= 1 {
		p.runSequential(ctx)
		return
	}
	dp := ctx.Disk
	runs := make([]fnRun, len(funcs))
	for pi, pass := range p.Passes {
		if ctx.Ctx != nil && ctx.Ctx.Err() != nil {
			return
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Each worker gets its own Context view: curPass for
				// query attribution and a per-function Stats registry,
				// sharing the module, AA manager, and analysis manager.
				wctx := *ctx
				wctx.curPass = pass.Name()
				wctx.Timing = nil
				for {
					i := int(next.Add(1)) - 1
					if i >= len(funcs) {
						return
					}
					if ctx.Ctx != nil && ctx.Ctx.Err() != nil {
						return
					}
					fn := funcs[i]
					runs[i] = fnRun{}
					if dp != nil && dp.isHit(i) {
						continue // replayed at the barrier, in function order
					}
					if len(fn.Blocks) == 0 {
						continue
					}
					local := NewStats()
					wctx.Stats = local
					start := time.Now()
					pa := pass.Run(fn, &wctx)
					elapsed := time.Since(start)
					fn.Compact()
					am.Invalidate(fn, pa)
					runs[i] = fnRun{stats: local, wall: elapsed,
						changed: !pa.PreservesAll(), done: true}
				}
			}()
		}
		wg.Wait()
		// Barrier merge in module function order: counter keys enter
		// the shared registry exactly as the sequential pipeline would
		// have inserted them, and timing rows accumulate per pass in
		// pipeline order.
		for i := range runs {
			if dp != nil && dp.isHit(i) {
				dp.replayRun(ctx, pi, i, pass.Name())
				continue
			}
			r := &runs[i]
			if !r.done {
				continue
			}
			ctx.Stats.Merge(r.stats)
			if ctx.Timing != nil {
				ctx.Timing.Record(pass.Name(), r.wall, r.changed)
			}
			if dp != nil && dp.capturing(i) {
				dp.recordRun(i, pi, r.stats, r.changed)
			}
		}
	}
}
