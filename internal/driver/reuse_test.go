package driver

// Tests for the two build-reuse rules of the cold test path: a
// candidate that repeats every answer an earlier compilation consumed
// gets that compilation's verdict without compiling, and finalize
// adopts the newest verified build instead of compiling the final
// sequence again.

import (
	"context"
	"testing"

	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/verify"
)

const reuseCampID = "reuse-test"

// helloEngine returns an eight-worker engine over helloSrc, verifying
// against the unoptimized build's output and persisting outcomes into
// a fresh store.
func helloEngine(t *testing.T, mode oraql.Mode, disableExeCache bool) (*engine, *diskcache.Store) {
	t.Helper()
	store, err := diskcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cr, err := pipeline.Compile(pipeline.Config{Name: "hello", Source: helloSrc, OptLevel: -1})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := irinterp.Run(cr.Program, irinterp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := &BenchSpec{
		Name:            "hello",
		Compile:         pipeline.Config{Source: helloSrc},
		Verify:          verify.Spec{References: []string{rr.Stdout}},
		ORAQL:           oraql.Options{Mode: mode},
		Cache:           store,
		Workers:         8,
		DisableExeCache: disableExeCache,
	}
	if err := spec.Verify.Compile(); err != nil {
		t.Fatal(err)
	}
	e := newEngine(context.Background(), spec, reuseCampID)
	t.Cleanup(e.shutdown)
	return e, store
}

// uniform returns a sequence of n copies of answer.
func uniform(n int, answer bool) oraql.Seq {
	s := make(oraql.Seq, n)
	for i := range s {
		s[i] = answer
	}
	return s
}

// runOK runs one candidate and fails the test on an engine error.
func runOK(t *testing.T, e *engine, seq oraql.Seq) testOutcome {
	t.Helper()
	out := e.run(context.Background(), seq)
	if out.err != nil {
		t.Fatalf("run(%v): %v", seq, out.err)
	}
	return out
}

func TestConsumedAnswerHitCompilesNothing(t *testing.T) {
	e, store := helloEngine(t, oraql.ModeOptimistic, false)
	first := runOK(t, e, nil)
	if e.compiles.Load() != 1 || len(e.answers) != 1 {
		t.Fatalf("first candidate: %d compiles, %d answer entries; want 1 and 1", e.compiles.Load(), len(e.answers))
	}
	n := e.answers[0].consumed
	if n == 0 {
		t.Fatal("the fully optimistic compilation consumed no sequence positions")
	}

	// Explicit optimistic answers on every consumed position, and
	// pessimistic ones beyond them, repeat the empty sequence's build.
	hit := append(uniform(n, true), false, false)
	out := runOK(t, e, hit)
	if got := e.compiles.Load(); got != 1 {
		t.Fatalf("consumed-answer hit compiled: %d compiles, want 1", got)
	}
	if out.ok != first.ok || out.unique != first.unique || out.didRun || out.build != nil {
		t.Fatalf("hit outcome %+v, want the first build's verdict %v/%d without a run or build", out, first.ok, first.unique)
	}
	disk, ok := store.LoadTestOutcome(diskcache.TestOutcomeKey(reuseCampID, hit.String()))
	if !ok || disk.OK != first.ok || disk.Unique != first.unique {
		t.Fatalf("hit outcome on disk = %+v (found %v), want %v/%d", disk, ok, first.ok, first.unique)
	}

	// A pessimistic answer inside the consumed positions is another
	// compilation.
	miss := uniform(n, true)
	miss[n-1] = false
	runOK(t, e, miss)
	if got := e.compiles.Load(); got != 2 {
		t.Fatalf("mismatch inside the consumed positions: %d compiles, want 2", got)
	}
}

// In blocking mode the responder's past-the-end answer is pessimistic
// (blocked), so explicit pessimistic answers repeat the empty
// sequence — which they do not in optimistic mode.
func TestConsumedAnswerHitUsesModePastEnd(t *testing.T) {
	blocking, _ := helloEngine(t, oraql.ModeBlocking, false)
	runOK(t, blocking, nil)
	n := blocking.answers[0].consumed
	if n == 0 {
		t.Fatal("the empty blocking sequence consumed no positions")
	}
	runOK(t, blocking, uniform(n+2, false))
	if got := blocking.compiles.Load(); got != 1 {
		t.Errorf("blocking mode: all-pessimistic candidate compiled (%d compiles), want a hit", got)
	}

	optimistic, _ := helloEngine(t, oraql.ModeOptimistic, false)
	runOK(t, optimistic, nil)
	runOK(t, optimistic, uniform(optimistic.answers[0].consumed, false))
	if got := optimistic.compiles.Load(); got != 2 {
		t.Errorf("optimistic mode: all-pessimistic candidate hit the empty sequence's build (%d compiles)", got)
	}
}

// The consumed-answer table lives inside the exe-hash cache and is off
// with it.
func TestConsumedAnswerTableOffWithoutExeCache(t *testing.T) {
	e, _ := helloEngine(t, oraql.ModeOptimistic, true)
	runOK(t, e, nil)
	runOK(t, e, uniform(4, true))
	if got := e.compiles.Load(); got != 2 || len(e.answers) != 0 {
		t.Errorf("DisableExeCache: %d compiles, %d answer entries; want 2 and 0", got, len(e.answers))
	}
}

// After a campaign only the final outcome holds a build: finalize has
// taken the newest verified one, and every speculative call left in
// the engine — cancelled losers included — has dropped its own.
func TestNoLoserBuildSurvivesShutdown(t *testing.T) {
	for _, strat := range []Strategy{Chunked, FreqSpace} {
		sp := &BenchSpec{Name: "hello", Compile: pipeline.Config{Source: helloSrc, Lowered: &pipeline.Lowered{}},
			Workers: 8, Strategy: strat}
		st := &state{ctx: context.Background(), spec: sp}
		res, err := st.probe()
		if err != nil {
			t.Fatal(err)
		}
		if st.last != nil {
			t.Errorf("%s: the campaign still holds a build after finalize", strat.Name())
		}
		st.eng.mu.Lock()
		for key, c := range st.eng.calls {
			if c.out.build != nil {
				t.Errorf("%s: call %q kept its build after shutdown", strat.Name(), key)
			}
		}
		st.eng.mu.Unlock()
		if res.Final == nil || !res.Final.Verify.OK {
			t.Errorf("%s: no verified final outcome", strat.Name())
		}
	}
}
