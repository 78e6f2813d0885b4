package aa

import (
	"fmt"
	"sync"
	"testing"

	"github.com/oraql/go-oraql/internal/ir"
)

func TestInstrMayClobberLoc(t *testing.T) {
	f := newFixture(t)
	st := f.b.Store(ir.ConstInt(1), f.a1, "")
	ld := f.b.Load(ir.I64, f.a1, "")
	call := f.b.Call(ir.Void, "__print_i64", ld)
	userCall := f.b.Call(ir.Void, "f", f.p) // self-recursive: unknown effects
	f.b.Ret(nil)
	mgr := NewManager(f.m, DefaultChain(f.m)...)
	a1Loc := f.loc(f.a1, 8)
	a2Loc := f.loc(f.a2, 8)
	if !mgr.InstrMayClobberLoc(st, a1Loc, nil) {
		t.Error("store to a1 clobbers a1")
	}
	if mgr.InstrMayClobberLoc(st, a2Loc, nil) {
		t.Error("store to a1 cannot clobber a2")
	}
	if mgr.InstrMayClobberLoc(ld, a1Loc, nil) {
		t.Error("loads never clobber")
	}
	if mgr.InstrMayClobberLoc(call, a1Loc, nil) {
		t.Error("print intrinsics never clobber")
	}
	if !mgr.InstrMayClobberLoc(userCall, f.loc(f.p, 8), nil) {
		t.Error("unknown user calls clobber conservatively")
	}
}

func TestInstrMayReadLoc(t *testing.T) {
	f := newFixture(t)
	ld := f.b.Load(ir.I64, f.a1, "")
	cs := f.b.Call(ir.F64, "__checksum_f64", f.a2, ir.ConstInt(2))
	f.b.Ret(nil)
	_ = ld
	mgr := NewManager(f.m, DefaultChain(f.m)...)
	if !mgr.InstrMayReadLoc(ld, f.loc(f.a1, 8), nil) {
		t.Error("load reads its own location")
	}
	if mgr.InstrMayReadLoc(ld, f.loc(f.a2, 8), nil) {
		t.Error("load of a1 does not read a2")
	}
	// checksum is argmemonly: reads a2 but not a1.
	if !mgr.InstrMayReadLoc(cs, f.loc(f.a2, 8), nil) {
		t.Error("checksum reads its buffer")
	}
	if mgr.InstrMayReadLoc(cs, f.loc(f.a1, 8), nil) {
		t.Error("argmemonly call must not read unrelated allocas")
	}
}

func TestFullChainAnswersMore(t *testing.T) {
	// Two distinct mallocs stored through a struct slot: the default
	// chain cannot separate the loaded pointers, the CFL analyses can.
	m := ir.NewModule("t")
	_, b := ir.NewFunc(m, "f", ir.Void)
	s1 := b.Alloca(8, "s1")
	s2 := b.Alloca(8, "s2")
	o1 := b.Call(ir.Ptr, "__malloc", ir.ConstInt(64))
	o2 := b.Call(ir.Ptr, "__malloc", ir.ConstInt(64))
	b.Store(o1, s1, "")
	b.Store(o2, s2, "")
	l1 := b.Load(ir.Ptr, s1, "")
	l2 := b.Load(ir.Ptr, s2, "")
	b.Ret(nil)
	locA := MemLoc{Ptr: l1, Size: PreciseSize(8)}
	locB := MemLoc{Ptr: l2, Size: PreciseSize(8)}
	def := NewManager(m, DefaultChain(m)...)
	if r := def.Alias(locA, locB, nil); r != MayAlias {
		t.Errorf("default chain should fail here, got %v", r)
	}
	full := NewManager(m, FullChain(m)...)
	if r := full.Alias(locA, locB, nil); r != NoAlias {
		t.Errorf("CFL analyses should separate the mallocs, got %v", r)
	}
}

func TestBlockerShortCircuitsChain(t *testing.T) {
	f := newFixture(t)
	f.b.Ret(nil)
	mgr := NewManager(f.m, DefaultChain(f.m)...)
	mgr.Blocker = blockAll{}
	// Even trivially-disjoint allocas become may-alias when blocked.
	if r := mgr.Alias(f.loc(f.a1, 8), f.loc(f.a2, 8), nil); r != MayAlias {
		t.Errorf("blocked query = %v", r)
	}
	if mgr.Stats().NoAlias != 0 || mgr.Stats().MayAlias != 1 {
		t.Errorf("stats: %+v", mgr.Stats())
	}
}

type blockAll struct{}

func (blockAll) Block(a, b MemLoc, q *QueryCtx) bool { return true }

func TestStatsAnalysesSorted(t *testing.T) {
	f := newFixture(t)
	f.b.Ret(nil)
	mgr := NewManager(f.m, DefaultChain(f.m)...)
	mgr.Alias(f.loc(f.a1, 8), f.loc(f.a2, 8), nil)
	mgr.Alias(f.loc(f.q, 8), f.loc(f.a1, 8), nil)
	names := mgr.Stats().Analyses()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("analyses not sorted: %v", names)
		}
	}
}

func TestStatsMergeAndClone(t *testing.T) {
	a := NewStats()
	a.Queries, a.NoAlias = 3, 2
	a.NoAliasByAnalysis["basic-aa"] = 2
	a.QueriesByPass["GVN"] = 3

	b := NewStats()
	b.Queries, b.MayAlias = 2, 2
	b.NoAliasByAnalysis["tbaa"] = 1
	b.QueriesByPass["GVN"] = 2

	sum := a.Clone()
	sum.Merge(b)
	if sum.Queries != 5 || sum.NoAlias != 2 || sum.MayAlias != 2 {
		t.Errorf("merged outcome counters wrong: %+v", sum)
	}
	if sum.QueriesByPass["GVN"] != 5 || sum.NoAliasByAnalysis["basic-aa"] != 2 || sum.NoAliasByAnalysis["tbaa"] != 1 {
		t.Errorf("merged maps wrong: %+v", sum)
	}
	// Clone must be deep: mutating the clone leaves the original alone.
	if a.QueriesByPass["GVN"] != 3 {
		t.Errorf("Clone aliased the source maps")
	}
}

// TestManagerConcurrentQueries exercises the manager's locking under the
// race detector: concurrent queries plus statistics snapshots.
func TestManagerConcurrentQueries(t *testing.T) {
	f := newFixture(t)
	mgr := NewManager(f.m, NewBasicAA())
	l1, l2 := f.loc(f.a1, 8), f.loc(f.a2, 8)

	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 200; j++ {
				if r := mgr.Alias(l1, l2, nil); r != NoAlias {
					t.Errorf("got %v, want NoAlias", r)
					return
				}
				if j%50 == 0 {
					mgr.Stats()
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	s := mgr.Stats()
	if s.Queries != 800 || s.NoAlias != 800 {
		t.Errorf("Queries/NoAlias = %d/%d, want 800/800", s.Queries, s.NoAlias)
	}
	if s.CacheHits != 0 || s.CacheMisses != 0 {
		t.Errorf("CacheHits/CacheMisses = %d/%d, want 0/0 (no query cache)", s.CacheHits, s.CacheMisses)
	}
}

// TestStatsSnapshotNotTorn is the torn-read oracle: while workers
// hammer Alias across several function shards, concurrent Stats()
// snapshots must always be internally consistent — every counted query
// has exactly one outcome. Booking all counters of one query in a
// single critical section of its shard is what makes this hold; run
// under -race it also proves Stats() takes the shard locks it needs.
func TestStatsSnapshotNotTorn(t *testing.T) {
	m := ir.NewModule("torn")
	const funcs = 4
	type fnLocs struct {
		fn     *ir.Func
		l1, l2 MemLoc
	}
	var fls [funcs]fnLocs
	for i := 0; i < funcs; i++ {
		fn, b := ir.NewFunc(m, fmt.Sprintf("f%d", i), ir.Void)
		a1 := b.Alloca(64, "a1")
		a2 := b.Alloca(64, "a2")
		fls[i] = fnLocs{fn: fn,
			l1: MemLoc{Ptr: a1, Size: PreciseSize(8)},
			l2: MemLoc{Ptr: a2, Size: PreciseSize(8)}}
	}
	mgr := NewManager(m, NewBasicAA())

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	var writers sync.WaitGroup
	for i := 0; i < funcs; i++ {
		writers.Add(1)
		go func(fl fnLocs) {
			defer writers.Done()
			q := &QueryCtx{Pass: "hammer", Func: fl.fn}
			for j := 0; j < 5000; j++ {
				mgr.Alias(fl.l1, fl.l2, q)
				mgr.Alias(fl.l1, fl.l1, q)
			}
		}(fls[i])
	}
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := mgr.Stats()
			if got := s.NoAlias + s.MustAlias + s.PartialAlias + s.MayAlias; got != s.Queries {
				t.Errorf("torn snapshot: outcomes %d != queries %d", got, s.Queries)
				return
			}
			var byAnalysis int64
			for _, n := range s.NoAliasByAnalysis {
				byAnalysis += n
			}
			if byAnalysis != s.NoAlias {
				t.Errorf("torn snapshot: per-analysis no-alias %d != total %d", byAnalysis, s.NoAlias)
				return
			}
			if s.QueriesByPass["hammer"] != s.Queries {
				t.Errorf("torn snapshot: per-pass queries %d != total %d",
					s.QueriesByPass["hammer"], s.Queries)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone

	s := mgr.Stats()
	const want = funcs * 5000 * 2
	if s.Queries != want {
		t.Fatalf("Queries = %d, want %d", s.Queries, want)
	}
	if got := s.NoAlias + s.MustAlias + s.PartialAlias + s.MayAlias; got != want {
		t.Fatalf("final outcomes = %d, want %d", got, want)
	}
}
