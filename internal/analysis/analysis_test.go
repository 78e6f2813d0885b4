package analysis

import (
	"testing"

	"github.com/oraql/go-oraql/internal/ir"
)

func twoFuncs() (*ir.Func, *ir.Func) {
	m := ir.NewModule("t")
	f, fb := ir.NewFunc(m, "f", ir.Void)
	fb.Ret(nil)
	g, gb := ir.NewFunc(m, "g", ir.Void)
	gb.Ret(nil)
	return f, g
}

// markerKey is a Build-less registration that exists only for its
// OnInvalidate hook.
const markerKey Key = "marker"

func TestPreservedAnalysesSets(t *testing.T) {
	if !All().PreservesAll() || !All().Preserves(CFGKey) {
		t.Error("All must preserve everything")
	}
	if None().PreservesAll() || None().Preserves(CFGKey) {
		t.Error("None must preserve nothing")
	}
	pa := CFGOnly()
	if pa.PreservesAll() || !pa.Preserves(CFGKey) || pa.Preserves(markerKey) {
		t.Errorf("CFGOnly must preserve exactly the CFG")
	}
	both := Some(CFGKey, MemSSAKey).Intersect(CFGOnly())
	if !both.Preserves(CFGKey) || both.Preserves(MemSSAKey) {
		t.Error("Intersect must keep only jointly preserved keys")
	}
	if x := All().Intersect(CFGOnly()); !x.Preserves(CFGKey) || x.Preserves(MemSSAKey) {
		t.Error("All is the Intersect identity")
	}
}

func TestManagerCachesPerFunction(t *testing.T) {
	f, g := twoFuncs()
	m := NewManager()
	builds := 0
	m.Register(Registration{Key: CFGKey, Build: func(*Manager, *ir.Func) any {
		builds++
		return builds
	}})

	if m.Get(CFGKey, f) != 1 || m.Get(CFGKey, f) != 1 {
		t.Error("second Get must be served from the cache")
	}
	if m.Get(CFGKey, g) != 2 {
		t.Error("distinct functions must not share results")
	}
	s := m.StatsFor(CFGKey)
	if s.Hits != 1 || s.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 1/2", s.Hits, s.Misses)
	}
}

func TestManagerInvalidationScope(t *testing.T) {
	f, g := twoFuncs()
	m := NewManager()
	builds := 0
	m.Register(Registration{Key: CFGKey, Build: func(*Manager, *ir.Func) any {
		builds++
		return builds
	}})
	m.Get(CFGKey, f)
	m.Get(CFGKey, g)

	// Invalidating f must not touch g's entry.
	m.Invalidate(f, None())
	if m.Get(CFGKey, g) != 2 {
		t.Error("g's entry must survive f's invalidation")
	}
	if m.Get(CFGKey, f) != 3 {
		t.Error("f's entry must have been dropped")
	}
	if s := m.StatsFor(CFGKey); s.Invalidations != 1 {
		t.Errorf("Invalidations = %d, want 1", s.Invalidations)
	}
	// A preserving set drops nothing.
	m.Invalidate(f, CFGOnly())
	if m.Get(CFGKey, f) != 3 {
		t.Error("preserved analysis must survive")
	}
	// All() is a no-op by definition.
	m.Invalidate(f, All())
	if m.Get(CFGKey, f) != 3 {
		t.Error("All must invalidate nothing")
	}
}

func TestManagerPreservedWith(t *testing.T) {
	f, _ := twoFuncs()
	m := NewManager()
	m.Register(Registration{Key: CFGKey, Build: func(*Manager, *ir.Func) any { return "cfg" }})
	walks := 0
	m.Register(Registration{
		Key:           MemSSAKey,
		PreservedWith: []Key{CFGKey},
		Build: func(am *Manager, fn *ir.Func) any {
			walks++
			return am.Get(CFGKey, fn).(string) + "+walker"
		},
	})
	if m.Get(MemSSAKey, f) != "cfg+walker" {
		t.Fatal("dependent build")
	}
	// CFGOnly preserves the walker transitively (stateless over the CFG).
	m.Invalidate(f, CFGOnly())
	m.Get(MemSSAKey, f)
	if walks != 1 {
		t.Errorf("walker rebuilt %d times, want 1 (preserved with its deps)", walks)
	}
	// None drops it.
	m.Invalidate(f, None())
	m.Get(MemSSAKey, f)
	if walks != 2 {
		t.Errorf("walker rebuilt %d times, want 2 after None()", walks)
	}
}

func TestManagerOnInvalidateHook(t *testing.T) {
	f, g := twoFuncs()
	m := NewManager()
	var flushed []*ir.Func
	m.Register(Registration{Key: markerKey, OnInvalidate: func(fn *ir.Func) {
		flushed = append(flushed, fn)
	}})
	m.Invalidate(f, CFGOnly())
	m.Invalidate(g, None())
	m.Invalidate(g, All())
	m.Invalidate(g, Some(markerKey))
	if len(flushed) != 2 || flushed[0] != f || flushed[1] != g {
		t.Errorf("hook fired for %v, want [f g]", flushed)
	}
}

func TestManagerForceInvalidateMode(t *testing.T) {
	f, _ := twoFuncs()
	m := NewManager()
	builds := 0
	m.Register(Registration{Key: CFGKey, Build: func(*Manager, *ir.Func) any {
		builds++
		return builds
	}})
	hookFired := 0
	m.Register(Registration{Key: markerKey, OnInvalidate: func(*ir.Func) { hookFired++ }})
	m.SetCaching(false)
	if m.Caching() {
		t.Fatal("caching must report disabled")
	}
	m.Get(CFGKey, f)
	m.Get(CFGKey, f)
	if builds != 2 {
		t.Errorf("disabled cache must rebuild every Get, built %d", builds)
	}
	// Declared preservation is not trusted: CFGOnly still fires the hook.
	m.Invalidate(f, CFGOnly())
	if hookFired != 1 {
		t.Error("force mode must invalidate everything on any change")
	}
	// But All() (nothing changed) is still a no-op.
	m.Invalidate(f, All())
	if hookFired != 1 {
		t.Error("All must stay a no-op in force mode")
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	f, _ := twoFuncs()
	m := NewManager()
	m.Register(Registration{Key: MemSSAKey, Build: func(*Manager, *ir.Func) any { return 1 }})
	m.Register(Registration{Key: CFGKey, Build: func(*Manager, *ir.Func) any { return 2 }})
	m.Register(Registration{Key: markerKey}) // marker: excluded
	m.Get(CFGKey, f)
	snap := m.Snapshot()
	if len(snap) != 2 || snap[0].Key != CFGKey || snap[1].Key != MemSSAKey {
		t.Errorf("snapshot = %+v, want [cfg memory-ssa]", snap)
	}
	if snap[0].Misses != 1 {
		t.Errorf("cfg misses = %d, want 1", snap[0].Misses)
	}
}
