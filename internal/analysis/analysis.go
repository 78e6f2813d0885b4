// Package analysis is the per-function analysis manager, modelled on
// LLVM's new-pass-manager AnalysisManager/PreservedAnalyses protocol:
// registered analyses are computed lazily, cached per function, and
// dropped only when a transformation pass declares it did not preserve
// them. The probing driver recompiles each application hundreds of
// times, so keeping dominator trees, loop forests and the MemorySSA
// walker alive across the passes that do not touch the CFG is the
// single largest compile-time lever the pipeline has (paper §VIII
// names compile/probe cost as the main obstacle to adoption).
//
// The manager is generic: it knows nothing about concrete analyses.
// The passes package registers the CFG info, the MemorySSA walker, and
// an invalidation hook that scopes the alias-query cache to the
// function that actually changed.
package analysis

import (
	"sort"
	"sync"
	"sync/atomic"

	"github.com/oraql/go-oraql/internal/ir"
)

// Key identifies one registered analysis.
type Key string

// The analyses the default pipeline registers. They live here (not in
// the passes package) so PreservedAnalyses constructors can name them
// without an import cycle.
const (
	// CFGKey is the control-flow-graph analysis (preds, RPO, dominator
	// tree, natural loops) — cfg.Info.
	CFGKey Key = "cfg"
	// MemSSAKey is the MemorySSA clobber walker — mssa.Walker.
	MemSSAKey Key = "memory-ssa"
)

// PreservedAnalyses is a transformation pass's declaration of which
// analyses remain valid after it ran, the return-value protocol of
// LLVM's new pass manager. The zero value preserves nothing.
type PreservedAnalyses struct {
	all  bool
	keys map[Key]bool
}

// All declares that every analysis is preserved — the return value of
// a pass that did not change the function.
func All() PreservedAnalyses { return PreservedAnalyses{all: true} }

// None declares that no analysis survives — the return value of a pass
// that restructured the CFG.
func None() PreservedAnalyses { return PreservedAnalyses{} }

// Some declares that exactly the named analyses are preserved.
func Some(keys ...Key) PreservedAnalyses {
	pa := PreservedAnalyses{keys: make(map[Key]bool, len(keys))}
	for _, k := range keys {
		pa.keys[k] = true
	}
	return pa
}

// CFGOnly declares that the function's instructions changed but its
// block structure did not: CFG-derived analyses survive, everything
// else (in particular the alias-query cache) is invalidated. This is
// the set EarlyCSE, GVN, DSE, LICM and Sink return.
func CFGOnly() PreservedAnalyses { return Some(CFGKey) }

// PreservesAll reports whether every analysis is preserved (i.e. the
// pass made no change it needs to announce).
func (pa PreservedAnalyses) PreservesAll() bool { return pa.all }

// Preserves reports whether the analysis k is declared preserved.
func (pa PreservedAnalyses) Preserves(k Key) bool { return pa.all || pa.keys[k] }

// Intersect returns the preservation set kept by both pa and o — the
// combination rule for a pass that ran two sub-passes.
func (pa PreservedAnalyses) Intersect(o PreservedAnalyses) PreservedAnalyses {
	if pa.all {
		return o
	}
	if o.all {
		return pa
	}
	out := PreservedAnalyses{keys: map[Key]bool{}}
	for k := range pa.keys {
		if o.keys[k] {
			out.keys[k] = true
		}
	}
	return out
}

// Registration describes one function analysis.
type Registration struct {
	Key Key

	// Build computes the result for fn. It may fetch dependencies
	// through the manager (which caches them). Nil for marker
	// registrations that exist only for their OnInvalidate hook.
	Build func(m *Manager, fn *ir.Func) any

	// PreservedWith lists keys whose joint preservation keeps this
	// analysis valid even when its own key is not named: a stateless
	// view over its dependencies, like the MemorySSA walker over the
	// CFG, is exactly as fresh as they are.
	PreservedWith []Key

	// OnInvalidate, when non-nil, runs whenever the analysis is
	// invalidated for fn — the scoped-flush hook for state held outside
	// the manager.
	OnInvalidate func(fn *ir.Func)
}

// Stats counts cache traffic for one registered analysis.
type Stats struct {
	Key           Key
	Hits          int64
	Misses        int64
	Invalidations int64
}

// counters is the internal, atomically-updated form of Stats.
type counters struct {
	hits, misses, invalidations atomic.Int64
}

func (c *counters) snapshot(k Key) Stats {
	return Stats{Key: k, Hits: c.hits.Load(), Misses: c.misses.Load(),
		Invalidations: c.invalidations.Load()}
}

// funcEntries is one function's cached results. Each function has its
// own lock: the parallel pass manager runs at most one worker per
// function, so entries of different functions are accessed without
// contention, while Invalidate of one function cannot block queries of
// another. The lock is never held across a Build call, because builds
// re-enter Get for their dependencies (MemorySSA fetches the CFG).
type funcEntries struct {
	mu   sync.Mutex
	vals map[Key]any
}

// Manager lazily computes and caches analyses per function.
//
// Registration (Register, SetCaching) is setup-time configuration and
// must happen before analyses are queried. Get and Invalidate are safe
// for concurrent use across functions; per function they assume the
// single-writer discipline of the pass manager (one worker owns a
// function at a time, pass barriers establish happens-before between
// owners).
type Manager struct {
	regs     []*Registration
	byKey    map[Key]*Registration
	stats    map[Key]*counters
	cacheOff atomic.Bool

	// mu guards the entries map itself; the funcEntries it holds are
	// never removed, so a looked-up value stays valid without it.
	mu      sync.RWMutex
	entries map[*ir.Func]*funcEntries
}

// NewManager returns an empty manager.
func NewManager() *Manager {
	return &Manager{
		byKey:   map[Key]*Registration{},
		entries: map[*ir.Func]*funcEntries{},
		stats:   map[Key]*counters{},
	}
}

// Register adds an analysis. Registering a key twice replaces the
// earlier registration (used by tests to stub builders).
func (m *Manager) Register(r Registration) {
	if old, ok := m.byKey[r.Key]; ok {
		*old = r
		return
	}
	reg := &r
	m.regs = append(m.regs, reg)
	m.byKey[r.Key] = reg
	m.stats[r.Key] = &counters{}
}

// SetCaching enables or disables result caching. Disabled, every Get
// recomputes and Invalidate treats every non-All preservation set as
// None — the force-invalidate mode the transparency tests compare
// against.
func (m *Manager) SetCaching(enabled bool) {
	m.cacheOff.Store(!enabled)
	if !enabled {
		m.mu.Lock()
		m.entries = map[*ir.Func]*funcEntries{}
		m.mu.Unlock()
	}
}

// Caching reports whether results are being cached.
func (m *Manager) Caching() bool { return !m.cacheOff.Load() }

// entriesFor returns fn's entry set, creating it on first use.
func (m *Manager) entriesFor(fn *ir.Func) *funcEntries {
	m.mu.RLock()
	e := m.entries[fn]
	m.mu.RUnlock()
	if e != nil {
		return e
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e = m.entries[fn]; e == nil {
		e = &funcEntries{vals: map[Key]any{}}
		m.entries[fn] = e
	}
	return e
}

// Get returns the analysis k for fn, computing and caching it on a
// miss. It panics on an unregistered key or a marker registration
// without a Build function — both are programming errors.
func (m *Manager) Get(k Key, fn *ir.Func) any {
	reg, ok := m.byKey[k]
	if !ok || reg.Build == nil {
		panic("analysis: Get of unregistered or marker analysis " + string(k))
	}
	st := m.stats[k]
	cacheOff := m.cacheOff.Load()
	var e *funcEntries
	if !cacheOff {
		e = m.entriesFor(fn)
		e.mu.Lock()
		res, ok := e.vals[k]
		e.mu.Unlock()
		if ok {
			st.hits.Add(1)
			return res
		}
	}
	st.misses.Add(1)
	res := reg.Build(m, fn)
	if !cacheOff {
		e.mu.Lock()
		e.vals[k] = res
		e.mu.Unlock()
	}
	return res
}

// preserved decides whether registration reg survives pa.
func preserved(reg *Registration, pa PreservedAnalyses) bool {
	if pa.Preserves(reg.Key) {
		return true
	}
	if len(reg.PreservedWith) == 0 {
		return false
	}
	for _, dep := range reg.PreservedWith {
		if !pa.Preserves(dep) {
			return false
		}
	}
	return true
}

// Invalidate drops every analysis for fn that pa does not preserve and
// fires the OnInvalidate hooks of the dropped ones. With caching
// disabled, any pa short of All() invalidates everything, so declared
// preservation sets are never trusted — the reference behaviour the
// differential tests compare the cache against.
func (m *Manager) Invalidate(fn *ir.Func, pa PreservedAnalyses) {
	if pa.PreservesAll() {
		return
	}
	cacheOff := m.cacheOff.Load()
	e := m.entriesFor(fn)
	for _, reg := range m.regs {
		if !cacheOff && preserved(reg, pa) {
			continue
		}
		e.mu.Lock()
		_, had := e.vals[reg.Key]
		delete(e.vals, reg.Key)
		e.mu.Unlock()
		if had {
			m.stats[reg.Key].invalidations.Add(1)
		}
		if reg.OnInvalidate != nil {
			reg.OnInvalidate(fn)
		}
	}
}

// StatsFor returns the cache counters of one analysis (zero value if
// never registered).
func (m *Manager) StatsFor(k Key) Stats {
	if s, ok := m.stats[k]; ok {
		return s.snapshot(k)
	}
	return Stats{Key: k}
}

// Snapshot returns the counters of every registered analysis with a
// Build function, sorted by key for deterministic output.
func (m *Manager) Snapshot() []Stats {
	out := make([]Stats, 0, len(m.regs))
	for _, r := range m.regs {
		if r.Build == nil {
			continue
		}
		out = append(out, m.stats[r.Key].snapshot(r.Key))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
