package aa

import (
	"sort"
	"sync"

	"github.com/oraql/go-oraql/internal/ir"
)

// Stats aggregates query outcomes over one compilation, broken down by
// analysis and by requesting pass. The totals feed the Fig. 4 columns
// ("# No-Alias Results", original vs ORAQL).
//
// A Stats value is an immutable snapshot: Manager.Stats returns a deep
// copy of the accumulator it guards internally, so snapshots taken from
// concurrent compilations can be read and Merge'd freely without
// additional locking.
type Stats struct {
	Queries      int64 `json:"queries"`
	NoAlias      int64 `json:"no_alias"`
	MustAlias    int64 `json:"must_alias"`
	PartialAlias int64 `json:"partial_alias"`
	MayAlias     int64 `json:"may_alias"`

	// CacheHits / CacheMisses are always 0: the manager no longer
	// memoizes queries (see DESIGN.md). They are kept for readers of
	// the serialized statistics that still report a hit ratio.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`

	// NoAliasByAnalysis counts definitive no-alias answers per analysis
	// in the chain (including "oraql" when present).
	NoAliasByAnalysis map[string]int64 `json:"no_alias_by_analysis"`

	// QueriesByPass counts queries per requesting pass.
	QueriesByPass map[string]int64 `json:"queries_by_pass"`
}

// NewStats returns an empty statistics accumulator.
func NewStats() *Stats {
	return &Stats{NoAliasByAnalysis: map[string]int64{}, QueriesByPass: map[string]int64{}}
}

// Clone returns a deep copy of the statistics.
func (s *Stats) Clone() *Stats {
	out := NewStats()
	out.Merge(s)
	return out
}

// Merge adds other's counters into s, so per-compilation snapshots from
// concurrent compiles can be aggregated into suite-wide totals.
func (s *Stats) Merge(other *Stats) {
	if other == nil {
		return
	}
	s.Queries += other.Queries
	s.NoAlias += other.NoAlias
	s.MustAlias += other.MustAlias
	s.PartialAlias += other.PartialAlias
	s.MayAlias += other.MayAlias
	s.CacheHits += other.CacheHits
	s.CacheMisses += other.CacheMisses
	for k, v := range other.NoAliasByAnalysis {
		s.NoAliasByAnalysis[k] += v
	}
	for k, v := range other.QueriesByPass {
		s.QueriesByPass[k] += v
	}
}

// Analyses returns the analysis names with no-alias counts, sorted.
func (s *Stats) Analyses() []string {
	names := make([]string, 0, len(s.NoAliasByAnalysis))
	for n := range s.NoAliasByAnalysis {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Blocker can suppress the analysis chain for selected queries,
// forcing the pessimistic may-alias fallback. This implements the
// paper's Section VIII future-work design: "effectively block existing
// analyses and provide more pessimistic results in order to determine
// the effect on subsequent passes and performance".
type Blocker interface {
	// Block reports whether the chain should be skipped for this query.
	Block(a, b MemLoc, q *QueryCtx) bool
}

// OrderSensitive is implemented by analyses whose answers depend on
// the order queries arrive in. The ORAQL responder is the canonical
// case: each unique query consumes the next element of its response
// sequence. Analyses that do not implement the interface (or return
// false) are pure functions of the IR.
type OrderSensitive interface {
	OrderSensitiveAlias() bool
}

// Manager is the alias-analysis chain. Queries walk the chain in order
// and stop at the first definitive answer; if every analysis says
// may-alias, the manager returns may-alias — exactly the LLVM
// AAResults aggregation the paper describes in Section III. Every
// query walks the chain against the current IR; nothing is memoized
// between queries.
//
// Manager is safe for concurrent queries; note however that the ORAQL
// pass appended during probing keeps its own unsynchronized state, so
// probing compilations use one manager per compilation.
//
// Statistics are sharded by the querying function (QueryCtx.Func):
// the parallel pass manager runs one worker per function, so
// concurrent queries from different functions book into disjoint
// shards and never contend; Stats() merges the shard snapshots. All
// counters of one query are booked in a single critical section, so a
// snapshot can never observe a query whose outcome is missing (no
// torn reads).
type Manager struct {
	Module *ir.Module
	chain  []Analysis

	// Blocker, when non-nil, is consulted before the chain.
	Blocker Blocker

	// shardMu guards the shards map itself; the shards it holds are
	// never removed, so a looked-up shard stays valid without it.
	shardMu sync.RWMutex
	shards  map[*ir.Func]*shard
}

// shard holds the statistics of the queries issued from one function.
// fn == nil (queries without a function context) has a shard of its
// own.
type shard struct {
	mu    sync.Mutex
	stats *Stats
}

func newShard() *shard { return &shard{stats: NewStats()} }

// NewManager returns a manager over m with the given chain, queried in
// order. Shards for m's functions (and the nil function) are created
// eagerly so the common query path is a read-lock map hit.
func NewManager(m *ir.Module, chain ...Analysis) *Manager {
	mgr := &Manager{
		Module: m,
		chain:  chain,
		shards: map[*ir.Func]*shard{nil: newShard()},
	}
	if m != nil {
		for _, fn := range m.Funcs {
			mgr.shards[fn] = newShard()
		}
	}
	return mgr
}

// shardFor returns fn's shard, creating it for functions that did not
// exist when the manager was built.
func (mgr *Manager) shardFor(fn *ir.Func) *shard {
	mgr.shardMu.RLock()
	s := mgr.shards[fn]
	mgr.shardMu.RUnlock()
	if s != nil {
		return s
	}
	mgr.shardMu.Lock()
	defer mgr.shardMu.Unlock()
	if s = mgr.shards[fn]; s == nil {
		s = newShard()
		mgr.shards[fn] = s
	}
	return s
}

// DefaultChain builds the analyses enabled in the default -O3 pipeline,
// mirroring LLVM's defaults: Basic, ScopedNoAlias, TypeBased, ArgAttr,
// Globals. The CFL analyses exist but are off by default because of
// their scaling behaviour (paper Section I); use FullChain to enable
// them. Append the ORAQL pass after whichever chain is chosen. Both
// are thin wrappers over the registered "default"/"full" chain orders
// (registry.go); ChainByName resolves arbitrary registered names and
// custom comma lists.
func DefaultChain(m *ir.Module) []Analysis {
	return buildChain(m, defaultChainNames)
}

// FullChain is DefaultChain plus the two CFL points-to analyses
// (Andersen, Steensgaard), i.e. all seven analyses the paper lists for
// LLVM 14.
func FullChain(m *ir.Module) []Analysis {
	return buildChain(m, fullChainNames)
}

// Append adds an analysis at the end of the chain (used to install the
// ORAQL pass last, per paper Section IV-A).
func (mgr *Manager) Append(a Analysis) { mgr.chain = append(mgr.chain, a) }

// Chain returns the analyses in query order.
func (mgr *Manager) Chain() []Analysis { return mgr.chain }

// Stats returns a snapshot of the accumulated query statistics, merged
// over all shards. Each shard is snapshotted under its own lock, and
// every shard books all counters of a query atomically, so the merged
// snapshot always satisfies the per-query invariants (every counted
// query has a counted outcome) even while queries are in flight.
func (mgr *Manager) Stats() *Stats {
	mgr.shardMu.RLock()
	shards := make([]*shard, 0, len(mgr.shards))
	for _, s := range mgr.shards {
		shards = append(shards, s)
	}
	mgr.shardMu.RUnlock()
	out := NewStats()
	for _, s := range shards {
		s.mu.Lock()
		out.Merge(s.stats)
		s.mu.Unlock()
	}
	return out
}

// OrderDependent reports whether query answers can depend on the
// cross-function order in which queries are issued: true when a
// Blocker is installed or an OrderSensitive analysis (the ORAQL
// responder, whose replies consume a response sequence in query order)
// sits in the chain. The pass manager falls back to sequential
// function scheduling for order-dependent managers, since reordering
// their query stream would change compilation results.
func (mgr *Manager) OrderDependent() bool {
	if mgr.Blocker != nil {
		return true
	}
	for _, an := range mgr.chain {
		if o, ok := an.(OrderSensitive); ok && o.OrderSensitiveAlias() {
			return true
		}
	}
	return false
}

// book records every counter of one query in a single critical section
// of the function's shard: attribution and outcome. Booking atomically
// is what makes Stats() snapshots tear-free.
func (s *shard) book(q *QueryCtx, r Result, analysis string) {
	s.mu.Lock()
	st := s.stats
	st.Queries++
	if q != nil && q.Pass != "" {
		st.QueriesByPass[q.Pass]++
	}
	switch r {
	case NoAlias:
		st.NoAlias++
		st.NoAliasByAnalysis[analysis]++
	case MustAlias:
		st.MustAlias++
	case PartialAlias:
		st.PartialAlias++
	default:
		st.MayAlias++
	}
	s.mu.Unlock()
}

// Alias answers an alias query by walking the chain and returning the
// first definitive answer, or may-alias when there is none. All
// statistics of the query are booked in one critical section of the
// issuing function's shard, after the answer is known.
func (mgr *Manager) Alias(a, b MemLoc, q *QueryCtx) Result {
	var fn *ir.Func
	if q != nil {
		fn = q.Func
	}
	s := mgr.shardFor(fn)
	if mgr.Blocker != nil && mgr.Blocker.Block(a, b, q) {
		s.book(q, MayAlias, "")
		return MayAlias
	}
	for _, an := range mgr.chain {
		if r := an.Alias(a, b, q); r.Definitive() {
			s.book(q, r, an.Name())
			return r
		}
	}
	s.book(q, MayAlias, "")
	return MayAlias
}

// NoAliasLocs reports whether two locations are proven disjoint.
func (mgr *Manager) NoAliasLocs(a, b MemLoc, q *QueryCtx) bool {
	return mgr.Alias(a, b, q) == NoAlias
}

// InstrMayClobberLoc reports whether instruction in may write a
// location. It issues one query per written location of in.
func (mgr *Manager) InstrMayClobberLoc(in *ir.Instr, loc MemLoc, q *QueryCtx) bool {
	if !in.WritesMemory() {
		return false
	}
	var buf [8]MemLoc
	return mgr.mayAccess(in, appendAccessLocs(buf[:0], in, true), loc, q)
}

// InstrMayReadLoc reports whether in may read from loc.
func (mgr *Manager) InstrMayReadLoc(in *ir.Instr, loc MemLoc, q *QueryCtx) bool {
	if !in.ReadsMemory() {
		return false
	}
	var buf [8]MemLoc
	return mgr.mayAccess(in, appendAccessLocs(buf[:0], in, false), loc, q)
}

// mayAccess reports whether in, accessing locs, may touch loc. The
// callers collect locs into a stack buffer, so a check allocates
// nothing.
func (mgr *Manager) mayAccess(in *ir.Instr, locs []MemLoc, loc MemLoc, q *QueryCtx) bool {
	if len(locs) == 0 {
		// Accesses memory but through no identifiable pointer (e.g. an
		// unknown call): conservatively clobbers.
		return true
	}
	if in.Op == ir.OpCall && !ir.CalleeEffects(in.Callee).ArgMemOnly {
		// A user call may access any captured pointer, not only its
		// arguments; still issue the per-argument queries so the query
		// stream matches LLVM's, then stay conservative.
		for _, l := range locs {
			mgr.Alias(loc, l, q)
		}
		return true
	}
	for _, l := range locs {
		if mgr.Alias(loc, l, q) != NoAlias {
			return true
		}
	}
	return false
}
