// Package oraql implements the paper's core contribution: the ORAQL
// "alias analysis" pass. The name is a misnomer by design — no analysis
// is performed. The pass sits at the end of the alias-analysis chain
// and answers the queries no conservative analysis could resolve,
// according to a predetermined response sequence supplied by the
// probing driver: "1" means optimistic (no-alias), "0" means
// pessimistic (may-alias). Once the sequence is exhausted, all further
// unique queries are answered optimistically, which makes the empty
// sequence the fully optimistic compilation.
//
// A cache keyed on the unordered pointer pair — deliberately ignoring
// the location descriptions — serves repeated queries, both to shorten
// the probed sequence and to keep the optimistic answers internally
// consistent (paper Section IV-A).
package oraql

import (
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/ir"
)

// Seq is a response sequence: true answers a query optimistically
// (no-alias), false pessimistically (may-alias).
type Seq []bool

// ParseSeq parses the -opt-aa-seq command-line syntax: space-separated
// "1"/"0" characters. The empty string is the empty (fully optimistic)
// sequence. An argument of the form @<filename> loads the sequence from
// a file, mirroring LLVM's response-file support for sequences longer
// than the argument length limit.
func ParseSeq(s string) (Seq, error) {
	if strings.HasPrefix(s, "@") {
		data, err := os.ReadFile(s[1:])
		if err != nil {
			return nil, fmt.Errorf("oraql: sequence file: %w", err)
		}
		s = string(data)
	}
	var seq Seq
	for _, f := range strings.Fields(s) {
		switch f {
		case "1":
			seq = append(seq, true)
		case "0":
			seq = append(seq, false)
		default:
			return nil, fmt.Errorf("oraql: invalid sequence element %q (want 0 or 1)", f)
		}
	}
	return seq, nil
}

// String renders the sequence in -opt-aa-seq syntax.
func (s Seq) String() string {
	parts := make([]string, len(s))
	for i, b := range s {
		if b {
			parts[i] = "1"
		} else {
			parts[i] = "0"
		}
	}
	return strings.Join(parts, " ")
}

// Clone returns a copy of the sequence.
func (s Seq) Clone() Seq { return append(Seq(nil), s...) }

// CountPessimistic returns the number of 0s in the sequence.
func (s Seq) CountPessimistic() int {
	n := 0
	for _, b := range s {
		if !b {
			n++
		}
	}
	return n
}

// DumpFlags selects which queries the pass prints, mirroring the
// -opt-aa-dump-{first,cached} x -opt-aa-dump-{optimistic,pessimistic}
// command-line flags. At least one of First/Cached and one of
// Optimistic/Pessimistic must be set for any output to appear.
type DumpFlags struct {
	First       bool
	Cached      bool
	Optimistic  bool
	Pessimistic bool
}

// Any reports whether the flags can produce output at all.
func (d DumpFlags) Any() bool {
	return (d.First || d.Cached) && (d.Optimistic || d.Pessimistic)
}

// Mode selects how the responder participates in the analysis chain.
type Mode int

const (
	// ModeOptimistic is the paper's main design: the pass sits last in
	// the chain and answers leftover queries no-alias ("1") or
	// may-alias ("0").
	ModeOptimistic Mode = iota
	// ModeBlocking is the Section VIII future-work design: the pass is
	// consulted *first* and a "0" suppresses the whole analysis chain
	// for that query (forcing may-alias), which measures how much the
	// existing conservative analyses actually contribute. "1" lets the
	// chain answer normally. More pessimism is always sound, so no
	// verification bisection is needed in this mode.
	ModeBlocking
	// ModeOptimisticMust is Section VIII's other open question: answer
	// leftover queries *must-alias* instead of no-alias, to see whether
	// optimistic must-alias responses unlock additional forwarding
	// (store-to-load forwarding keys on must-alias). Wrong answers
	// break programs exactly as in the no-alias mode, so the same
	// probing workflow applies.
	ModeOptimisticMust
)

// Options configures the pass.
type Options struct {
	// Mode selects optimistic (default) or blocking operation.
	Mode Mode
	// Seq is the response sequence (-opt-aa-seq).
	Seq Seq
	// Target restricts the pass to modules whose target string contains
	// this substring (-opt-aa-target); empty matches everything. Used
	// for offload compilations where only the device part is probed.
	Target string
	// Funcs restricts the pass to queries issued while compiling the
	// named functions; empty means all. The driver fills this from the
	// benchmark configuration ("the exact files or functions to which
	// optimistic probing is applied").
	Funcs []string
	// Files restricts by source file of either query pointer.
	Files []string
	// Dump controls debug output; Out receives it (default os.Stderr).
	Dump DumpFlags
	Out  io.Writer
}

// QueryRecord describes one unique (non-cached) query the pass
// answered; the report tooling renders these like the paper's Fig. 3.
type QueryRecord struct {
	Index      int  // position in the unique-query stream
	Optimistic bool // response given
	A, B       aa.MemLoc
	Pass       string // requesting pass at first issue
	Func       string // enclosing function
	CacheHits  int    // times later served from cache
}

// LocDescriptions renders both query locations the way the Fig. 3
// dump does; the difftest triage reports embed these strings.
func (r *QueryRecord) LocDescriptions() (a, b string) {
	return describeLoc(r.A), describeLoc(r.B)
}

// SrcLocs returns the source locations of the two query pointers
// (either may be invalid).
func (r *QueryRecord) SrcLocs() (a, b ir.SrcLoc) {
	return srcOf(r.A), srcOf(r.B)
}

// Stats are the counters the pass reports through the statistics
// mechanism; the driver reads Unique to size bisection sequences.
type Stats struct {
	UniqueOptimistic  int
	CachedOptimistic  int
	UniquePessimistic int
	CachedPessimistic int
}

// Unique is the number of unique (non-cached) queries answered.
func (s Stats) Unique() int { return s.UniqueOptimistic + s.UniquePessimistic }

// Cached is the number of queries served from the pair cache.
func (s Stats) Cached() int { return s.CachedOptimistic + s.CachedPessimistic }

// Pass is the ORAQL responder. It implements aa.Analysis and must be
// appended as the last element of the analysis chain so that it only
// sees otherwise-unanswerable queries.
type Pass struct {
	opts    Options
	module  *ir.Module
	active  bool
	cursor  int
	cache   map[[2]int64]*QueryRecord
	records []*QueryRecord
	stats   Stats
}

// New creates a pass instance for one compilation of m.
func New(m *ir.Module, opts Options) *Pass {
	if opts.Out == nil {
		opts.Out = os.Stderr
	}
	p := &Pass{opts: opts, module: m, cache: map[[2]int64]*QueryRecord{}}
	p.active = opts.Target == "" || strings.Contains(m.Target, opts.Target)
	return p
}

// Name implements aa.Analysis.
func (*Pass) Name() string { return "oraql" }

// OrderSensitiveAlias implements aa.OrderSensitive: each unique query
// consumes the next element of the response sequence, so the pass
// manager must issue queries in one global order.
func (*Pass) OrderSensitiveAlias() bool { return true }

// Stats returns the pass counters.
func (p *Pass) Stats() Stats { return p.stats }

// Records returns the unique queries in issue order.
func (p *Pass) Records() []*QueryRecord { return p.records }

// Alias implements aa.Analysis (ModeOptimistic / ModeOptimisticMust):
// answer from cache, else consume the next sequence element (optimistic
// once the sequence is exhausted).
func (p *Pass) Alias(a, b aa.MemLoc, q *aa.QueryCtx) aa.Result {
	if p.opts.Mode == ModeBlocking || !p.active || !p.inScope(a, b, q) {
		return aa.MayAlias
	}
	if !p.decide(a, b, q, true) {
		return aa.MayAlias
	}
	if p.opts.Mode == ModeOptimisticMust {
		return aa.MustAlias
	}
	return aa.NoAlias
}

// Block implements aa.Blocker (ModeBlocking): a "0" in the sequence
// suppresses the analysis chain for that query; past the sequence end
// everything is blocked, so the empty sequence disables the chain
// entirely (the fully pessimistic compilation).
func (p *Pass) Block(a, b aa.MemLoc, q *aa.QueryCtx) bool {
	if p.opts.Mode != ModeBlocking || !p.active || !p.inScope(a, b, q) {
		return false
	}
	// Record semantics: Optimistic == "chain allowed".
	return !p.decide(a, b, q, false)
}

// decide serves the query from the pair cache or consumes the next
// sequence element; pastEnd is the answer once the sequence runs out.
func (p *Pass) decide(a, b aa.MemLoc, q *aa.QueryCtx, pastEnd bool) bool {
	key := pairKey(a.Ptr, b.Ptr)
	if rec, ok := p.cache[key]; ok {
		rec.CacheHits++
		if rec.Optimistic {
			p.stats.CachedOptimistic++
		} else {
			p.stats.CachedPessimistic++
		}
		p.dump(rec, true)
		return rec.Optimistic
	}
	optimistic := pastEnd
	if p.cursor < len(p.opts.Seq) {
		optimistic = p.opts.Seq[p.cursor]
	}
	rec := &QueryRecord{
		Index:      p.cursor,
		Optimistic: optimistic,
		A:          a,
		B:          b,
	}
	if q != nil {
		rec.Pass = q.Pass
		if q.Func != nil {
			rec.Func = q.Func.Name
		}
	}
	p.cursor++
	p.cache[key] = rec
	p.records = append(p.records, rec)
	if optimistic {
		p.stats.UniqueOptimistic++
	} else {
		p.stats.UniquePessimistic++
	}
	p.dump(rec, false)
	return optimistic
}

// inScope applies the function/file filters from the configuration.
func (p *Pass) inScope(a, b aa.MemLoc, q *aa.QueryCtx) bool {
	if len(p.opts.Funcs) > 0 {
		if q == nil || q.Func == nil || !contains(p.opts.Funcs, q.Func.Name) {
			return false
		}
	}
	if len(p.opts.Files) > 0 {
		if !p.fileMatch(a) && !p.fileMatch(b) {
			return false
		}
	}
	return true
}

func (p *Pass) fileMatch(l aa.MemLoc) bool {
	if l.Instr == nil || !l.Instr.Loc.IsValid() {
		return false
	}
	return contains(p.opts.Files, l.Instr.Loc.File)
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// pairKey builds the cache key: the unordered pointer pair, with
// location descriptions deliberately dropped (paper Section IV-A).
func pairKey(a, b ir.Value) [2]int64 {
	x, y := a.VID(), b.VID()
	if x > y {
		x, y = y, x
	}
	return [2]int64{x, y}
}

// dump prints a query in the format of the paper's Fig. 3.
func (p *Pass) dump(rec *QueryRecord, cached bool) {
	d := p.opts.Dump
	if !d.Any() {
		return
	}
	if cached && !d.Cached || !cached && !d.First {
		return
	}
	if rec.Optimistic && !d.Optimistic || !rec.Optimistic && !d.Pessimistic {
		return
	}
	kind := "Optimistic"
	if !rec.Optimistic {
		kind = "Pessimistic"
	}
	c := 0
	if cached {
		c = 1
	}
	fmt.Fprintf(p.opts.Out, "[ORAQL] %s query [Cached %d]\n", kind, c)
	fmt.Fprintf(p.opts.Out, "[ORAQL] - %s\n", describeLoc(rec.A))
	fmt.Fprintf(p.opts.Out, "[ORAQL] - %s\n", describeLoc(rec.B))
	if rec.Func != "" {
		fmt.Fprintf(p.opts.Out, "[ORAQL] Scope: %s\n", rec.Func)
	}
	if la, lb := srcOf(rec.A), srcOf(rec.B); la.IsValid() || lb.IsValid() {
		fmt.Fprintf(p.opts.Out, "[ORAQL] LocA: %s\n", la)
		fmt.Fprintf(p.opts.Out, "[ORAQL] LocB: %s\n", lb)
	}
}

func describeLoc(l aa.MemLoc) string {
	var def string
	if in, ok := l.Ptr.(*ir.Instr); ok {
		def = in.String()
	} else {
		def = fmt.Sprintf("%s %s", l.Ptr.Type(), l.Ptr.Ident())
	}
	return fmt.Sprintf("%s [%s]", def, l.Size)
}

func srcOf(l aa.MemLoc) ir.SrcLoc {
	if in, ok := l.Ptr.(*ir.Instr); ok && in.Loc.IsValid() {
		return in.Loc
	}
	if l.Instr != nil {
		return l.Instr.Loc
	}
	return ir.SrcLoc{}
}
