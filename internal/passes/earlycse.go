package passes

import (
	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/analysis"
	"github.com/oraql/go-oraql/internal/ir"
)

// EarlyCSE performs a per-block forward scan that reuses previously
// computed pure expressions and forwards memory: a load from a location
// that a prior store or load in the same block made available is
// replaced, with alias queries deciding which available entries an
// intervening write invalidates.
type EarlyCSE struct{}

// Name implements Pass.
func (*EarlyCSE) Name() string { return "Early CSE" }

type availEntry struct {
	loc aa.MemLoc
	val ir.Value // the value the location holds
}

// Run implements Pass.
func (p *EarlyCSE) Run(fn *ir.Func, ctx *Context) analysis.PreservedAnalyses {
	changed := false
	q := ctx.Query(fn)
	for _, b := range fn.Blocks {
		exprs := map[exprKey]*ir.Instr{}
		var avail []availEntry
		for _, in := range b.Instrs {
			if in.Dead() {
				continue
			}
			switch {
			case isPureOp(in):
				key, ok := keyOf(in)
				if !ok {
					continue
				}
				if prev, ok := exprs[key]; ok {
					fn.ReplaceAllUses(in, prev)
					in.MarkDead()
					changed = true
					ctx.Stats.Add(p.Name(), "# instructions eliminated", 1)
					continue
				}
				exprs[key] = in

			case in.Op == ir.OpLoad:
				loc := aa.LocOfLoad(in)
				if v := lookupAvail(ctx, q, avail, loc, in.Ty); v != nil {
					fn.ReplaceAllUses(in, v)
					in.MarkDead()
					changed = true
					ctx.Stats.Add(p.Name(), "# instructions eliminated", 1)
					ctx.Stats.Add(p.Name(), "# loads forwarded", 1)
					continue
				}
				avail = append(avail, availEntry{loc, in})

			case in.WritesMemory():
				avail = invalidate(ctx, q, avail, in)
				if in.Op == ir.OpStore {
					avail = append(avail, availEntry{aa.LocOfStore(in), in.Operands[0]})
				}
			}
		}
	}
	if !changed {
		return analysis.All()
	}
	fn.Compact()
	return analysis.CFGOnly() // removes instructions, never edges
}

// lookupAvail finds an available entry whose location must-aliases loc
// with a compatible type.
func lookupAvail(ctx *Context, q *aa.QueryCtx, avail []availEntry, loc aa.MemLoc, ty *ir.Type) ir.Value {
	for i := len(avail) - 1; i >= 0; i-- {
		e := avail[i]
		if e.val.Type() != ty {
			continue
		}
		if !e.loc.Size.Known || !loc.Size.Known || e.loc.Size.Bytes != loc.Size.Bytes {
			continue
		}
		if ctx.AA.Alias(e.loc, loc, q) == aa.MustAlias {
			return e.val
		}
	}
	return nil
}

// invalidate drops the available entries the writer may clobber.
func invalidate(ctx *Context, q *aa.QueryCtx, avail []availEntry, writer *ir.Instr) []availEntry {
	out := avail[:0]
	for _, e := range avail {
		if !ctx.AA.InstrMayClobberLoc(writer, e.loc, q) {
			out = append(out, e)
		}
	}
	return out
}
