package passes

import (
	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/analysis"
	"github.com/oraql/go-oraql/internal/ir"
)

// GVN is global value numbering: pure expressions with identical
// operands are unified across blocks under dominance, and loads are
// eliminated through the MemorySSA walker — a load is replaced by a
// dominating store's value (store-to-load forwarding) or by an earlier
// load with the same clobbering definition (redundant-load
// elimination). This is the pass the paper most often observes issuing
// the decisive queries (Fig. 3).
type GVN struct{}

// Name implements Pass.
func (*GVN) Name() string { return "Global Value Numbering" }

// Run implements Pass.
func (p *GVN) Run(fn *ir.Func, ctx *Context) analysis.PreservedAnalyses {
	changed := false
	info := ctx.CFG(fn)
	walker := ctx.MemSSA(fn)
	q := ctx.Query(fn)

	// Pure-expression numbering over RPO with dominance.
	leaders := map[exprKey]*ir.Instr{}
	for _, b := range info.RPO {
		for _, in := range b.Instrs {
			if in.Dead() || !isPureOp(in) {
				continue
			}
			key, ok := keyOf(in)
			if !ok {
				continue
			}
			if lead, ok := leaders[key]; ok && info.DominatesInstr(lead, in) {
				fn.ReplaceAllUses(in, lead)
				in.MarkDead()
				changed = true
				ctx.Stats.Add(p.Name(), "# instructions eliminated", 1)
				continue
			}
			leaders[key] = in
		}
	}

	// Load elimination keyed by (pointer, type, clobbering definition).
	type loadKey struct {
		ptr int64
		ty  *ir.Type
		def int
	}
	loadLeaders := map[loadKey]*ir.Instr{}
	for _, b := range info.RPO {
		for _, in := range b.Instrs {
			if in.Dead() || in.Op != ir.OpLoad {
				continue
			}
			loc := aa.LocOfLoad(in)
			def, unique := walker.ClobberingDef(in, loc)
			if !unique {
				continue
			}
			// Store-to-load forwarding.
			if def != nil && def.Op == ir.OpStore && def.Operands[0].Type() == in.Ty {
				sLoc := aa.LocOfStore(def)
				if sLoc.Size.Known && loc.Size.Known && sLoc.Size.Bytes == loc.Size.Bytes &&
					ctx.AA.Alias(sLoc, loc, q) == aa.MustAlias &&
					info.DominatesInstr(def, in) {
					fn.ReplaceAllUses(in, def.Operands[0])
					in.MarkDead()
					changed = true
					ctx.Stats.Add(p.Name(), "# loads deleted", 1)
					continue
				}
			}
			// Redundant-load elimination: same pointer, same type, same
			// memory state.
			defID := -1
			if def != nil {
				defID = def.ID
			}
			key := loadKey{in.Operands[0].VID(), in.Ty, defID}
			if lead, ok := loadLeaders[key]; ok && !lead.Dead() && info.DominatesInstr(lead, in) {
				fn.ReplaceAllUses(in, lead)
				in.MarkDead()
				changed = true
				ctx.Stats.Add(p.Name(), "# loads deleted", 1)
				continue
			}
			loadLeaders[key] = in
		}
	}

	if removeDeadCode(fn) > 0 {
		changed = true
	}
	if !changed {
		return analysis.All()
	}
	return analysis.CFGOnly() // deletes instructions, never edges
}
