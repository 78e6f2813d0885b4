package aa_test

import (
	"fmt"
	"testing"

	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/progen"
)

// refNonCapturingIntrinsics mirrors the intrinsics IsNonCaptured
// treats as not retaining pointer arguments.
var refNonCapturingIntrinsics = map[string]bool{
	"__print_str":         true,
	"__checksum_f64":      true,
	"__checksum_i64":      true,
	"__free":              true,
	"__mpi_sendrecv":      true,
	"__mpi_allreduce_f64": true,
}

// refIsNonCaptured is the map-based reference for aa.IsNonCaptured:
// derived pointers are tracked by value identity instead of by
// instruction ID.
func refIsNonCaptured(obj *ir.Instr) bool {
	fn := obj.Parent.Parent
	derived := map[ir.Value]bool{obj: true}
	for changed := true; changed; {
		changed = false
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Dead() {
					continue
				}
				if (in.Op == ir.OpGEP || in.Op == ir.OpSelect) && !derived[in] {
					for _, op := range in.Operands {
						if derived[op] {
							derived[in] = true
							changed = true
							break
						}
					}
				}
			}
		}
	}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Dead() {
				continue
			}
			switch in.Op {
			case ir.OpStore:
				if derived[in.Operands[0]] {
					return false
				}
			case ir.OpCall:
				eff := ir.CalleeEffects(in.Callee)
				if ir.IsIntrinsic(in.Callee) && (refNonCapturingIntrinsics[in.Callee] || !eff.Reads && !eff.Writes) {
					continue
				}
				if in.Callee == "__memcpy" {
					continue
				}
				for _, op := range in.Operands {
					if derived[op] {
						return false
					}
				}
			case ir.OpPhi, ir.OpRet:
				for _, op := range in.Operands {
					if derived[op] {
						return false
					}
				}
			}
		}
	}
	return true
}

// checkNonCaptured compares IsNonCaptured with the reference on every
// local object of the compiled modules, returning how many it checked.
func checkNonCaptured(t *testing.T, name string, cr *pipeline.CompileResult) int {
	t.Helper()
	n := 0
	for _, m := range []*ir.Module{cr.Program.Host, cr.Program.Device} {
		if m == nil {
			continue
		}
		for _, fn := range m.Funcs {
			for _, b := range fn.Blocks {
				for _, in := range b.Instrs {
					if in.Dead() || !aa.IsLocalObject(in) {
						continue
					}
					n++
					if got, want := aa.IsNonCaptured(in), refIsNonCaptured(in); got != want {
						t.Errorf("%s: %s: %s: IsNonCaptured = %v, reference %v", name, fn.Name, in, got, want)
					}
				}
			}
		}
	}
	return n
}

// TestIsNonCapturedMatchesReference runs the bitset IsNonCaptured
// against the map-based reference on every local object of the Fig. 4
// configurations and a progen corpus, both on the pristine frontend
// output and after the -O3 pipeline.
func TestIsNonCapturedMatchesReference(t *testing.T) {
	models := []minic.Model{minic.ModelSeq, minic.ModelOpenMP, minic.ModelOffload}
	checked := 0
	for _, lvl := range []int{-1, 3} {
		for _, c := range apps.All() {
			pc := c.Spec().Compile
			pc.Name = c.ID
			pc.OptLevel = lvl
			cr, err := pipeline.Compile(pc)
			if err != nil {
				t.Fatalf("%s O%d: %v", c.ID, lvl, err)
			}
			checked += checkNonCaptured(t, fmt.Sprintf("%s O%d", c.ID, lvl), cr)
		}
		for seed := int64(1); seed <= 64; seed++ {
			p := progen.Generate(seed, progen.Options{})
			cr, err := pipeline.Compile(pipeline.Config{
				Name: fmt.Sprintf("seed%d", seed), Source: p.Source, SourceFile: p.FileName,
				Frontend: minic.Options{Model: models[int(seed)%len(models)]}, OptLevel: lvl,
			})
			if err != nil {
				t.Fatalf("seed %d O%d: %v", seed, lvl, err)
			}
			checked += checkNonCaptured(t, fmt.Sprintf("seed %d O%d", seed, lvl), cr)
		}
	}
	if checked == 0 {
		t.Fatal("no local objects checked")
	}
}

// TestClobberChecksDoNotAllocate pins the allocation-free query path:
// clobber and read checks collect locations on the stack, and the
// capture scan reuses pooled bitsets.
func TestClobberChecksDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled bitsets under the race detector")
	}
	m := ir.NewModule("alloc")
	p := &ir.Arg{Name: "p", Ty: ir.Ptr}
	fn, b := ir.NewFunc(m, "f", ir.Void, p)
	a := b.Alloca(64, "a")
	g := b.GEP(a, ir.ConstInt(1), 8, 0, "g")
	st := b.Store(ir.ConstFloat(1), g, "double")
	ld := b.Load(ir.F64, p, "double")
	b.Ret(nil)
	mgr := aa.NewManager(m, aa.DefaultChain(m)...)
	q := &aa.QueryCtx{Pass: "test", Func: fn}
	loc := aa.LocOfLoad(ld)
	mgr.InstrMayClobberLoc(st, loc, q) // warm the stats maps and the bitset pool
	if n := testing.AllocsPerRun(100, func() {
		mgr.InstrMayClobberLoc(st, loc, q)
		mgr.InstrMayReadLoc(ld, aa.LocOfStore(st), q)
	}); n != 0 {
		t.Errorf("clobber/read checks allocate %v times per run, want 0", n)
	}
}
