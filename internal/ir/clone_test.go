package ir

import (
	"fmt"
	"math"
	"testing"
)

// TestHashF64MatchesFmt pins float-constant VIDs: hashF64 hashes
// exactly the bytes fmt's %g renders, so switching the formatter
// changed no VID.
func TestHashF64MatchesFmt(t *testing.T) {
	viaFmt := func(f float64) uint32 {
		h := uint32(2166136261)
		for _, b := range []byte(fmt.Sprintf("%g", f)) {
			h = (h ^ uint32(b)) * 16777619
		}
		return h
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, 0.1, 3, 1e21, 1e300, -2.5, 1e-7, math.MaxFloat64,
	} {
		if got, want := hashF64(f), viaFmt(f); got != want {
			t.Errorf("hashF64(%g) = %#x, want %#x", f, got, want)
		}
	}
	c := ConstFloat(0.1)
	if n := testing.AllocsPerRun(10, func() { c.VID() }); n != 0 {
		t.Errorf("float Const.VID allocates %v times", n)
	}
}

// cloneFixture builds a host module with a loop (a phi referring
// forward), a constant shared by two instructions, TBAA and scope
// metadata and an initialized global, plus a device module whose
// Globals list shares that global, as minic's offload lowering does.
func cloneFixture() (host, dev *Module, shared *Const) {
	host = NewModule("host")
	host.TBAA.Add("row", "double")
	g := host.AddGlobal(&Global{Name: "tab", Size: 16, InitF64: []float64{1.5, 2.5}})
	p := &Arg{Name: "p", Ty: Ptr, NoAlias: true}
	_, b := NewFunc(host, "main", I64, p)
	entry := b.Block()
	loop := b.NewBlock("loop")
	exit := b.NewBlock("exit")
	shared = ConstInt(7)
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(I64, "i")
	x := b.Load(F64, g, "row")
	x.Scopes = []string{"s0"}
	st := b.Store(x, p, "double")
	st.NoAliasScope = []string{"s0"}
	next := b.Bin(OpAdd, i, shared, "next")
	b.CondBr(b.ICmp(PredLT, next, shared, "c"), loop, exit)
	b.SetBlock(exit)
	b.Ret(next)
	AddIncoming(i, ConstInt(0), entry)
	AddIncoming(i, next, loop)

	dev = NewModule("dev")
	dev.Target = "gpu-sim"
	dev.Globals = append(dev.Globals, g)
	_, db := NewFunc(dev, "kern", Void)
	db.Store(ConstFloat(0), g, "")
	db.Ret(nil)
	return host, dev, shared
}

// TestCloneModulesPointerGraph checks that clones print like their
// originals, keep shared objects shared (a constant, a global both
// modules list), share nothing with the originals, keep the ID
// counters, and are independent of them afterwards.
func TestCloneModulesPointerGraph(t *testing.T) {
	host, dev, shared := cloneFixture()
	before := host.String() + dev.String()
	ms := CloneModules(host, dev)
	ch, cd := ms[0], ms[1]
	if got := ch.String() + cd.String(); got != before {
		t.Fatalf("clone prints differently:\n%s\nwant\n%s", got, before)
	}
	if ch.Globals[0] == host.Globals[0] || cd.Globals[0] != ch.Globals[0] {
		t.Errorf("the global both modules list is not one fresh copy")
	}
	var uses []Value
	for _, b := range ch.Funcs[0].Blocks {
		for _, in := range b.Instrs {
			for _, op := range in.Operands {
				if c, ok := op.(*Const); ok && c.I == shared.I && c.Ty == I64 {
					uses = append(uses, op)
				}
				if op == Value(shared) {
					t.Errorf("%s: operand still points at the original constant", in.Ident())
				}
			}
		}
	}
	if len(uses) != 2 || uses[0] != uses[1] {
		t.Errorf("the shared constant has %d uses in the clone, not one shared copy", len(uses))
	}
	f, cf := host.Funcs[0], ch.Funcs[0]
	if cf.nextInstrID != f.nextInstrID || cf.nextBlockID != f.nextBlockID {
		t.Errorf("the clone's ID counters differ from the original's")
	}
	if cf.Params[0].Func != cf || cf.Blocks[1].Instrs[0].Incoming[1] != cf.Blocks[1] {
		t.Errorf("clone references point outside the clone")
	}

	// Mutating the clone leaves the original alone.
	cf.Blocks[1].Instrs[1].Scopes[0] = "changed"
	cf.Blocks[1].Instrs[0].Operands[0] = ConstInt(99)
	ch.TBAA.Add("col", "double")
	ch.Globals[0].InitF64[0] = 9
	if got := host.String() + dev.String(); got != before {
		t.Errorf("mutating the clone changed the original:\n%s\nwant\n%s", got, before)
	}
	if host.TBAA.Has("col") || host.Globals[0].InitF64[0] != 1.5 {
		t.Errorf("mutating the clone changed the original's TBAA tree or initializer")
	}
}

// TestCloneRejectsForeignOperand checks that an operand defined
// outside the module is reported, not silently shared.
func TestCloneRejectsForeignOperand(t *testing.T) {
	other := NewModule("other")
	g := other.AddGlobal(&Global{Name: "g", Size: 8})
	m := NewModule("m")
	_, b := NewFunc(m, "main", I64)
	b.Load(I64, g, "")
	b.Ret(ConstInt(0))
	defer func() {
		if recover() == nil {
			t.Error("Clone accepted an operand from another module")
		}
	}()
	m.Clone()
}
