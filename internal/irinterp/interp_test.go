package irinterp

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/oraql/go-oraql/internal/ir"
)

// buildMain gives a builder for an empty main.
func buildMain(t testing.TB) (*ir.Module, *ir.Builder) {
	t.Helper()
	m := ir.NewModule("t")
	_, b := ir.NewFunc(m, "main", ir.I64)
	return m, b
}

func runModule(t testing.TB, m *ir.Module, opts Options) *Result {
	t.Helper()
	res, err := Run(&Program{Host: m}, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestArithmeticAndPrint(t *testing.T) {
	m, b := buildMain(t)
	x := b.Bin(ir.OpMul, ir.ConstInt(6), ir.ConstInt(7), "x")
	b.Call(ir.Void, "__print_i64", x)
	b.Call(ir.Void, "__print_str", ir.ConstStr("\n"))
	f := b.Bin(ir.OpFDiv, ir.ConstFloat(1), ir.ConstFloat(8), "f")
	b.Call(ir.Void, "__print_f64", f)
	b.Ret(ir.ConstInt(0))
	res := runModule(t, m, Options{})
	if res.Stdout != "42\n0.125" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	m, b := buildMain(t)
	a := b.Alloca(16, "a")
	g := b.GEP(a, nil, 0, 8, "g")
	b.Store(ir.ConstFloat(3.25), g, "")
	ld := b.Load(ir.F64, g, "")
	b.Call(ir.Void, "__print_f64", ld)
	b.Ret(ir.ConstInt(0))
	res := runModule(t, m, Options{})
	if res.Stdout != "3.25" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestGlobalsInitialized(t *testing.T) {
	m := ir.NewModule("t")
	g := m.AddGlobal(&ir.Global{Name: "tab", Size: 24, InitI64: []int64{10, 20, 30}})
	_, b := ir.NewFunc(m, "main", ir.I64)
	p := b.GEP(g, nil, 0, 16, "p")
	ld := b.Load(ir.I64, p, "")
	b.Call(ir.Void, "__print_i64", ld)
	b.Ret(ir.ConstInt(0))
	res := runModule(t, m, Options{})
	if res.Stdout != "30" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestDivByZeroTraps(t *testing.T) {
	m, b := buildMain(t)
	z := b.Bin(ir.OpAdd, ir.ConstInt(0), ir.ConstInt(0), "z")
	b.Bin(ir.OpSDiv, ir.ConstInt(1), z, "bad")
	b.Ret(ir.ConstInt(0))
	_, err := Run(&Program{Host: m}, Options{})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("want division trap, got %v", err)
	}
}

func TestOOBAccessTraps(t *testing.T) {
	m, b := buildMain(t)
	b.Load(ir.I64, ir.ConstInt(0), "") // null-ish address
	b.Ret(ir.ConstInt(0))
	_, err := Run(&Program{Host: m}, Options{})
	if err == nil || !strings.Contains(err.Error(), "out-of-bounds") {
		t.Errorf("want OOB trap, got %v", err)
	}
}

func TestStepLimitCatchesInfiniteLoop(t *testing.T) {
	m := ir.NewModule("t")
	_, b := ir.NewFunc(m, "main", ir.I64)
	loop := b.NewBlock("loop")
	b.Br(loop)
	b.SetBlock(loop)
	b.Br(loop)
	_, err := Run(&Program{Host: m}, Options{StepLimit: 1000})
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("want step-limit trap, got %v", err)
	}
}

func TestPhiLoopSum(t *testing.T) {
	m := ir.NewModule("t")
	_, b := ir.NewFunc(m, "main", ir.I64)
	entry := b.Block()
	header := b.NewBlock("header")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(header)
	b.SetBlock(header)
	i := b.Phi(ir.I64, "i")
	s := b.Phi(ir.I64, "s")
	cmp := b.ICmp(ir.PredLT, i, ir.ConstInt(10), "cmp")
	b.CondBr(cmp, body, exit)
	b.SetBlock(body)
	s2 := b.Bin(ir.OpAdd, s, i, "s2")
	i2 := b.Bin(ir.OpAdd, i, ir.ConstInt(1), "i2")
	b.Br(header)
	b.SetBlock(exit)
	b.Call(ir.Void, "__print_i64", s)
	b.Ret(ir.ConstInt(0))
	ir.AddIncoming(i, ir.ConstInt(0), entry)
	ir.AddIncoming(i, i2, body)
	ir.AddIncoming(s, ir.ConstInt(0), entry)
	ir.AddIncoming(s, s2, body)
	res := runModule(t, m, Options{})
	if res.Stdout != "45" {
		t.Errorf("sum 0..9 = %q", res.Stdout)
	}
}

func TestVectorOps(t *testing.T) {
	m, b := buildMain(t)
	a := b.Alloca(32, "a")
	for i := int64(0); i < 4; i++ {
		g := b.GEP(a, nil, 0, 8*i, "g")
		b.Store(ir.ConstFloat(float64(i+1)), g, "")
	}
	v := b.Load(ir.V4F64, a, "")
	two := b.VSplat(ir.V4F64, ir.ConstFloat(2), "two")
	prod := b.Bin(ir.OpFMul, v, two, "prod")
	sum := b.VReduce(prod, "sum")
	b.Call(ir.Void, "__print_f64", sum) // 2*(1+2+3+4) = 20
	b.Ret(ir.ConstInt(0))
	res := runModule(t, m, Options{})
	if res.Stdout != "20" {
		t.Errorf("vector reduce = %q", res.Stdout)
	}
}

func TestVectorStoreLoadLanes(t *testing.T) {
	m, b := buildMain(t)
	a := b.Alloca(32, "a")
	s := b.VSplat(ir.V4I64, ir.ConstInt(5), "s")
	b.Store(s, a, "")
	g := b.GEP(a, nil, 0, 24, "g")
	ld := b.Load(ir.I64, g, "")
	b.Call(ir.Void, "__print_i64", ld)
	b.Ret(ir.ConstInt(0))
	res := runModule(t, m, Options{})
	if res.Stdout != "5" {
		t.Errorf("lane 3 = %q", res.Stdout)
	}
}

func TestMathIntrinsics(t *testing.T) {
	m, b := buildMain(t)
	r := b.Call(ir.F64, "__sqrt", ir.ConstFloat(9))
	b.Call(ir.Void, "__print_f64", r)
	mx := b.Call(ir.I64, "__max_i64", ir.ConstInt(3), ir.ConstInt(11))
	b.Call(ir.Void, "__print_i64", mx)
	b.Ret(ir.ConstInt(0))
	res := runModule(t, m, Options{})
	if res.Stdout != "311" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestMallocDistinctRegions(t *testing.T) {
	m, b := buildMain(t)
	p1 := b.Call(ir.Ptr, "__malloc", ir.ConstInt(8))
	p2 := b.Call(ir.Ptr, "__malloc", ir.ConstInt(8))
	b.Store(ir.ConstInt(1), p1, "")
	b.Store(ir.ConstInt(2), p2, "")
	l1 := b.Load(ir.I64, p1, "")
	b.Call(ir.Void, "__print_i64", l1)
	b.Ret(ir.ConstInt(0))
	res := runModule(t, m, Options{})
	if res.Stdout != "1" {
		t.Errorf("malloc regions overlap: %q", res.Stdout)
	}
}

func TestOMPForkChunksDeterministic(t *testing.T) {
	// outlined(ctx, lo, hi) prints its chunk bounds.
	m := ir.NewModule("t")
	ctxArg := &ir.Arg{Name: "ctx", Ty: ir.Ptr}
	lo := &ir.Arg{Name: "lo", Ty: ir.I64}
	hi := &ir.Arg{Name: "hi", Ty: ir.I64}
	_, ob := ir.NewFunc(m, "outlined", ir.Void, ctxArg, lo, hi)
	ob.Call(ir.Void, "__print_i64", lo)
	ob.Call(ir.Void, "__print_str", ir.ConstStr(":"))
	ob.Call(ir.Void, "__print_i64", hi)
	ob.Call(ir.Void, "__print_str", ir.ConstStr(" "))
	ob.Ret(nil)
	_, b := ir.NewFunc(m, "main", ir.I64)
	ctx := b.Alloca(8, "ctx")
	b.Call(ir.Void, "__omp_fork", ir.ConstStr("outlined"), ctx, ir.ConstInt(10))
	b.Ret(ir.ConstInt(0))
	res := runModule(t, m, Options{NumThreads: 4})
	if res.Stdout != "0:3 3:6 6:9 9:10 " {
		t.Errorf("chunking = %q", res.Stdout)
	}
}

func TestMPISendrecvRing(t *testing.T) {
	// Each rank sends its rank id to the right, receives from the left,
	// and prints the received value (rank 0 prints only).
	m := ir.NewModule("t")
	_, b := ir.NewFunc(m, "main", ir.I64)
	buf := b.Alloca(8, "send")
	rbuf := b.Alloca(8, "recv")
	rank := b.Call(ir.I64, "__mpi_rank")
	size := b.Call(ir.I64, "__mpi_size")
	b.Store(rank, buf, "")
	right := b.Bin(ir.OpSRem, b.Bin(ir.OpAdd, rank, ir.ConstInt(1), ""), size, "right")
	leftT := b.Bin(ir.OpAdd, rank, size, "")
	left := b.Bin(ir.OpSRem, b.Bin(ir.OpSub, leftT, ir.ConstInt(1), ""), size, "left")
	b.Call(ir.Void, "__mpi_sendrecv", buf, rbuf, ir.ConstInt(8), right, left)
	got := b.Load(ir.I64, rbuf, "")
	isZero := b.ICmp(ir.PredEQ, rank, ir.ConstInt(0), "iszero")
	thenB := b.NewBlock("then")
	exitB := b.NewBlock("exit")
	b.CondBr(isZero, thenB, exitB)
	b.SetBlock(thenB)
	b.Call(ir.Void, "__print_i64", got)
	b.Br(exitB)
	b.SetBlock(exitB)
	b.Ret(ir.ConstInt(0))
	res := runModule(t, m, Options{NumRanks: 3})
	if res.Stdout != "2" { // rank 0 receives from rank 2
		t.Errorf("ring exchange = %q", res.Stdout)
	}
}

func TestGPULaunchAndKernelAccounting(t *testing.T) {
	m := ir.NewModule("t")
	dev := ir.NewModule("t.device")
	dev.Target = "gpu-sim"
	ctxArg := &ir.Arg{Name: "ctx", Ty: ir.Ptr}
	kfn, kb := ir.NewFunc(dev, "kern", ir.Void, ctxArg)
	kfn.Attrs.Kernel = true
	tid := kb.Call(ir.I64, "__gpu_tid")
	base := kb.Load(ir.Ptr, ctxArg, "")
	slot := kb.GEP(base, tid, 8, 0, "slot")
	kb.Store(tid, slot, "")
	kb.Ret(nil)
	_, b := ir.NewFunc(m, "main", ir.I64)
	arr := b.Call(ir.Ptr, "__malloc", ir.ConstInt(64))
	ctx := b.Alloca(8, "ctx")
	b.Store(arr, ctx, "")
	b.Call(ir.Void, "__gpu_launch", ir.ConstStr("kern"), ctx, ir.ConstInt(8))
	g := b.GEP(arr, nil, 0, 56, "g")
	last := b.Load(ir.I64, g, "")
	b.Call(ir.Void, "__print_i64", last)
	b.Ret(ir.ConstInt(0))
	res, err := Run(&Program{Host: m, Device: dev}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stdout != "7" {
		t.Errorf("kernel result = %q", res.Stdout)
	}
	if res.DeviceInstrs == 0 || res.KernelCycles["kern"] == 0 || res.KernelLaunches["kern"] != 1 {
		t.Errorf("kernel accounting: %+v", res)
	}
	if res.Instrs == 0 {
		t.Error("host instructions must be counted")
	}
}

func TestChecksumOrderSensitive(t *testing.T) {
	m, b := buildMain(t)
	a := b.Alloca(16, "a")
	b.Store(ir.ConstFloat(1), a, "")
	g := b.GEP(a, nil, 0, 8, "g")
	b.Store(ir.ConstFloat(2), g, "")
	c1 := b.Call(ir.F64, "__checksum_f64", a, ir.ConstInt(2))
	b.Call(ir.Void, "__print_f64", c1)
	b.Ret(ir.ConstInt(0))
	res1 := runModule(t, m, Options{})

	m2, b2 := buildMain(t)
	a2 := b2.Alloca(16, "a")
	b2.Store(ir.ConstFloat(2), a2, "")
	g2 := b2.GEP(a2, nil, 0, 8, "g")
	b2.Store(ir.ConstFloat(1), g2, "")
	c2 := b2.Call(ir.F64, "__checksum_f64", a2, ir.ConstInt(2))
	b2.Call(ir.Void, "__print_f64", c2)
	b2.Ret(ir.ConstInt(0))
	res2 := runModule(t, m2, Options{})
	if res1.Stdout == res2.Stdout {
		t.Error("checksum must be order-sensitive")
	}
}

func TestDeterminism(t *testing.T) {
	m, b := buildMain(t)
	a := b.Alloca(64, "a")
	b.MemSet(a, ir.ConstInt(7), ir.ConstInt(64))
	c := b.Call(ir.I64, "__checksum_i64", a, ir.ConstInt(8))
	b.Call(ir.Void, "__print_i64", c)
	b.Ret(ir.ConstInt(0))
	r1 := runModule(t, m, Options{})
	r2 := runModule(t, m, Options{})
	if r1.Stdout != r2.Stdout || r1.Instrs != r2.Instrs || r1.Cycles != r2.Cycles {
		t.Error("runs must be bit-deterministic")
	}
}

func TestTaskQueueFIFO(t *testing.T) {
	m := ir.NewModule("t")
	ctxArg := &ir.Arg{Name: "ctx", Ty: ir.Ptr}
	lo := &ir.Arg{Name: "lo", Ty: ir.I64}
	hi := &ir.Arg{Name: "hi", Ty: ir.I64}
	_, tb := ir.NewFunc(m, "task", ir.Void, ctxArg, lo, hi)
	v := tb.Load(ir.I64, ctxArg, "")
	tb.Call(ir.Void, "__print_i64", v)
	tb.Ret(nil)
	_, b := ir.NewFunc(m, "main", ir.I64)
	for i := int64(0); i < 3; i++ {
		c := b.Alloca(8, "c")
		b.Store(ir.ConstInt(i+1), c, "")
		b.Call(ir.Void, "__omp_task", ir.ConstStr("task"), c)
	}
	b.Call(ir.Void, "__omp_taskwait")
	b.Ret(ir.ConstInt(0))
	res := runModule(t, m, Options{})
	if res.Stdout != "123" {
		t.Errorf("tasks must run FIFO at taskwait: %q", res.Stdout)
	}
}

func TestAllreduceAcrossRanks(t *testing.T) {
	m := ir.NewModule("t")
	_, b := ir.NewFunc(m, "main", ir.I64)
	rank := b.Call(ir.I64, "__mpi_rank")
	x := b.SIToFP(rank, "x")
	sum := b.Call(ir.F64, "__mpi_allreduce_f64", x)
	isZero := b.ICmp(ir.PredEQ, rank, ir.ConstInt(0), "z")
	thenB := b.NewBlock("then")
	exitB := b.NewBlock("exit")
	b.CondBr(isZero, thenB, exitB)
	b.SetBlock(thenB)
	b.Call(ir.Void, "__print_f64", sum)
	b.Br(exitB)
	b.SetBlock(exitB)
	b.Ret(ir.ConstInt(0))
	res := runModule(t, m, Options{NumRanks: 4})
	if res.Stdout != "6" { // 0+1+2+3
		t.Errorf("allreduce = %q", res.Stdout)
	}
}

func TestVectorInsertExtract(t *testing.T) {
	m, b := buildMain(t)
	v := b.VSplat(ir.V4F64, ir.ConstFloat(1), "v")
	v2 := &ir.Instr{Op: ir.OpVInsert, Ty: ir.V4F64,
		Operands: []ir.Value{v, ir.ConstFloat(9), ir.ConstInt(2)}, Name: "v2"}
	// Emit through the builder path for IDs.
	b.Bin(ir.OpAdd, ir.ConstInt(0), ir.ConstInt(0), "pad")
	insertRaw(b, v2)
	x := b.VExtract(v2, 2, "x")
	y := b.VExtract(v2, 0, "y")
	b.Call(ir.Void, "__print_f64", x)
	b.Call(ir.Void, "__print_str", ir.ConstStr(" "))
	b.Call(ir.Void, "__print_f64", y)
	b.Ret(ir.ConstInt(0))
	res := runModule(t, m, Options{})
	if res.Stdout != "9 1" {
		t.Errorf("insert/extract = %q", res.Stdout)
	}
}

// insertRaw appends an instruction via the public builder surface.
func insertRaw(b *ir.Builder, in *ir.Instr) {
	blk := b.Block()
	in.ID = b.Func().AllocID()
	in.Parent = blk
	blk.Instrs = append(blk.Instrs, in)
}

func TestMemCpyOverlappingRegionsIndependent(t *testing.T) {
	m, b := buildMain(t)
	a := b.Alloca(32, "a")
	bb := b.Alloca(32, "b")
	for i := int64(0); i < 4; i++ {
		g := b.GEP(a, nil, 0, 8*i, "g")
		b.Store(ir.ConstInt(i+1), g, "")
	}
	b.MemCpy(bb, a, ir.ConstInt(32))
	g3 := b.GEP(bb, nil, 0, 24, "g3")
	ld := b.Load(ir.I64, g3, "")
	b.Call(ir.Void, "__print_i64", ld)
	b.Ret(ir.ConstInt(0))
	res := runModule(t, m, Options{})
	if res.Stdout != "4" {
		t.Errorf("memcpy = %q", res.Stdout)
	}
}

func TestSelectAndCompare(t *testing.T) {
	m, b := buildMain(t)
	c := b.FCmp(ir.PredGT, ir.ConstFloat(2.5), ir.ConstFloat(1.5), "c")
	v := b.Select(c, ir.ConstInt(10), ir.ConstInt(20), "v")
	b.Call(ir.Void, "__print_i64", v)
	b.Ret(ir.ConstInt(0))
	res := runModule(t, m, Options{})
	if res.Stdout != "10" {
		t.Errorf("select = %q", res.Stdout)
	}
}

func TestCyclesExceedInstrs(t *testing.T) {
	m, b := buildMain(t)
	a := b.Alloca(8, "a")
	b.Store(ir.ConstFloat(4), a, "")
	x := b.Load(ir.F64, a, "")
	r := b.Call(ir.F64, "__sqrt", x)
	b.Call(ir.Void, "__print_f64", r)
	b.Ret(ir.ConstInt(0))
	res := runModule(t, m, Options{})
	if res.Cycles <= res.Instrs {
		t.Errorf("cost model must weight memory/math ops: instrs=%d cycles=%d", res.Instrs, res.Cycles)
	}
}

// TestIntArithmeticGroundTruthProperty checks the interpreter's i64
// semantics against Go's for random operands across every opcode.
func TestIntArithmeticGroundTruthProperty(t *testing.T) {
	ops := []ir.Opcode{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpSDiv, ir.OpSRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpAShr}
	eval := func(op ir.Opcode, x, y int64) (int64, bool) {
		m := ir.NewModule("t")
		_, b := ir.NewFunc(m, "main", ir.I64)
		r := b.Bin(op, ir.ConstInt(x), ir.ConstInt(y), "r")
		b.Call(ir.Void, "__print_i64", r)
		b.Ret(ir.ConstInt(0))
		res, err := Run(&Program{Host: m}, Options{})
		if err != nil {
			return 0, false
		}
		var v int64
		if _, err := fmt.Sscanf(res.Stdout, "%d", &v); err != nil {
			return 0, false
		}
		return v, true
	}
	golden := func(op ir.Opcode, x, y int64) (int64, bool) {
		switch op {
		case ir.OpAdd:
			return x + y, true
		case ir.OpSub:
			return x - y, true
		case ir.OpMul:
			return x * y, true
		case ir.OpSDiv:
			if y == 0 {
				return 0, false
			}
			return x / y, true
		case ir.OpSRem:
			if y == 0 {
				return 0, false
			}
			return x % y, true
		case ir.OpAnd:
			return x & y, true
		case ir.OpOr:
			return x | y, true
		case ir.OpXor:
			return x ^ y, true
		case ir.OpShl:
			return x << uint(y&63), true
		case ir.OpAShr:
			return x >> uint(y&63), true
		}
		return 0, false
	}
	prop := func(opIdx uint8, x, y int64) bool {
		op := ops[int(opIdx)%len(ops)]
		want, wok := golden(op, x, y)
		got, gok := eval(op, x, y)
		if wok != gok {
			return false
		}
		return !wok || got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// runErr runs m on one rank and returns the trap, failing the test if
// the run succeeds.
func runErr(t *testing.T, m *ir.Module, opts Options) string {
	t.Helper()
	_, err := Run(&Program{Host: m}, opts)
	if err == nil {
		t.Fatal("run succeeded, want a trap")
	}
	return err.Error()
}

func TestLoadStoreStraddlingBoundaries(t *testing.T) {
	for _, base := range []int64{3 * pageSize, heapBase, stackBase} {
		m, b := buildMain(t)
		at := ir.ConstInt(base - 4)
		b.Store(ir.ConstInt(0x0102030405060708), at, "")
		b.Call(ir.Void, "__print_i64", b.Load(ir.I64, at, ""))
		b.Call(ir.Void, "__print_str", ir.ConstStr(" "))
		b.Call(ir.Void, "__print_i64", b.Load(ir.I64, ir.ConstInt(base), ""))
		b.Call(ir.Void, "__print_str", ir.ConstStr(" "))
		b.Call(ir.Void, "__print_i64", b.Load(ir.I64, ir.ConstInt(base-8), ""))
		b.Ret(ir.ConstInt(0))
		res := runModule(t, m, Options{})
		want := fmt.Sprintf("%d %d %d", 0x0102030405060708, 0x01020304, 0x0506070800000000)
		if res.Stdout != want {
			t.Errorf("base %#x: stdout = %q, want %q", base, res.Stdout, want)
		}
	}
}

func TestMemCpyMemSetAcrossPage(t *testing.T) {
	m, b := buildMain(t)
	p := int64(5 * pageSize)
	for i := int64(0); i < 4; i++ {
		b.Store(ir.ConstInt(i+1), ir.ConstInt(p-16+8*i), "")
	}
	// Overlapping copies in both directions across the boundary.
	b.MemCpy(ir.ConstInt(p-12), ir.ConstInt(p-16), ir.ConstInt(32))
	b.MemCpy(ir.ConstInt(p-16), ir.ConstInt(p-12), ir.ConstInt(32))
	b.MemSet(ir.ConstInt(p+12), ir.ConstInt(0xff), ir.ConstInt(8))
	for i := int64(0); i < 5; i++ {
		b.Call(ir.Void, "__print_i64", b.Load(ir.I64, ir.ConstInt(p-16+8*i), ""))
		b.Call(ir.Void, "__print_str", ir.ConstStr(" "))
	}
	b.Ret(ir.ConstInt(0))
	res := runModule(t, m, Options{})
	// Two opposite 4-byte shifts restore the four words; the memset
	// then writes the upper half of word 3 and the lower half of word 4.
	want := fmt.Sprintf("1 2 3 %d %d ", int64(-1)<<32|4, 0xffffffff)
	if res.Stdout != want {
		t.Errorf("stdout = %q, want %q", res.Stdout, want)
	}
}

// TestMemoryMatchesFlatModel drives the page table with random
// fills, moves and 8-byte accesses around page boundaries and checks
// every byte against a flat slice.
func TestMemoryMatchesFlatModel(t *testing.T) {
	const window = 4 * pageSize
	base := int64(6 * pageSize)
	var mem memory
	flat := make([]byte, window)
	r := rand.New(rand.NewSource(1))
	pick := func() int64 {
		// Mostly near a page boundary, sometimes anywhere.
		if r.Intn(4) == 0 {
			return int64(r.Intn(window - 64))
		}
		return int64(1+r.Intn(3))*pageSize - 32 + int64(r.Intn(32))
	}
	for step := 0; step < 2000; step++ {
		a, c := pick(), pick()
		n := int64(r.Intn(64))
		switch r.Intn(4) {
		case 0:
			v := byte(r.Intn(3)) // zero fills take the skip path
			mem.fill(base+a, n, v)
			for i := int64(0); i < n; i++ {
				flat[a+i] = v
			}
		case 1:
			if r.Intn(8) == 0 {
				n = int64(r.Intn(3 * pageSize / 2)) // larger than a page
				if a+n > window {
					n = window - a
				}
				if c+n > window {
					n = window - c
				}
			}
			mem.move(base+a, base+c, n)
			copy(flat[a:a+n], flat[c:c+n])
		case 2:
			buf := make([]byte, n)
			r.Read(buf)
			mem.write(base+a, buf)
			copy(flat[a:], buf)
		case 3:
			buf := make([]byte, n)
			mem.read(base+a, buf)
			if !bytes.Equal(buf, flat[a:a+n]) {
				t.Fatalf("step %d: read at %#x differs", step, a)
			}
		}
	}
	got := make([]byte, window)
	mem.read(base, got)
	if !bytes.Equal(got, flat) {
		t.Fatal("final memory differs from the flat model")
	}
}

func TestUntouchedMemoryReadsZero(t *testing.T) {
	m, b := buildMain(t)
	for _, a := range []int64{globalBase, heapBase + 12345*8, stackBase + 1<<20, 64<<20 - 8} {
		b.Call(ir.Void, "__print_i64", b.Load(ir.I64, ir.ConstInt(a), ""))
	}
	s := b.Call(ir.I64, "__checksum_i64", ir.ConstInt(heapBase), ir.ConstInt(1<<14))
	b.Call(ir.Void, "__print_i64", b.Bin(ir.OpXor, s, ir.ConstInt(emptyChecksum(1<<14)), ""))
	b.Ret(ir.ConstInt(0))
	res := runModule(t, m, Options{})
	if res.Stdout != "00000" {
		t.Errorf("stdout = %q, want all zero", res.Stdout)
	}
}

// emptyChecksum is __checksum_i64 over n zero words.
func emptyChecksum(n int) int64 {
	var acc int64 = 1469598103934665603
	for i := 0; i < n; i++ {
		acc *= 1099511628211
	}
	return acc
}

func TestAllocaRezeroedAfterCalleeReturns(t *testing.T) {
	m := ir.NewModule("t")
	_, wb := ir.NewFunc(m, "dirty", ir.Void)
	a := wb.Alloca(32, "a")
	wb.MemSet(a, ir.ConstInt(0x5a), ir.ConstInt(32))
	wb.Ret(nil)
	_, rb := ir.NewFunc(m, "fresh", ir.I64)
	c := rb.Alloca(32, "c")
	g := rb.GEP(c, nil, 0, 24, "g")
	rb.Ret(rb.Bin(ir.OpAdd, rb.Load(ir.I64, c, ""), rb.Load(ir.I64, g, ""), ""))
	_, b := ir.NewFunc(m, "main", ir.I64)
	b.Call(ir.Void, "dirty")
	b.Call(ir.Void, "__print_i64", b.Call(ir.I64, "fresh"))
	b.Ret(ir.ConstInt(0))
	if res := runModule(t, m, Options{}); res.Stdout != "0" {
		t.Errorf("reused stack slot reads %q, want 0", res.Stdout)
	}
}

func TestMemLimitBelowStackTraps(t *testing.T) {
	m, b := buildMain(t)
	b.Alloca(16, "a")
	b.Ret(ir.ConstInt(0))
	got := runErr(t, m, Options{MemLimit: 32 << 20})
	if want := "simulated trap: out-of-bounds access at 0x3000000 (size 16)"; got != want {
		t.Errorf("trap = %q, want %q", got, want)
	}
}

func TestGlobalLayoutMemoryLimitTraps(t *testing.T) {
	m := ir.NewModule("t")
	m.AddGlobal(&ir.Global{Name: "small", Size: 8})
	m.AddGlobal(&ir.Global{Name: "huge", Size: 2 << 20})
	_, b := ir.NewFunc(m, "main", ir.I64)
	b.Ret(ir.ConstInt(0))
	got := runErr(t, m, Options{MemLimit: 1 << 20})
	if want := "simulated trap: memory limit exceeded at address 0x201010"; got != want {
		t.Errorf("trap = %q, want %q", got, want)
	}
}

// TestRankTrapAbortsPeers checks that a rank trapping before an MPI
// exchange aborts the peer blocked on it, and that Run reports the
// originating trap rather than the peer's abort.
func TestRankTrapAbortsPeers(t *testing.T) {
	for _, tc := range []struct {
		name    string
		bad     int64 // the rank that divides by zero
		collect string
	}{
		{"sendrecv", 1, "__mpi_sendrecv"},
		{"allreduce-leaf", 1, "__mpi_allreduce_f64"},
		{"allreduce-root", 0, "__mpi_allreduce_f64"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := ir.NewModule("t")
			_, b := ir.NewFunc(m, "main", ir.I64)
			buf := b.Alloca(8, "buf")
			rbuf := b.Alloca(8, "rbuf")
			rank := b.Call(ir.I64, "__mpi_rank")
			peer := b.Bin(ir.OpSub, ir.ConstInt(1), rank, "peer")
			bad := b.NewBlock("bad")
			exchange := b.NewBlock("exchange")
			b.CondBr(b.ICmp(ir.PredEQ, rank, ir.ConstInt(tc.bad), "isbad"), bad, exchange)
			b.SetBlock(bad)
			b.Bin(ir.OpSDiv, ir.ConstInt(1), b.Bin(ir.OpSub, rank, rank, "z"), "boom")
			b.Br(exchange)
			b.SetBlock(exchange)
			if tc.collect == "__mpi_sendrecv" {
				b.Call(ir.Void, tc.collect, buf, rbuf, ir.ConstInt(8), peer, peer)
			} else {
				b.Call(ir.F64, tc.collect, ir.ConstFloat(1))
			}
			b.Ret(ir.ConstInt(0))

			done := make(chan error, 1)
			go func() {
				_, err := Run(&Program{Host: m}, Options{NumRanks: 2})
				done <- err
			}()
			select {
			case err := <-done:
				want := fmt.Sprintf("rank %d: simulated trap: integer division by zero", tc.bad)
				if err == nil || err.Error() != want {
					t.Errorf("err = %v, want %q", err, want)
				}
			case <-time.After(time.Second):
				t.Fatal("Run still blocked 1s after a rank trapped")
			}
		})
	}
}

// TestPhiSwapReadsInParallel swaps a scalar pair and a vector pair
// through phis each iteration: every phi of an edge must read its
// operand before any phi of the edge is written, lanes included.
func TestPhiSwapReadsInParallel(t *testing.T) {
	m := ir.NewModule("t")
	_, b := ir.NewFunc(m, "main", ir.I64)
	entry := b.Block()
	header := b.NewBlock("header")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	va := b.VSplat(ir.V4F64, ir.ConstFloat(1), "va")
	vb := b.VSplat(ir.V4F64, ir.ConstFloat(10), "vb")
	b.Br(header)
	b.SetBlock(header)
	i := b.Phi(ir.I64, "i")
	s := b.Phi(ir.I64, "s")
	u := b.Phi(ir.I64, "u")
	x := b.Phi(ir.V4F64, "x")
	y := b.Phi(ir.V4F64, "y")
	b.CondBr(b.ICmp(ir.PredLT, i, ir.ConstInt(3), "cmp"), body, exit)
	b.SetBlock(body)
	i2 := b.Bin(ir.OpAdd, i, ir.ConstInt(1), "i2")
	b.Br(header)
	b.SetBlock(exit)
	b.Call(ir.Void, "__print_i64", s)
	b.Call(ir.Void, "__print_str", ir.ConstStr(" "))
	b.Call(ir.Void, "__print_i64", u)
	b.Call(ir.Void, "__print_str", ir.ConstStr(" "))
	b.Call(ir.Void, "__print_f64", b.VReduce(x, "rx"))
	b.Call(ir.Void, "__print_str", ir.ConstStr(" "))
	b.Call(ir.Void, "__print_f64", b.VReduce(y, "ry"))
	b.Ret(ir.ConstInt(0))
	for _, in := range []struct {
		phi        *ir.Instr
		init, back ir.Value
	}{{i, ir.ConstInt(0), i2}, {s, ir.ConstInt(1), u}, {u, ir.ConstInt(2), s}, {x, va, y}, {y, vb, x}} {
		ir.AddIncoming(in.phi, in.init, entry)
		ir.AddIncoming(in.phi, in.back, body)
	}
	// Three swaps leave each pair swapped.
	if res := runModule(t, m, Options{}); res.Stdout != "2 1 40 4" {
		t.Errorf("stdout = %q, want %q", res.Stdout, "2 1 40 4")
	}
}

// vectorLoop builds a loop of trips iterations whose body runs every
// vector-producing op the interpreter has (load, integer and float
// arithmetic, both conversions, splat and insert), reducing into a
// printed checksum.
func vectorLoop(trips int64) *ir.Module {
	m := ir.NewModule("vloop")
	_, b := ir.NewFunc(m, "main", ir.I64)
	buf := b.Alloca(32, "buf")
	entry := b.Block()
	header := b.NewBlock("header")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	one := b.VSplat(ir.V4F64, ir.ConstFloat(1), "one")
	b.Br(header)
	b.SetBlock(header)
	i := b.Phi(ir.I64, "i")
	acc := b.Phi(ir.V4F64, "acc")
	b.CondBr(b.ICmp(ir.PredLT, i, ir.ConstInt(trips), "cmp"), body, exit)
	b.SetBlock(body)
	b.Store(acc, buf, "")
	v := b.Load(ir.V4F64, buf, "")
	w := b.Bin(ir.OpFAdd, v, one, "w")
	wi := b.FPToSI(w, "wi")
	wi.Ty = ir.V4I64
	si := b.Bin(ir.OpAdd, wi, b.VSplat(ir.V4I64, i, "iv"), "si")
	back := b.SIToFP(si, "back")
	back.Ty = ir.V4F64
	ins := &ir.Instr{Op: ir.OpVInsert, Ty: ir.V4F64, Operands: []ir.Value{back, ir.ConstFloat(0.5), ir.ConstInt(1)}}
	insertRaw(b, ins)
	next := b.Bin(ir.OpFSub, ins, back, "next")
	acc2 := b.Bin(ir.OpFAdd, acc, next, "acc2")
	i2 := b.Bin(ir.OpAdd, i, ir.ConstInt(1), "i2")
	b.Br(header)
	b.SetBlock(exit)
	b.Call(ir.Void, "__print_f64", b.VReduce(acc, "r"))
	b.Ret(ir.ConstInt(0))
	ir.AddIncoming(i, ir.ConstInt(0), entry)
	ir.AddIncoming(i, i2, body)
	ir.AddIncoming(acc, one, entry)
	ir.AddIncoming(acc, acc2, body)
	return m
}

// TestVectorLoopAllocsFlat pins that vector ops allocate nothing per
// executed instruction: a vector loop's heap allocations do not grow
// with its trip count.
func TestVectorLoopAllocsFlat(t *testing.T) {
	allocs := func(trips int64) float64 {
		p := &Program{Host: vectorLoop(trips)}
		if err := ir.Verify(p.Host); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(p, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(10), allocs(2000)
	if long > short+2 {
		t.Errorf("allocations grow with the trip count: %v at 10 trips, %v at 2000", short, long)
	}
}
