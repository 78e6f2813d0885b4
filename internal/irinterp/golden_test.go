package irinterp_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/progen"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current interpreter")

const goldenPath = "testdata/golden.txt"

// goldenSeeds is the fixed progen corpus of the golden file.
const goldenSeeds = 64

// goldenLevels are the pipeline levels every configuration and seed
// is compiled at: the unoptimised build and the full -O3 pipeline.
var goldenLevels = []int{-1, 3}

// goldenModels rotates the progen corpus through the sequential,
// OpenMP and offload lowerings, so fork/join and kernel launches are
// covered too.
var goldenModels = []minic.Model{minic.ModelSeq, minic.ModelOpenMP, minic.ModelOffload}

// digestLine renders one run as a golden line: the case name, the
// level, the host counters in clear, and a digest over the stdout,
// every counter, both kernel maps and the trap text.
func digestLine(name, level string, res *irinterp.Result, err error) string {
	if res == nil {
		res = &irinterp.Result{}
	}
	h := sha256.New()
	fmt.Fprintf(h, "stdout %q\n", res.Stdout)
	fmt.Fprintf(h, "instrs %d cycles %d\n", res.Instrs, res.Cycles)
	fmt.Fprintf(h, "device %d %d\n", res.DeviceInstrs, res.DeviceCycles)
	for _, kv := range []struct {
		tag string
		m   map[string]int64
	}{{"kcycles", res.KernelCycles}, {"klaunches", res.KernelLaunches}} {
		keys := make([]string, 0, len(kv.m))
		for k := range kv.m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s %s %d\n", kv.tag, k, kv.m[k])
		}
	}
	trap := ""
	if err != nil {
		trap = err.Error()
	}
	fmt.Fprintf(h, "trap %q\n", trap)
	line := fmt.Sprintf("%s %s instrs=%d cycles=%d digest=%x", name, level, res.Instrs, res.Cycles, h.Sum(nil)[:12])
	if err != nil {
		line += fmt.Sprintf(" trap=%q", trap)
	}
	return line
}

func goldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	run := func(name, level string, p *irinterp.Program, opts irinterp.Options) {
		res, err := irinterp.Run(p, opts)
		lines = append(lines, digestLine(name, level, res, err))
	}
	for _, c := range apps.All() {
		for _, lvl := range goldenLevels {
			pc := c.Spec().Compile
			pc.Name = c.ID
			pc.OptLevel = lvl
			cr, err := pipeline.Compile(pc)
			if err != nil {
				t.Fatalf("%s O%d: compile: %v", c.ID, lvl, err)
			}
			run(c.ID, fmt.Sprintf("O%d", lvl), cr.Program, c.Run)
		}
	}
	for seed := int64(1); seed <= goldenSeeds; seed++ {
		p := progen.Generate(seed, progen.Options{})
		model := goldenModels[int(seed)%len(goldenModels)]
		for _, lvl := range goldenLevels {
			cr, err := pipeline.Compile(pipeline.Config{
				Name: fmt.Sprintf("seed%d", seed), Source: p.Source, SourceFile: p.FileName,
				Frontend: minic.Options{Model: model}, OptLevel: lvl,
			})
			if err != nil {
				t.Fatalf("seed %d O%d: compile: %v", seed, lvl, err)
			}
			run(fmt.Sprintf("progen/%d/m%d", seed, model), fmt.Sprintf("O%d", lvl), cr.Program, irinterp.Options{})
		}
	}
	for _, ec := range edgeCases() {
		run("edge/"+ec.name, "-", ec.prog, ec.opts)
	}
	// The fully optimistic builds come last, so the lines above keep
	// their positions.
	for _, c := range apps.All() {
		cr, err := optimisticBuild(c)
		if err != nil {
			t.Fatalf("%s optimistic: compile: %v", c.ID, err)
		}
		run(c.ID, "optimistic", cr.Program, c.Run)
	}
	return lines
}

// TestGoldenInterpreter pins every observable of the interpreter —
// stdout, instruction and cycle counters, per-kernel maps and trap
// texts — over all Fig. 4 configurations (unoptimised, -O3 and fully
// optimistic), a progen corpus and a set of hand-built edge cases.
// Regenerate with -update only when a change to
// the simulated machine's semantics is intended.
func TestGoldenInterpreter(t *testing.T) {
	got := strings.Join(goldenLines(t), "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("golden line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}

// TestZeroThreadLaunchCountsLaunchOnly pins that a launch over zero
// threads is counted as a launch but creates no per-kernel cycle entry.
func TestZeroThreadLaunchCountsLaunchOnly(t *testing.T) {
	p := zeroThreadLaunch()
	res, err := irinterp.Run(p, irinterp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.KernelLaunches["kern"] != 1 {
		t.Errorf("KernelLaunches = %v, want kern:1", res.KernelLaunches)
	}
	if _, ok := res.KernelCycles["kern"]; ok {
		t.Errorf("KernelCycles = %v, want no kern entry", res.KernelCycles)
	}
	if res.DeviceInstrs != 0 {
		t.Errorf("DeviceInstrs = %d, want 0", res.DeviceInstrs)
	}
}

// TestSplatKeepsOtherLanesZero pins that a float splat leaves the
// integer lanes at 0 (and an integer splat the float lanes): integer
// and float lanes are separate registers, not two views of one bit
// pattern.
func TestSplatKeepsOtherLanesZero(t *testing.T) {
	res, err := irinterp.Run(splatLanes(), irinterp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stdout != "0 0" {
		t.Errorf("stdout = %q, want %q", res.Stdout, "0 0")
	}
}

type edgeCase struct {
	name string
	prog *irinterp.Program
	opts irinterp.Options
}

func newMain() (*ir.Module, *ir.Builder) {
	m := ir.NewModule("edge")
	_, b := ir.NewFunc(m, "main", ir.I64)
	return m, b
}

func host(m *ir.Module) *irinterp.Program { return &irinterp.Program{Host: m} }

func zeroThreadLaunch() *irinterp.Program {
	m, b := newMain()
	dev := ir.NewModule("edge.device")
	dev.Target = "gpu-sim"
	ctx := &ir.Arg{Name: "ctx", Ty: ir.Ptr}
	kfn, kb := ir.NewFunc(dev, "kern", ir.Void, ctx)
	kfn.Attrs.Kernel = true
	kb.Ret(nil)
	a := b.Alloca(8, "ctx")
	b.Call(ir.Void, "__gpu_launch", ir.ConstStr("kern"), a, ir.ConstInt(0))
	b.Ret(ir.ConstInt(0))
	return &irinterp.Program{Host: m, Device: dev}
}

func splatLanes() *irinterp.Program {
	m, b := newMain()
	fs := b.VSplat(ir.V4F64, ir.ConstFloat(2.5), "fs")
	conv := b.SIToFP(fs, "conv")
	conv.Ty = ir.V4F64 // lane-wise: reads the integer lanes
	b.Call(ir.Void, "__print_f64", b.VReduce(conv, "r"))
	b.Call(ir.Void, "__print_str", ir.ConstStr(" "))
	is := b.VSplat(ir.V4I64, ir.ConstInt(3), "is")
	back := b.FPToSI(is, "back")
	back.Ty = ir.V4I64 // lane-wise: reads the float lanes
	b.Call(ir.Void, "__print_i64", b.VReduce(back, "s"))
	b.Ret(ir.ConstInt(0))
	return host(m)
}

func edgeCases() []edgeCase {
	var cs []edgeCase
	add := func(name string, p *irinterp.Program, opts irinterp.Options) {
		cs = append(cs, edgeCase{name, p, opts})
	}
	add("zero-thread-launch", zeroThreadLaunch(), irinterp.Options{})
	add("splat-lanes", splatLanes(), irinterp.Options{})

	{ // out-of-bounds load below the globals
		m, b := newMain()
		b.Load(ir.I64, ir.ConstInt(8), "")
		b.Ret(ir.ConstInt(0))
		add("trap-oob-low", host(m), irinterp.Options{})
	}
	{ // out-of-bounds store past the memory limit
		m, b := newMain()
		b.Store(ir.ConstInt(1), ir.ConstInt(64<<20-4), "")
		b.Ret(ir.ConstInt(0))
		add("trap-oob-high", host(m), irinterp.Options{})
	}
	{ // the first alloca traps when the limit is below the stack base
		m, b := newMain()
		b.Alloca(16, "a")
		b.Ret(ir.ConstInt(0))
		add("trap-memlimit-below-stack", host(m), irinterp.Options{MemLimit: 32 << 20})
	}
	{
		m, b := newMain()
		z := b.Bin(ir.OpSub, ir.ConstInt(3), ir.ConstInt(3), "z")
		b.Bin(ir.OpSRem, ir.ConstInt(1), z, "r")
		b.Ret(ir.ConstInt(0))
		add("trap-rem-zero", host(m), irinterp.Options{})
	}
	{
		m, b := newMain()
		loop := b.NewBlock("loop")
		b.Br(loop)
		b.SetBlock(loop)
		b.Bin(ir.OpAdd, ir.ConstInt(1), ir.ConstInt(2), "x")
		b.Br(loop)
		add("trap-step-limit", host(m), irinterp.Options{StepLimit: 5000})
	}
	{ // a value defined in a block that has not run yet
		m, b := newMain()
		later := b.NewBlock("later")
		entry := b.Block()
		b.SetBlock(later)
		x := b.Bin(ir.OpAdd, ir.ConstInt(1), ir.ConstInt(2), "x")
		b.Ret(x)
		b.SetBlock(entry)
		b.Call(ir.Void, "__print_i64", x)
		b.Br(later)
		add("trap-undefined", host(m), irinterp.Options{})
	}
	{
		m, b := newMain()
		next := b.NewBlock("next")
		b.Br(next)
		b.SetBlock(next)
		p := b.Phi(ir.I64, "p")
		ir.AddIncoming(p, ir.ConstInt(1), next)
		b.Ret(p)
		add("trap-phi-no-incoming", host(m), irinterp.Options{})
	}
	{
		m, b := newMain()
		b.Call(ir.Void, "__print_i64", ir.ConstInt(5))
		add("trap-fell-through", host(m), irinterp.Options{})
	}
	{
		m, b := newMain()
		b.Call(ir.Void, "no_such_function")
		b.Ret(ir.ConstInt(0))
		add("trap-unknown-function", host(m), irinterp.Options{})
	}
	{ // 8-byte accesses straddling a 64 KiB page inside the heap, plus
		// memcpy and memset across the same boundary
		m, b := newMain()
		p := b.Call(ir.Ptr, "__malloc", ir.ConstInt(3<<16))
		s := b.GEP(p, nil, 0, 1<<16-3, "s")
		b.Store(ir.ConstInt(0x0102030405060708), s, "")
		b.Call(ir.Void, "__print_i64", b.Load(ir.I64, s, ""))
		b.Call(ir.Void, "__print_str", ir.ConstStr(" "))
		d := b.GEP(p, nil, 0, 2<<16-5, "d")
		b.MemCpy(d, s, ir.ConstInt(8))
		b.Call(ir.Void, "__print_i64", b.Load(ir.I64, d, ""))
		b.Call(ir.Void, "__print_str", ir.ConstStr(" "))
		b.MemSet(s, ir.ConstInt(0x11), ir.ConstInt(20))
		b.Call(ir.Void, "__print_i64", b.Load(ir.I64, s, ""))
		b.Call(ir.Void, "__print_str", ir.ConstStr(" "))
		far := b.GEP(p, nil, 0, 3<<16-8, "far")
		b.Call(ir.Void, "__print_i64", b.Load(ir.I64, far, ""))
		b.Ret(ir.ConstInt(0))
		add("page-straddle", host(m), irinterp.Options{})
	}
	add("vector-phi-swap", vectorPhiSwap(), irinterp.Options{})
	add("recursion", recursion(), irinterp.Options{})
	add("mpi-ring", mpiRing(), irinterp.Options{NumRanks: 3})
	return cs
}

// vectorPhiSwap swaps two vectors through a pair of phis every loop
// iteration: phis read their operands in parallel, so the swap must
// not see a half-updated pair.
func vectorPhiSwap() *irinterp.Program {
	m, b := newMain()
	entry := b.Block()
	header := b.NewBlock("header")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	va := b.VSplat(ir.V4F64, ir.ConstFloat(1), "va")
	vb := b.VSplat(ir.V4F64, ir.ConstFloat(10), "vb")
	b.Br(header)
	b.SetBlock(header)
	i := b.Phi(ir.I64, "i")
	x := b.Phi(ir.V4F64, "x")
	y := b.Phi(ir.V4F64, "y")
	cmp := b.ICmp(ir.PredLT, i, ir.ConstInt(5), "cmp")
	b.CondBr(cmp, body, exit)
	b.SetBlock(body)
	x2 := b.Bin(ir.OpFAdd, x, x, "x2")
	i2 := b.Bin(ir.OpAdd, i, ir.ConstInt(1), "i2")
	b.Br(header)
	b.SetBlock(exit)
	b.Call(ir.Void, "__print_f64", b.VReduce(x, "rx"))
	b.Call(ir.Void, "__print_str", ir.ConstStr(" "))
	b.Call(ir.Void, "__print_f64", b.VReduce(y, "ry"))
	b.Ret(ir.ConstInt(0))
	ir.AddIncoming(i, ir.ConstInt(0), entry)
	ir.AddIncoming(i, i2, body)
	ir.AddIncoming(x, va, entry)
	ir.AddIncoming(x, y, body)
	ir.AddIncoming(y, vb, entry)
	ir.AddIncoming(y, x2, body)
	return host(m)
}

// recursion computes fib(15) recursively, with an alloca per frame
// that each activation writes and reads back.
func recursion() *irinterp.Program {
	m := ir.NewModule("edge")
	n := &ir.Arg{Name: "n", Ty: ir.I64}
	_, fb := ir.NewFunc(m, "fib", ir.I64, n)
	slot := fb.Alloca(8, "slot")
	fb.Store(n, slot, "")
	small := fb.ICmp(ir.PredLT, n, ir.ConstInt(2), "small")
	base := fb.NewBlock("base")
	rec := fb.NewBlock("rec")
	fb.CondBr(small, base, rec)
	fb.SetBlock(base)
	fb.Ret(n)
	fb.SetBlock(rec)
	a := fb.Call(ir.I64, "fib", fb.Bin(ir.OpSub, n, ir.ConstInt(1), ""))
	c := fb.Call(ir.I64, "fib", fb.Bin(ir.OpSub, n, ir.ConstInt(2), ""))
	back := fb.Load(ir.I64, slot, "")
	sum := fb.Bin(ir.OpAdd, a, c, "sum")
	fb.Ret(fb.Bin(ir.OpAdd, sum, fb.Bin(ir.OpSub, back, n, ""), ""))
	_, b := ir.NewFunc(m, "main", ir.I64)
	b.Call(ir.Void, "__print_i64", b.Call(ir.I64, "fib", ir.ConstInt(15)))
	b.Ret(ir.ConstInt(0))
	return host(m)
}

// mpiRing passes each rank's id to its right neighbour; every rank
// prints what it received.
func mpiRing() *irinterp.Program {
	m, b := newMain()
	buf := b.Alloca(8, "send")
	rbuf := b.Alloca(8, "recv")
	rank := b.Call(ir.I64, "__mpi_rank")
	size := b.Call(ir.I64, "__mpi_size")
	b.Store(rank, buf, "")
	right := b.Bin(ir.OpSRem, b.Bin(ir.OpAdd, rank, ir.ConstInt(1), ""), size, "right")
	left := b.Bin(ir.OpSRem, b.Bin(ir.OpSub, b.Bin(ir.OpAdd, rank, size, ""), ir.ConstInt(1), ""), size, "left")
	b.Call(ir.Void, "__mpi_sendrecv", buf, rbuf, ir.ConstInt(8), right, left)
	b.Call(ir.Void, "__print_i64", b.Load(ir.I64, rbuf, ""))
	x := b.SIToFP(rank, "x")
	b.Call(ir.Void, "__print_f64", b.Call(ir.F64, "__mpi_allreduce_f64", x))
	b.Call(ir.Void, "__print_str", ir.ConstStr(";"))
	b.Ret(ir.ConstInt(0))
	return host(m)
}
