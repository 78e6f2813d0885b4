// Package irinterp executes IR modules on a simulated machine. It is
// the "hardware" of the reproduction: the ORAQL verification script
// compares the stdout of interpreter runs, and the dynamic instruction
// and cycle counters stand in for perf's executed-instruction counts
// and wall-clock measurements. Deterministic simulated runtimes provide
// OpenMP (fork/join and tasks), MPI (rank goroutines with synchronous
// exchanges), and GPU kernel launches for offload modules.
package irinterp

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"github.com/oraql/go-oraql/internal/ir"
)

// Options configures a run.
type Options struct {
	// NumThreads is the simulated OpenMP thread count (default 4).
	NumThreads int
	// NumRanks is the simulated MPI rank count (default 1).
	NumRanks int
	// StepLimit aborts runs exceeding this many executed instructions,
	// catching non-termination introduced by bad optimizations
	// (default 200M).
	StepLimit int64
	// MemLimit caps simulated memory per rank in bytes (default 64MB).
	MemLimit int64
}

func (o Options) withDefaults() Options {
	if o.NumThreads <= 0 {
		o.NumThreads = 4
	}
	if o.NumRanks <= 0 {
		o.NumRanks = 1
	}
	if o.StepLimit <= 0 {
		o.StepLimit = 200_000_000
	}
	if o.MemLimit <= 0 {
		o.MemLimit = 64 << 20
	}
	return o
}

// Program bundles the host module with an optional device module
// (offload configurations compile kernels separately).
type Program struct {
	Host   *ir.Module
	Device *ir.Module
}

// Result reports a completed run.
type Result struct {
	Stdout string
	// Instrs / Cycles count host-side dynamic instructions and
	// cost-model cycles (summed over ranks).
	Instrs int64
	Cycles int64
	// DeviceInstrs / DeviceCycles count work inside GPU kernels.
	DeviceInstrs int64
	DeviceCycles int64
	// KernelCycles breaks device time down per kernel function.
	KernelCycles map[string]int64
	// KernelLaunches counts launches per kernel.
	KernelLaunches map[string]int64
}

// KernelNames returns the launched kernels sorted by name.
func (r *Result) KernelNames() []string {
	names := make([]string, 0, len(r.KernelCycles))
	for n := range r.KernelCycles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes the program's main function on every rank and returns
// the combined result. Any simulated trap (out-of-bounds access,
// division by zero, step limit) is returned as an error; the
// verification layer treats those as failures, exactly like a crashed
// benchmark binary. When one rank traps, its peers are aborted at their
// next (or current) MPI exchange and the originating trap is returned.
func Run(p *Program, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{KernelCycles: map[string]int64{}, KernelLaunches: map[string]int64{}}
	if p.Host.FuncByName("main") == nil {
		return nil, errors.New("irinterp: no main function")
	}
	ranks := make([]*machine, opts.NumRanks)
	boxes := newMailboxes(opts.NumRanks)
	for r := 0; r < opts.NumRanks; r++ {
		ranks[r] = newMachine(p, opts, r, boxes)
	}
	if opts.NumRanks == 1 {
		if err := ranks[0].callMain(); err != nil {
			return nil, err
		}
	} else {
		errs := make([]error, opts.NumRanks)
		var wg sync.WaitGroup
		for r := 0; r < opts.NumRanks; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				if errs[r] = ranks[r].callMain(); errs[r] != nil {
					boxes.fail()
				}
			}(r)
		}
		wg.Wait()
		// A rank is aborted only after another failed on its own, so
		// the lowest rank with any other error holds the originating trap.
		for r, err := range errs {
			if err != nil && !errors.Is(err, errAborted) {
				return nil, fmt.Errorf("rank %d: %w", r, err)
			}
		}
	}
	var sb strings.Builder
	for _, m := range ranks {
		sb.WriteString(m.out.String())
		res.Instrs += m.instrs
		res.Cycles += m.cycles
		res.DeviceInstrs += m.devInstrs
		res.DeviceCycles += m.devCycles
		for k, v := range m.kernelCycles {
			res.KernelCycles[k] += v
		}
		for k, v := range m.kernelLaunches {
			res.KernelLaunches[k] += v
		}
	}
	res.Stdout = sb.String()
	return res, nil
}

// value is a runtime scalar or vector. The scalar fields are inline;
// the lanes of a vector live outside the struct, in a lane buffer of
// the frame that defined it (nil reads as all-zero lanes), so copying
// a value moves 24 bytes.
type value struct {
	i int64
	f float64
	v *lanes
}

// lanes holds a vector's integer and float lanes. They are separate
// registers, not two views of one bit pattern: a float splat leaves
// the integer lanes at 0.
type lanes struct {
	vi [4]int64
	vf [4]float64
}

var zeroLanes lanes

// lanes returns the vector lanes of x; scalars read as zero lanes.
func (x value) lanes() *lanes {
	if x.v == nil {
		return &zeroLanes
	}
	return x.v
}

func iv(x int64) value   { return value{i: x} }
func fv(x float64) value { return value{f: x} }

// machine is the per-rank execution state.
type machine struct {
	prog *Program
	opts Options
	rank int
	box  *mailboxes

	mem      memory
	heapPtr  int64
	stackPtr int64
	globals  map[*ir.Global]int64
	funcs    map[*ir.Func]*funcInfo

	out strings.Builder

	instrs, cycles       int64
	devInstrs, devCycles int64
	kernelCycles         map[string]int64
	kernelLaunches       map[string]int64

	// runtime state
	ompTID  int
	kernel  bool  // inside a GPU kernel launch
	kcycles int64 // cycles of the running kernel, flushed when it ends
	gpuTID  int64
	gpuNtid int64
	tasks   []pendingTask

	// phiVals and phiLanes hold an edge's phi operands while all of
	// them are read before any phi is written.
	phiVals  []value
	phiLanes []lanes
}

type pendingTask struct {
	fn  *funcInfo
	ctx int64
}

// Memory layout (per rank).
const (
	globalBase = 0x1000
	heapBase   = 8 << 20
	stackBase  = 48 << 20
)

func newMachine(p *Program, opts Options, rank int, boxes *mailboxes) *machine {
	return &machine{
		prog: p, opts: opts, rank: rank, box: boxes,
		heapPtr: heapBase, stackPtr: stackBase,
		globals:        map[*ir.Global]int64{},
		funcs:          map[*ir.Func]*funcInfo{},
		kernelCycles:   map[string]int64{},
		kernelLaunches: map[string]int64{},
	}
}

// layoutGlobals places and initializes the host, then the device
// globals from globalBase, 16-byte aligned; a global shared by both
// modules is placed once.
func (m *machine) layoutGlobals() {
	addr := int64(globalBase)
	layout := func(mod *ir.Module) {
		for _, g := range mod.Globals {
			if _, done := m.globals[g]; done {
				continue // shared host/device global
			}
			addr = (addr + 15) &^ 15
			m.globals[g] = addr
			for i, v := range g.InitI64 {
				m.store64(addr+int64(8*i), uint64(v))
			}
			for i, v := range g.InitF64 {
				m.store64(addr+int64(8*i), math.Float64bits(v))
			}
			if len(g.InitI64) == 0 && len(g.InitF64) == 0 && addr+g.Size > m.opts.MemLimit {
				m.trap("memory limit exceeded at address %#x", addr+g.Size)
			}
			addr += g.Size
		}
	}
	layout(m.prog.Host)
	if m.prog.Device != nil {
		layout(m.prog.Device)
	}
}

// errAborted is the error of a rank stopped because a peer trapped.
var errAborted = errors.New("aborted: another rank failed")

// rankAborted is the panic value that unwinds an aborted rank.
type rankAborted struct{}

func (m *machine) callMain() (err error) {
	defer func() {
		if r := recover(); r != nil {
			switch te := r.(type) {
			case trapError:
				err = errors.New(string(te))
			case rankAborted:
				err = errAborted
			default:
				panic(r)
			}
		}
	}()
	m.layoutGlobals()
	m.call(m.newFrame(m.prepare(m.prog.Host.FuncByName("main"))))
	return nil
}

type trapError string

func (m *machine) trap(format string, args ...any) {
	panic(trapError(fmt.Sprintf("simulated trap: "+format, args...)))
}

// frame is one function activation. slots holds the results of the
// function's instructions by slot number; a slot counts as defined only
// when its gen matches the frame's, so reusing a pooled frame never
// needs clearing and reading a slot before it is written traps.
type frame struct {
	fi       *funcInfo
	slots    []slot
	gen      uint32
	lanes    []lanes // one buffer per vector-typed slot
	args     []value
	stackTop int64 // saved stack pointer for alloca unwinding
}

type slot struct {
	val value
	gen uint32
}

// newFrame returns a fresh activation of fi, reusing a pooled frame
// when one is free.
func (m *machine) newFrame(fi *funcInfo) *frame {
	var fr *frame
	if n := len(fi.free); n > 0 {
		fr = fi.free[n-1]
		fi.free = fi.free[:n-1]
		fr.args = fr.args[:0]
	} else {
		fr = &frame{fi: fi, slots: make([]slot, fi.nslots), lanes: make([]lanes, fi.nvec)}
	}
	fr.gen++
	if fr.gen == 0 { // wrapped: forget every stale mark
		clear(fr.slots)
		fr.gen = 1
	}
	return fr
}

// set defines a result slot. A vector's lanes are copied into the
// slot's lane buffer (or, for a vector landing in a scalar-typed slot,
// onto the heap), so the value never aliases lanes another slot may
// overwrite.
func (m *machine) set(fr *frame, dst, vec int32, x value) {
	if x.v != nil {
		if vec >= 0 {
			l := &fr.lanes[vec]
			*l = *x.v
			x.v = l
		} else {
			l := *x.v
			x.v = &l
		}
	}
	fr.slots[dst] = slot{x, fr.gen}
}

// cost is the cycle cost model (the "wall time" stand-in).
func cost(in *ir.Instr) int64 {
	switch in.Op {
	case ir.OpMul, ir.OpFMul:
		return 3
	case ir.OpSDiv, ir.OpSRem, ir.OpFDiv:
		return 16
	case ir.OpLoad, ir.OpStore:
		return 4
	case ir.OpMemCpy, ir.OpMemSet:
		return 8
	case ir.OpCall:
		switch in.Callee {
		case "__sqrt", "__exp", "__log", "__sin", "__cos", "__pow":
			return 20
		}
		return 4
	case ir.OpPhi:
		return 0
	default:
		return 1
	}
}

func (m *machine) tick(c int64) {
	if m.kernel {
		m.devInstrs++
		m.devCycles += c
		m.kcycles += c
	} else {
		m.instrs++
		m.cycles += c
	}
	if m.instrs+m.devInstrs > m.opts.StepLimit {
		m.trap("step limit exceeded (%d instructions): possible non-termination", m.opts.StepLimit)
	}
}

// call runs the activation fr, whose arguments are already set, and
// returns its return value. fr goes back to the pool on return.
func (m *machine) call(fr *frame) value {
	fr.stackTop = m.stackPtr
	fi := fr.fi
	e := fi.entry
	for {
		b := m.enter(fr, e)
		for i := range b.body {
			ci := &b.body[i]
			m.tick(ci.cost)
			switch ci.op {
			case ir.OpBr:
				e = ci.succ[0]
				if len(ci.succ) == 2 && m.eval(fr, &ci.ops[0]).i == 0 {
					e = ci.succ[1]
				}
				if e == nil {
					m.trap("branch in %s/%s has no target", fi.fn.Name, b.blk.Name)
				}
			case ir.OpRet:
				var ret value
				if len(ci.ops) > 0 {
					ret = m.eval(fr, &ci.ops[0])
				}
				m.stackPtr = fr.stackTop
				fi.free = append(fi.free, fr)
				return ret
			default:
				m.exec(fr, ci)
			}
		}
		if !b.term {
			m.trap("block %s/%s fell through without terminator", fi.fn.Name, b.blk.Name)
		}
	}
}

// enter takes edge e: its phis read their operands in parallel, then
// are written and counted in order. It returns the target block.
func (m *machine) enter(fr *frame, e *edge) *block {
	cs := e.copies
	if len(m.phiLanes) < len(cs) {
		m.phiLanes = make([]lanes, len(cs))
	}
	vals := m.phiVals[:0]
	for i := range cs {
		c := &cs[i]
		if c.missing {
			m.missingIncoming(fr, e)
		}
		x := m.eval(fr, &c.src)
		if x.v != nil {
			m.phiLanes[i] = *x.v
			x.v = &m.phiLanes[i]
		}
		vals = append(vals, x)
	}
	for i := range cs {
		m.set(fr, cs[i].dst, cs[i].vec, vals[i])
		m.tick(0)
	}
	m.phiVals = vals
	return e.to
}

func (m *machine) missingIncoming(fr *frame, e *edge) {
	m.trap("phi in %s/%s has no incoming for predecessor", fr.fi.fn.Name, e.to.blk.Name)
}

// eval resolves an operand to its runtime value.
func (m *machine) eval(fr *frame, o *operand) value {
	if o.kind == kSlot {
		s := &fr.slots[o.idx]
		if s.gen != fr.gen {
			m.undefined(fr, o)
		}
		return s.val
	}
	if o.kind == kConst {
		return o.val
	}
	return m.evalOther(fr, o)
}

func (m *machine) evalOther(fr *frame, o *operand) value {
	switch o.kind {
	case kArg:
		if int(o.idx) >= len(fr.args) {
			m.trap("missing argument %d of %s", o.idx, fr.fi.fn.Name)
		}
		return fr.args[o.idx]
	case kUndef:
		m.undefined(fr, o)
	}
	if g, ok := o.v.(*ir.Global); ok {
		m.trap("unknown global %s", g.Name)
	}
	m.trap("unknown value kind %T", o.v)
	return value{}
}

func (m *machine) undefined(fr *frame, o *operand) {
	m.trap("use of undefined value %s in %s", o.v.Ident(), fr.fi.fn.Name)
}
