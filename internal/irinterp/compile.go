package irinterp

import (
	"github.com/oraql/go-oraql/internal/ir"
)

// A function is prepared once per machine, on its first call: every
// instruction of the blocks reachable from the entry gets a dense frame
// slot, operands are resolved to slots, arguments, constants or global
// addresses, and each CFG edge carries the phi copies it performs.
// Nothing here depends on ir.Instr.ID, so inlined and parsed IR run
// the same as builder output.

// funcInfo is a prepared function.
type funcInfo struct {
	fn     *ir.Func
	nslots int
	nvec   int   // lane buffers per frame, one per vector-typed slot
	entry  *edge // the edge into the entry block (no predecessor)
	// free pools frames of finished activations for reuse.
	free []*frame
}

// block is a prepared basic block: its non-phi instructions up to and
// including the first terminator.
type block struct {
	blk  *ir.Block
	body []cinstr
	// term is false when the block has no terminator; running off its
	// end traps.
	term bool
}

// edge is one control-flow edge: the phi copies of its target for this
// predecessor, in phi order, then the target itself.
type edge struct {
	to     *block
	copies []phiCopy
}

// phiCopy moves one phi operand into the phi's slot. missing marks a
// phi without an incoming value for the edge's predecessor, which
// traps when the edge is taken.
type phiCopy struct {
	dst     int32
	vec     int32
	src     operand
	missing bool
}

// operand kinds.
const (
	kSlot  uint8 = iota // an instruction result in the frame
	kConst              // a constant or a resolved global address
	kArg                // an argument of the activation
	kUndef              // an instruction that never runs in this function
	kBad                // an unknown global or value kind
)

type operand struct {
	kind uint8
	idx  int32 // slot or argument index
	val  value // kConst
	v    ir.Value
}

// cinstr is a prepared instruction. Besides in, it holds copies of the
// IR fields the hot path reads, so execution does not chase *ir.Instr.
type cinstr struct {
	in   *ir.Instr
	op   ir.Opcode
	pred ir.Pred
	// float is set when the accessed or produced scalar (or vector
	// element) type is f64.
	float bool
	// vector is set when the type the opcode works on is a vector, of
	// width lanes.
	vector bool
	lanes  int
	cost   int64
	dst    int32 // result slot
	vec    int32 // lane buffer of the result, or -1 for scalar results
	imm    int64 // GEP offset; alloca size rounded to 16
	scale  int64 // GEP index scale
	ops    []operand
	// succ holds a branch's edges: one, or then/else.
	succ []*edge
	// intr is the intrinsic id of a call (0 for user functions).
	intr int
	// target caches the resolved callee of a user call or the function
	// of a fork, task or launch, per context (host, kernel).
	target [2]*funcInfo
}

// compiler builds one funcInfo.
type compiler struct {
	m      *machine
	fi     *funcInfo
	slots  map[*ir.Instr]int32
	vecs   map[*ir.Instr]int32
	blocks map[*ir.Block]*block
	order  []*ir.Block
}

// prepare returns fn's funcInfo, building it on first use.
func (m *machine) prepare(fn *ir.Func) *funcInfo {
	if fi := m.funcs[fn]; fi != nil {
		return fi
	}
	if len(fn.Blocks) == 0 {
		m.trap("call to %s, which has no body", fn.Name)
	}
	c := &compiler{
		m: m, fi: &funcInfo{fn: fn},
		slots:  map[*ir.Instr]int32{},
		vecs:   map[*ir.Instr]int32{},
		blocks: map[*ir.Block]*block{},
	}
	// Number the blocks reachable from the entry first, so operands can
	// be resolved to slots however the blocks are ordered.
	c.reach(fn.Entry())
	for _, b := range c.order {
		c.compileBlock(b)
	}
	c.fi.entry = c.edge(nil, fn.Entry())
	c.fi.nslots = len(c.slots)
	c.fi.nvec = len(c.vecs)
	m.funcs[fn] = c.fi
	return c.fi
}

// reach numbers the slots of every block reachable from b.
func (c *compiler) reach(b *ir.Block) {
	stack := []*ir.Block{b}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == nil || c.blocks[b] != nil {
			continue
		}
		c.blocks[b] = &block{blk: b}
		c.order = append(c.order, b)
		for _, in := range b.Instrs {
			if in.Dead() {
				continue
			}
			c.slots[in] = int32(len(c.slots))
			if in.Ty != nil && in.Ty.Kind == ir.KVec {
				c.vecs[in] = int32(len(c.vecs))
			}
			for i := len(in.Succs) - 1; i >= 0; i-- {
				stack = append(stack, in.Succs[i])
			}
		}
	}
}

func (c *compiler) operand(v ir.Value) operand {
	o := operand{v: v}
	switch x := v.(type) {
	case *ir.Const:
		o.kind = kConst
		if x.Ty == ir.F64 {
			o.val = fv(x.F)
		} else {
			o.val = iv(x.I)
		}
	case *ir.Global:
		o.kind = kBad
		if a, ok := c.m.globals[x]; ok {
			o.kind, o.val = kConst, iv(a)
		}
	case *ir.Arg:
		o.kind, o.idx = kArg, int32(x.ID)
	case *ir.Instr:
		o.kind = kUndef
		if s, ok := c.slots[x]; ok {
			o.kind, o.idx = kSlot, s
		}
	default:
		o.kind = kBad
	}
	return o
}

func (c *compiler) vecOf(in *ir.Instr) int32 {
	if v, ok := c.vecs[in]; ok {
		return v
	}
	return -1
}

// edge prepares the copies of the phis of to for predecessor from, in
// block order. Each phi takes its first incoming entry for from.
func (c *compiler) edge(from, to *ir.Block) *edge {
	if to == nil {
		return nil
	}
	e := &edge{to: c.blocks[to]}
	for _, in := range to.Instrs {
		if in.Dead() || in.Op != ir.OpPhi {
			continue
		}
		pc := phiCopy{dst: c.slots[in], vec: c.vecOf(in), missing: true}
		for i, inc := range in.Incoming {
			if inc == from {
				pc.src, pc.missing = c.operand(in.Operands[i]), false
				break
			}
		}
		e.copies = append(e.copies, pc)
	}
	return e
}

func (c *compiler) compileBlock(b *ir.Block) {
	cb := c.blocks[b]
	for _, in := range b.Instrs {
		if in.Dead() || in.Op == ir.OpPhi {
			continue
		}
		ci := cinstr{
			in: in, op: in.Op, pred: in.Pred, cost: cost(in),
			dst: c.slots[in], vec: c.vecOf(in),
		}
		ci.ops = make([]operand, len(in.Operands))
		for i, v := range in.Operands {
			ci.ops[i] = c.operand(v)
		}
		c.shape(&ci)
		if in.Op == ir.OpBr {
			for _, s := range in.Succs {
				ci.succ = append(ci.succ, c.edge(b, s))
			}
			if len(ci.succ) == 0 {
				ci.succ = []*edge{nil}
			}
		}
		cb.body = append(cb.body, ci)
		if in.Op == ir.OpBr || in.Op == ir.OpRet {
			cb.term = true
			break
		}
	}
}

// shape fills the opcode-specific fields of ci.
func (c *compiler) shape(ci *cinstr) {
	in := ci.in
	switch in.Op {
	case ir.OpAlloca:
		ci.imm = (in.Size + 15) &^ 15
	case ir.OpGEP:
		ci.imm, ci.scale = in.Off, in.Scale
	case ir.OpLoad:
		ci.vector, ci.lanes = vecShape(in.Ty)
		ci.float = isF64(in.Ty)
	case ir.OpStore, ir.OpVExtract, ir.OpVReduce:
		if len(in.Operands) == 0 {
			return
		}
		t := in.Operands[0].Type()
		ci.vector, ci.lanes = vecShape(t)
		ci.float = isF64(t)
		if ci.vector {
			ci.float = isF64(t.Elem)
		}
	case ir.OpVSplat, ir.OpVInsert:
		if in.Ty != nil {
			ci.lanes = in.Ty.Lanes
		}
	case ir.OpCall:
		if ir.IsIntrinsic(in.Callee) {
			ci.intr = intrinsicIDs[in.Callee]
			if ci.intr == 0 {
				ci.intr = intrUnhandled
			}
		}
	default:
		ci.vector, ci.lanes = vecShape(in.Ty)
	}
}

// vecShape reports whether t is a vector type, and its width.
func vecShape(t *ir.Type) (bool, int) {
	if t != nil && t.Kind == ir.KVec {
		return true, t.Lanes
	}
	return false, 0
}

func isF64(t *ir.Type) bool { return t != nil && t.Kind == ir.KF64 }
