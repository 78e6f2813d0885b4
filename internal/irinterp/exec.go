package irinterp

import (
	"math"

	"github.com/oraql/go-oraql/internal/ir"
)

// exec executes one non-terminator, non-phi instruction.
func (m *machine) exec(fr *frame, ci *cinstr) {
	ops := ci.ops
	switch ci.op {
	case ir.OpAlloca:
		size := ci.imm
		addr := m.stackPtr
		m.checkAddr(addr, size)
		// Zero the slot: allocas start deterministic (the frontend
		// always initializes, but optimized code must not observe
		// garbage either).
		m.mem.fill(addr, size, 0)
		m.stackPtr += size
		m.setInt(fr, ci, addr)

	case ir.OpLoad:
		addr := m.eval(fr, &ops[0]).i
		switch {
		case ci.vector:
			var out lanes
			for l := 0; l < ci.lanes; l++ {
				bits := m.load64(addr + int64(8*l))
				out.vi[l] = int64(bits)
				out.vf[l] = math.Float64frombits(bits)
			}
			m.setVec(fr, ci, out)
		case ci.float:
			m.set(fr, ci.dst, ci.vec, fv(math.Float64frombits(m.load64(addr))))
		default:
			m.setInt(fr, ci, int64(m.load64(addr)))
		}

	case ir.OpStore:
		val := m.eval(fr, &ops[0])
		addr := m.eval(fr, &ops[1]).i
		switch {
		case ci.vector:
			ls := val.lanes()
			for l := 0; l < ci.lanes; l++ {
				if ci.float {
					m.store64(addr+int64(8*l), math.Float64bits(ls.vf[l]))
				} else {
					m.store64(addr+int64(8*l), uint64(ls.vi[l]))
				}
			}
		case ci.float:
			m.store64(addr, math.Float64bits(val.f))
		default:
			m.store64(addr, uint64(val.i))
		}

	case ir.OpGEP:
		addr := m.eval(fr, &ops[0]).i + ci.imm
		if len(ops) > 1 {
			addr += m.eval(fr, &ops[1]).i * ci.scale
		}
		m.setInt(fr, ci, addr)

	case ir.OpMemCpy:
		dst := m.eval(fr, &ops[0]).i
		src := m.eval(fr, &ops[1]).i
		n := m.eval(fr, &ops[2]).i
		if n < 0 {
			m.trap("memcpy with negative length %d", n)
		}
		m.checkAddr(dst, n)
		m.checkAddr(src, n)
		m.mem.move(dst, src, n)

	case ir.OpMemSet:
		dst := m.eval(fr, &ops[0]).i
		b := byte(m.eval(fr, &ops[1]).i)
		n := m.eval(fr, &ops[2]).i
		if n < 0 {
			m.trap("memset with negative length %d", n)
		}
		m.checkAddr(dst, n)
		m.mem.fill(dst, n, b)

	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpSDiv, ir.OpSRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpAShr:
		x := m.eval(fr, &ops[0])
		y := m.eval(fr, &ops[1])
		if ci.vector {
			xl, yl := x.lanes(), y.lanes()
			var out lanes
			for l := 0; l < ci.lanes; l++ {
				out.vi[l] = m.intOp(ci.op, xl.vi[l], yl.vi[l])
			}
			m.setVec(fr, ci, out)
		} else {
			m.setInt(fr, ci, m.intOp(ci.op, x.i, y.i))
		}

	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		x := m.eval(fr, &ops[0])
		y := m.eval(fr, &ops[1])
		if ci.vector {
			xl, yl := x.lanes(), y.lanes()
			var out lanes
			for l := 0; l < ci.lanes; l++ {
				out.vf[l] = floatOp(ci.op, xl.vf[l], yl.vf[l])
			}
			m.setVec(fr, ci, out)
		} else {
			m.set(fr, ci.dst, ci.vec, fv(floatOp(ci.op, x.f, y.f)))
		}

	case ir.OpSIToFP:
		x := m.eval(fr, &ops[0])
		if ci.vector {
			xl := x.lanes()
			var out lanes
			for l := 0; l < ci.lanes; l++ {
				out.vf[l] = float64(xl.vi[l])
			}
			m.setVec(fr, ci, out)
		} else {
			m.set(fr, ci.dst, ci.vec, fv(float64(x.i)))
		}

	case ir.OpFPToSI:
		x := m.eval(fr, &ops[0])
		if ci.vector {
			xl := x.lanes()
			var out lanes
			for l := 0; l < ci.lanes; l++ {
				out.vi[l] = int64(xl.vf[l])
			}
			m.setVec(fr, ci, out)
		} else {
			m.setInt(fr, ci, int64(x.f))
		}

	case ir.OpICmp:
		x := m.eval(fr, &ops[0]).i
		y := m.eval(fr, &ops[1]).i
		m.setInt(fr, ci, b2i(cmpInt(ci.pred, x, y)))

	case ir.OpFCmp:
		x := m.eval(fr, &ops[0]).f
		y := m.eval(fr, &ops[1]).f
		m.setInt(fr, ci, b2i(cmpFloat(ci.pred, x, y)))

	case ir.OpSelect:
		if m.eval(fr, &ops[0]).i != 0 {
			m.set(fr, ci.dst, ci.vec, m.eval(fr, &ops[1]))
		} else {
			m.set(fr, ci.dst, ci.vec, m.eval(fr, &ops[2]))
		}

	case ir.OpVSplat:
		x := m.eval(fr, &ops[0])
		var out lanes
		for l := 0; l < ci.lanes; l++ {
			out.vi[l] = x.i
			out.vf[l] = x.f
		}
		m.setVec(fr, ci, out)

	case ir.OpVExtract:
		x := m.eval(fr, &ops[0])
		lane := m.eval(fr, &ops[1]).i
		if lane < 0 || int(lane) >= ci.lanes {
			m.trap("vector lane %d out of range", lane)
		}
		if ci.float {
			m.set(fr, ci.dst, ci.vec, fv(x.lanes().vf[lane]))
		} else {
			m.setInt(fr, ci, x.lanes().vi[lane])
		}

	case ir.OpVInsert:
		x := m.eval(fr, &ops[0])
		s := m.eval(fr, &ops[1])
		lane := m.eval(fr, &ops[2]).i
		if lane < 0 || int(lane) >= ci.lanes {
			m.trap("vector lane %d out of range", lane)
		}
		out := *x.lanes()
		out.vi[lane] = s.i
		out.vf[lane] = s.f
		m.setVec(fr, ci, out)

	case ir.OpVReduce:
		xl := m.eval(fr, &ops[0]).lanes()
		if ci.float {
			var sum float64
			for l := 0; l < ci.lanes; l++ {
				sum += xl.vf[l]
			}
			m.set(fr, ci.dst, ci.vec, fv(sum))
		} else {
			var sum int64
			for l := 0; l < ci.lanes; l++ {
				sum += xl.vi[l]
			}
			m.setInt(fr, ci, sum)
		}

	case ir.OpCall:
		m.set(fr, ci.dst, ci.vec, m.execCall(fr, ci))

	default:
		m.trap("unhandled opcode %s", ci.op)
	}
}

// setInt defines ci's result as the integer scalar x.
func (m *machine) setInt(fr *frame, ci *cinstr, x int64) {
	fr.slots[ci.dst] = slot{value{i: x}, fr.gen}
}

// setVec defines ci's result as a vector with lanes out (i and f 0).
// The lanes are passed by value and land in the slot's lane buffer, so
// a vector op allocates nothing; only a vector result in a slot without
// a lane buffer (vec < 0) goes to the heap.
func (m *machine) setVec(fr *frame, ci *cinstr, out lanes) {
	if ci.vec >= 0 {
		l := &fr.lanes[ci.vec]
		*l = out
		fr.slots[ci.dst] = slot{value{v: l}, fr.gen}
		return
	}
	heap := out
	fr.slots[ci.dst] = slot{value{v: &heap}, fr.gen}
}

func (m *machine) intOp(op ir.Opcode, a, b int64) int64 {
	switch op {
	case ir.OpAdd:
		return a + b
	case ir.OpSub:
		return a - b
	case ir.OpMul:
		return a * b
	case ir.OpSDiv:
		if b == 0 {
			m.trap("integer division by zero")
		}
		return a / b
	case ir.OpSRem:
		if b == 0 {
			m.trap("integer remainder by zero")
		}
		return a % b
	case ir.OpAnd:
		return a & b
	case ir.OpOr:
		return a | b
	case ir.OpXor:
		return a ^ b
	case ir.OpShl:
		return a << uint(b&63)
	case ir.OpAShr:
		return a >> uint(b&63)
	}
	m.trap("bad int op")
	return 0
}

func floatOp(op ir.Opcode, a, b float64) float64 {
	switch op {
	case ir.OpFAdd:
		return a + b
	case ir.OpFSub:
		return a - b
	case ir.OpFMul:
		return a * b
	}
	return a / b
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func cmpInt(p ir.Pred, x, y int64) bool {
	switch p {
	case ir.PredEQ:
		return x == y
	case ir.PredNE:
		return x != y
	case ir.PredLT:
		return x < y
	case ir.PredLE:
		return x <= y
	case ir.PredGT:
		return x > y
	case ir.PredGE:
		return x >= y
	}
	return false
}

func cmpFloat(p ir.Pred, x, y float64) bool {
	switch p {
	case ir.PredEQ:
		return x == y
	case ir.PredNE:
		return x != y
	case ir.PredLT:
		return x < y
	case ir.PredLE:
		return x <= y
	case ir.PredGT:
		return x > y
	case ir.PredGE:
		return x >= y
	}
	return false
}
