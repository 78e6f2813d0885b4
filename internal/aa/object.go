package aa

import (
	"sync"

	"github.com/oraql/go-oraql/internal/ir"
)

// UnderlyingObject strips GEPs (and, through select, both sides when
// they agree) to find the base object a pointer is derived from.
// Returns nil when the chain passes through a load, phi, select with
// distinct bases, or call result other than __malloc.
func UnderlyingObject(v ir.Value) ir.Value {
	for depth := 0; depth < 64; depth++ {
		in, ok := v.(*ir.Instr)
		if !ok {
			return v // Arg, Global, Const
		}
		switch in.Op {
		case ir.OpGEP:
			v = in.Operands[0]
		case ir.OpSelect:
			a := UnderlyingObject(in.Operands[1])
			b := UnderlyingObject(in.Operands[2])
			if a != nil && a == b {
				return a
			}
			return nil
		case ir.OpAlloca:
			return in
		case ir.OpCall:
			if in.Callee == "__malloc" {
				return in
			}
			return nil
		default:
			return nil
		}
	}
	return nil
}

// IsIdentifiedObject reports whether v is a distinct memory object:
// an alloca, a global, a __malloc result, or a noalias argument.
// Two different identified objects never overlap.
func IsIdentifiedObject(v ir.Value) bool {
	switch x := v.(type) {
	case *ir.Global:
		return true
	case *ir.Arg:
		return x.NoAlias
	case *ir.Instr:
		return x.Op == ir.OpAlloca || (x.Op == ir.OpCall && x.Callee == "__malloc")
	}
	return false
}

// IsLocalObject reports whether v is function-local memory (alloca or
// malloc result), as opposed to an argument or global.
func IsLocalObject(v ir.Value) bool {
	x, ok := v.(*ir.Instr)
	if !ok {
		return false
	}
	return x.Op == ir.OpAlloca || (x.Op == ir.OpCall && x.Callee == "__malloc")
}

// callCaptures lists intrinsics that receive pointer arguments without
// retaining them beyond the call: passing a pointer to these does not
// make the pointee reachable through other names afterwards.
var nonCapturingIntrinsics = map[string]bool{
	"__print_str":         true,
	"__checksum_f64":      true,
	"__checksum_i64":      true,
	"__free":              true,
	"__mpi_sendrecv":      true,
	"__mpi_allreduce_f64": true,
}

// idSet is a bitset over a function's instruction IDs.
type idSet []uint64

func (s idSet) has(in *ir.Instr) bool {
	w := uint(in.ID) >> 6
	return w < uint(len(s)) && s[w]&(1<<(in.ID&63)) != 0
}

func (s idSet) add(in *ir.Instr) { s[in.ID>>6] |= 1 << (in.ID & 63) }

// derivedOf reports whether v is an instruction in the set.
func (s idSet) derivedOf(v ir.Value) bool {
	in, ok := v.(*ir.Instr)
	return ok && s.has(in)
}

// idSets recycles the bitsets of IsNonCaptured, so a query allocates
// nothing once the pool is warm.
var idSets = sync.Pool{New: func() any { return new(idSet) }}

// IsNonCaptured reports whether the address of the local object obj
// never escapes its function: it is not stored as a value, not passed
// to a capturing call, and every derived pointer (via GEP/select) obeys
// the same. A non-captured local cannot be reached through arguments,
// globals, or loaded pointers. Every call scans the function's current
// IR; derived pointers are marked in a pooled bitset indexed by
// instruction ID.
func IsNonCaptured(obj *ir.Instr) bool {
	fn := obj.Parent.Parent
	// Size the bitset for every ID in the function; IDs are unique and
	// non-negative within a function (ir.Func.AllocID). Malformed
	// numbering stays conservative.
	if obj.ID < 0 {
		return false
	}
	bound := obj.ID
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.ID < 0 {
				return false
			}
			bound = max(bound, in.ID)
		}
	}
	sp := idSets.Get().(*idSet)
	defer idSets.Put(sp)
	if n := bound>>6 + 1; cap(*sp) < n {
		*sp = make(idSet, n)
	} else {
		*sp = (*sp)[:n]
		clear(*sp)
	}
	derived := *sp
	derived.add(obj)
	// Fixed point over derived pointers; functions are small.
	for changed := true; changed; {
		changed = false
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Dead() {
					continue
				}
				if (in.Op == ir.OpGEP || in.Op == ir.OpSelect) && !derived.has(in) {
					for _, op := range in.Operands {
						if derived.derivedOf(op) {
							derived.add(in)
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
				if derived.derivedOf(in.Operands[0]) {
					return false // address stored to memory
				}
			case ir.OpCall:
				if ir.IsIntrinsic(in.Callee) && (nonCapturingIntrinsics[in.Callee] ||
					!ir.CalleeEffects(in.Callee).Reads && !ir.CalleeEffects(in.Callee).Writes) {
					continue
				}
				if in.Callee == "__memcpy" {
					continue
				}
				for _, op := range in.Operands {
					if derived.derivedOf(op) {
						return false // passed to a capturing call
					}
				}
			case ir.OpPhi:
				for _, op := range in.Operands {
					if derived.derivedOf(op) {
						return false // flows into a phi: give up tracking
					}
				}
			case ir.OpRet:
				for _, op := range in.Operands {
					if derived.derivedOf(op) {
						return false
					}
				}
			}
		}
	}
	return true
}
