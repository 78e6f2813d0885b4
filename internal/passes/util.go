package passes

import (
	"github.com/oraql/go-oraql/internal/ir"
)

// isPureOp reports whether the instruction computes a value with no
// side effects and no dependence on memory, so it can be removed when
// unused and hoisted/CSE'd when operands match. Calls to readnone math
// intrinsics count as pure.
func isPureOp(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpSDiv, ir.OpSRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpAShr,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv,
		ir.OpSIToFP, ir.OpFPToSI, ir.OpICmp, ir.OpFCmp,
		ir.OpSelect, ir.OpGEP,
		ir.OpVSplat, ir.OpVExtract, ir.OpVInsert, ir.OpVReduce:
		return true
	case ir.OpCall:
		return pureIntrinsics[in.Callee]
	}
	return false
}

// pureIntrinsics are deterministic, effect-free math functions; every
// other call is treated as having observable effects (I/O, runtime
// state, allocation).
var pureIntrinsics = map[string]bool{
	"__sqrt": true, "__fabs": true, "__exp": true, "__log": true,
	"__sin": true, "__cos": true, "__pow": true,
	"__min_i64": true, "__max_i64": true, "__min_f64": true, "__max_f64": true,
}

// sideEffectFree reports whether deleting the unused instruction is
// safe: pure ops, loads (a dead load has no observable effect), phis
// and allocas.
func sideEffectFree(in *ir.Instr) bool {
	if isPureOp(in) {
		return true
	}
	switch in.Op {
	case ir.OpLoad, ir.OpPhi, ir.OpAlloca:
		return true
	}
	return false
}

// useCounts maps each instruction to the number of operand slots that
// reference it across the function.
func useCounts(fn *ir.Func) map[*ir.Instr]int {
	uses := map[*ir.Instr]int{}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Dead() {
				continue
			}
			for _, op := range in.Operands {
				if oi, ok := op.(*ir.Instr); ok {
					uses[oi]++
				}
			}
		}
	}
	return uses
}

// maxPureOperands is the most operands a pure instruction has: select
// and vinsert take 3, every other pure op and pure intrinsic fewer.
const maxPureOperands = 3

// exprKey is the structural identity of a pure instruction for CSE and
// value numbering: opcode, predicate, gep constants, callee, and
// operand identities (by VID). Two instructions compute the same value
// exactly when their keys are equal.
type exprKey struct {
	op         ir.Opcode
	pred       ir.Pred
	scale, off int64
	callee     string
	n          int
	vids       [maxPureOperands]int64
}

// keyOf returns in's expression key. ok is false for an instruction
// with more operands than a pure op takes (a malformed intrinsic call
// from hand-written IR); such an instruction is not numbered.
func keyOf(in *ir.Instr) (k exprKey, ok bool) {
	if len(in.Operands) > maxPureOperands {
		return k, false
	}
	k = exprKey{op: in.Op, pred: in.Pred, scale: in.Scale, off: in.Off, callee: in.Callee, n: len(in.Operands)}
	for i, op := range in.Operands {
		k.vids[i] = op.VID()
	}
	return k, true
}

// constOf returns the constant value of v if it is an integer constant.
func constOf(v ir.Value) (int64, bool) {
	c, ok := v.(*ir.Const)
	if !ok || c.Ty == ir.F64 {
		return 0, false
	}
	return c.I, true
}

// fconstOf returns the constant value of v if it is a float constant.
func fconstOf(v ir.Value) (float64, bool) {
	c, ok := v.(*ir.Const)
	if !ok || c.Ty != ir.F64 {
		return 0, false
	}
	return c.F, true
}

// removeDeadCode deletes unused side-effect-free instructions until a
// fixed point, returning how many were removed.
func removeDeadCode(fn *ir.Func) int {
	removed := 0
	for {
		uses := useCounts(fn)
		changed := false
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Dead() || in.IsTerminator() {
					continue
				}
				if uses[in] == 0 && sideEffectFree(in) {
					in.MarkDead()
					removed++
					changed = true
				}
			}
		}
		if !changed {
			return removed
		}
	}
}
