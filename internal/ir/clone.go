package ir

import (
	"fmt"
	"slices"
)

// Clone returns a deep copy of m whose pointer graph matches m's: every
// global, function, argument, block, instruction and constant of m is
// copied exactly once, and every reference between them points at the
// copy, so values shared in m (a constant used by two instructions, a
// block that is the target of several branches) stay shared in the
// clone and in nothing else. IDs, names, the per-function ID counters,
// dead marks, the TBAA tree, alias scopes and global initializers are
// kept, so the clone prints identically and a pass pipeline allocates
// the same instruction IDs (hence the same VIDs) on it as on m.
// Interned types are shared, not copied.
//
// Clone only reads m, so concurrent clones of one module are safe as
// long as nothing mutates it. Operands must refer to globals listed in
// m and to arguments and block instructions of m's own functions (what
// Verify checks); a reference to anything else is a bug in whatever
// built m, and Clone panics on it.
func (m *Module) Clone() *Module { return CloneModules(m)[0] }

// CloneModules clones modules that share objects, such as an offload
// program's host and device modules, whose Globals lists hold the same
// *Global for a global both sides access: the clones share the copy of
// every object the originals share (see Clone). Nil modules clone to
// nil.
func CloneModules(ms ...*Module) []*Module {
	c := &cloner{globals: map[*Global]*Global{}, consts: map[*Const]*Const{}}
	out := make([]*Module, len(ms))
	for i, m := range ms {
		if m != nil {
			out[i] = c.module(m)
		}
	}
	return out
}

// cloner maps source pointers to their copies. Arguments, blocks and
// instructions are found through their dense per-function IDs;
// globals, which modules may share, and constants, which carry no
// identity of their own, go through maps.
type cloner struct {
	globals map[*Global]*Global
	consts  map[*Const]*Const

	// The module being cloned and its clone; the indexes are by
	// function ID.
	src, dst *Module
	blocks   [][]copied[Block]
	instrs   [][]copied[Instr]
}

// copied pairs an object of the source module with its copy.
type copied[T any] struct{ src, dst *T }

func (c *cloner) module(m *Module) *Module {
	dst := &Module{Name: m.Name, Target: m.Target, TBAA: m.TBAA.clone()}
	if m.Globals != nil {
		dst.Globals = make([]*Global, len(m.Globals))
		for i, g := range m.Globals {
			ng, ok := c.globals[g]
			if !ok {
				ng = new(Global)
				*ng = *g
				ng.InitI64 = slices.Clone(g.InitI64)
				ng.InitF64 = slices.Clone(g.InitF64)
				c.globals[g] = ng
			}
			dst.Globals[i] = ng
		}
	}
	c.src, c.dst = m, dst
	c.blocks = make([][]copied[Block], len(m.Funcs))
	c.instrs = make([][]copied[Instr], len(m.Funcs))
	if m.Funcs != nil {
		dst.Funcs = make([]*Func, len(m.Funcs))
	}
	// Every function's arguments, blocks and instructions are copied
	// before any operand is mapped: phis refer to later instructions.
	for i, f := range m.Funcs {
		dst.Funcs[i] = c.shell(f, dst)
	}
	for i, f := range m.Funcs {
		c.link(f, dst.Funcs[i])
	}
	return dst
}

// shell copies f's scalar state, arguments, blocks and instructions,
// leaving the instructions' value and block references to link.
func (c *cloner) shell(f *Func, dst *Module) *Func {
	nf := &Func{Name: f.Name, RetTy: f.RetTy, Attrs: f.Attrs, Parent: dst, ID: f.ID,
		nextInstrID: f.nextInstrID, nextBlockID: f.nextBlockID}
	if f.Params != nil {
		args := make([]Arg, len(f.Params))
		nf.Params = make([]*Arg, len(f.Params))
		for i, a := range f.Params {
			args[i] = *a
			args[i].Func = nf
			nf.Params[i] = &args[i]
		}
	}
	ninstr := 0
	for _, b := range f.Blocks {
		ninstr += len(b.Instrs)
	}
	blocks := make([]Block, len(f.Blocks))
	instrs := make([]Instr, ninstr)
	byBlock := make([]copied[Block], f.nextBlockID)
	byInstr := make([]copied[Instr], f.nextInstrID)
	if f.Blocks != nil {
		nf.Blocks = make([]*Block, len(f.Blocks))
	}
	k := 0
	for i, b := range f.Blocks {
		nb := &blocks[i]
		*nb = Block{Name: b.Name, ID: b.ID, Parent: nf}
		if b.Instrs != nil {
			nb.Instrs = make([]*Instr, len(b.Instrs))
		}
		for j, in := range b.Instrs {
			ni := &instrs[k]
			k++
			*ni = *in
			ni.Parent = nb
			nb.Instrs[j] = ni
			byInstr = register(byInstr, in.ID, in, ni, f, "instruction")
		}
		nf.Blocks[i] = nb
		byBlock = register(byBlock, b.ID, b, nb, f, "block")
	}
	c.blocks[f.ID] = byBlock
	c.instrs[f.ID] = byInstr
	return nf
}

// register records the copy dst of src under id, growing the index
// when an ID is past the function's counter (a hand-built function may
// assign IDs itself). Two objects under one ID would make the mapping
// ambiguous.
func register[T any](index []copied[T], id int, src, dst *T, f *Func, kind string) []copied[T] {
	if id < 0 {
		panic(fmt.Sprintf("ir: Clone: func %s: %s with negative ID %d", f.Name, kind, id))
	}
	for id >= len(index) {
		index = append(index, copied[T]{})
	}
	if index[id].src != nil {
		panic(fmt.Sprintf("ir: Clone: func %s: two %ss with ID %d", f.Name, kind, id))
	}
	index[id] = copied[T]{src, dst}
	return index
}

// lookup returns the copy of p, or nil when p is not in index.
func lookup[T any](index []copied[T], id int, p *T) *T {
	if id >= 0 && id < len(index) && index[id].src == p {
		return index[id].dst
	}
	return nil
}

// link points the copies of f's instructions at the copies of their
// operands, successors and incoming blocks. Each function's operand
// and block references share one backing array, cut with full slice
// expressions so that appending to one instruction's list never
// overwrites its neighbour's.
func (c *cloner) link(f, nf *Func) {
	nops, nblk := 0, 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			nops += len(in.Operands)
			nblk += len(in.Succs) + len(in.Incoming)
		}
	}
	ops := make([]Value, nops)
	blks := make([]*Block, nblk)
	for bi, b := range f.Blocks {
		for ii, in := range b.Instrs {
			ni := nf.Blocks[bi].Instrs[ii]
			if in.Operands != nil {
				out := ops[:len(in.Operands):len(in.Operands)]
				ops = ops[len(in.Operands):]
				for i, v := range in.Operands {
					out[i] = c.value(v)
				}
				ni.Operands = out
			}
			ni.Succs, blks = c.blockRefs(f, in.Succs, blks)
			ni.Incoming, blks = c.blockRefs(f, in.Incoming, blks)
			ni.Scopes = slices.Clone(in.Scopes)
			ni.NoAliasScope = slices.Clone(in.NoAliasScope)
		}
	}
}

// blockRefs maps a successor or incoming list of f into the front of
// buf and returns it with the rest of buf.
func (c *cloner) blockRefs(f *Func, refs []*Block, buf []*Block) ([]*Block, []*Block) {
	if refs == nil {
		return nil, buf
	}
	out := buf[:len(refs):len(refs)]
	for i, b := range refs {
		if b != nil {
			out[i] = lookup(c.blocks[f.ID], b.ID, b)
		}
		if out[i] == nil {
			panic(fmt.Sprintf("ir: Clone: func %s refers to a block outside it", f.Name))
		}
	}
	return out, buf[len(refs):]
}

// value maps one operand to its copy.
func (c *cloner) value(v Value) Value {
	switch v := v.(type) {
	case *Const:
		nc, ok := c.consts[v]
		if !ok {
			nc = new(Const)
			*nc = *v
			c.consts[v] = nc
		}
		return nc
	case *Global:
		if ng, ok := c.globals[v]; ok {
			return ng
		}
	case *Arg:
		if f := c.owner(v.Func); f != nil && v.ID >= 0 && v.ID < len(v.Func.Params) && v.Func.Params[v.ID] == v {
			return f.Params[v.ID]
		}
	case *Instr:
		if v.Parent != nil {
			if f := c.owner(v.Parent.Parent); f != nil {
				if ni := lookup(c.instrs[f.ID], v.ID, v); ni != nil {
					return ni
				}
			}
		}
	}
	panic(fmt.Sprintf("ir: Clone: operand %s is not defined in module %s", v.Ident(), c.src.Name))
}

// owner returns the copy of f when f is a function of the module being
// cloned, else nil.
func (c *cloner) owner(f *Func) *Func {
	if f != nil && f.ID >= 0 && f.ID < len(c.src.Funcs) && c.src.Funcs[f.ID] == f {
		return c.dst.Funcs[f.ID]
	}
	return nil
}
