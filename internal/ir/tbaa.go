package ir

import (
	"maps"
	"slices"
)

// TBAATree is the type-based alias analysis metadata tree. Tags form a
// forest rooted at "omnipotent" (the analogue of LLVM's omnipotent
// char); two accesses may alias under TBAA only if one tag is an
// ancestor of the other (or they are equal).
type TBAATree struct {
	parent map[string]string
	order  []string // creation order, for deterministic printing
}

// RootTag is the ancestor of every other tag.
const RootTag = "omnipotent"

// NewTBAATree returns a tree pre-populated with the standard scalar
// tags emitted by the minic frontend: "long", "double", "any pointer",
// all children of the root.
func NewTBAATree() *TBAATree {
	t := &TBAATree{parent: map[string]string{}}
	t.Add("long", RootTag)
	t.Add("double", RootTag)
	t.Add("any pointer", RootTag)
	return t
}

// Add inserts tag as a child of parent. Re-adding an existing tag with
// the same parent is a no-op; changing a tag's parent panics, because
// TBAA trees are write-once per module.
func (t *TBAATree) Add(tag, parent string) {
	if p, ok := t.parent[tag]; ok {
		if p != parent {
			panic("ir: TBAA tag " + tag + " re-added with different parent")
		}
		return
	}
	t.parent[tag] = parent
	t.order = append(t.order, tag)
}

// clone returns an independent copy of t.
func (t *TBAATree) clone() *TBAATree {
	if t == nil {
		return nil
	}
	return &TBAATree{parent: maps.Clone(t.parent), order: slices.Clone(t.order)}
}

// Has reports whether tag exists in the tree (the root always exists).
func (t *TBAATree) Has(tag string) bool {
	if tag == RootTag {
		return true
	}
	_, ok := t.parent[tag]
	return ok
}

// Tags returns all tags in creation order (excluding the root).
func (t *TBAATree) Tags() []string { return t.order }

// Ancestor reports whether a is an ancestor of b (or a == b). Unknown
// tags are treated as direct children of the root.
func (t *TBAATree) Ancestor(a, b string) bool {
	for cur := b; ; {
		if cur == a {
			return true
		}
		p, ok := t.parent[cur]
		if !ok {
			return a == RootTag
		}
		cur = p
	}
}

// MayAlias reports whether two tagged accesses may alias under the TBAA
// rules. Untagged accesses ("" tag) may alias anything.
func (t *TBAATree) MayAlias(a, b string) bool {
	if a == "" || b == "" || a == RootTag || b == RootTag {
		return true
	}
	return t.Ancestor(a, b) || t.Ancestor(b, a)
}
