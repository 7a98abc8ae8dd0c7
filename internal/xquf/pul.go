// Package xquf is the pending update list (PUL) of the XQuery Update
// Facility: its primitives, their application to a store as one commit
// (ApplyUpdates, with XQUF's kind and conflict checks), and its wire form
// (EncodePUL, DecodePUL, ParsePUL), which carries a prepared list to a
// shard's replicas and into the write-ahead log. The interpreter builds a
// list (evalUpdate); every other layer — the server's commit path, 2PC,
// replica adoption, WAL replay — reads, ships or applies one here.
package xquf

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"xrpc/internal/store"
	"xrpc/internal/xdm"
)

// PrimitiveKind enumerates XQUF update primitives.
type PrimitiveKind int

// Update primitive kinds per the XQUF draft referenced by the paper.
const (
	PrimInsertInto PrimitiveKind = iota
	PrimInsertFirst
	PrimInsertLast
	PrimInsertBefore
	PrimInsertAfter
	PrimDelete
	PrimReplaceNode
	PrimReplaceValue
	PrimRename
	PrimPut
)

// String names the primitive kind.
func (k PrimitiveKind) String() string {
	switch k {
	case PrimInsertInto:
		return "insertInto"
	case PrimInsertFirst:
		return "insertIntoAsFirst"
	case PrimInsertLast:
		return "insertIntoAsLast"
	case PrimInsertBefore:
		return "insertBefore"
	case PrimInsertAfter:
		return "insertAfter"
	case PrimDelete:
		return "delete"
	case PrimReplaceNode:
		return "replaceNode"
	case PrimReplaceValue:
		return "replaceValue"
	case PrimRename:
		return "rename"
	case PrimPut:
		return "put"
	default:
		return "unknown"
	}
}

// Primitive is one pending update. Targets are identified by the
// document they live in plus the node's stable preorder ordinal, so a
// pending update list can be serialized (for the 2PC Prepare log) and
// applied to a cloned or newer tree of the same shape.
type Primitive struct {
	Kind    PrimitiveKind
	Target  *xdm.Node   // node in the snapshot tree (nil for Put)
	Source  []*xdm.Node // content for insert/replace (already copied)
	Value   string      // replace value / rename name
	PutURI  string      // fn:put destination
	DocName string      // target document name (filled by Add from Target)
	// Seq orders primitives for the deterministic-update-order protocol
	// extension (the paper's companion report [35]): despite Bulk RPC's
	// out-of-order execution, primitives apply in original query order.
	// Zero means "no explicit order"; ApplyUpdates sorts stably, so
	// unordered primitives keep arrival order.
	Seq int64
}

// UpdateList is a pending update list ∆ (§2.3). XQUF specifies that the
// application order of multiple updates to the same node is
// non-deterministic; Merge therefore just concatenates.
type UpdateList struct {
	Prims []Primitive
	// Replay marks a list read back from a commit log. It committed
	// once already, so primitives that conflict on one node (XUDY0015,
	// XUDY0016, XUDY0017), which a log written before that check may
	// hold, are applied in order, the last write winning, as they were
	// then.
	Replay bool
}

// Add appends a primitive, recording the target's document name.
func (ul *UpdateList) Add(p Primitive) {
	if p.Target != nil {
		p.DocName = p.Target.Root().DocURI()
	}
	ul.Prims = append(ul.Prims, p)
}

// Merge unions another pending update list into this one (∆ ∪ ∆').
func (ul *UpdateList) Merge(other *UpdateList) {
	if other == nil {
		return
	}
	ul.Prims = append(ul.Prims, other.Prims...)
}

// Empty reports whether the list has no primitives.
func (ul *UpdateList) Empty() bool { return ul == nil || len(ul.Prims) == 0 }

// Describe renders a human-readable summary (used by the 2PC Prepare
// log).
func (ul *UpdateList) Describe() string {
	var sb strings.Builder
	for i, p := range ul.Prims {
		if i > 0 {
			sb.WriteByte('\n')
		}
		fmt.Fprintf(&sb, "%s doc=%q", p.Kind, p.DocName)
		if p.Target != nil {
			fmt.Fprintf(&sb, " target=#%d", p.Target.Ord())
		}
		if p.PutURI != "" {
			fmt.Fprintf(&sb, " uri=%q", p.PutURI)
		}
	}
	return sb.String()
}

// CheckKinds is XQUF's rule on which node kinds an insert or replace
// may combine: only elements and documents take content inside
// (XUTY0005), only a node with siblings takes it beside (XUTY0006),
// and attributes replace only attributes (XUTY0010, XUTY0011). An
// attribute may be inserted only onto an element: into a document is
// XUTY0022, beside a child of a document XUDY0030. parent is the
// target's parent at the point the primitive applies. The interpreter's
// evalUpdate checks a primitive it builds; checkPrimitives checks again because a PUL
// adopted from the wire or replayed from the log is outside input.
func CheckKinds(kind PrimitiveKind, target, parent *xdm.Node, src []*xdm.Node) error {
	attrs := 0
	for _, s := range src {
		if s.Kind == xdm.AttributeNode {
			attrs++
		}
	}
	switch kind {
	case PrimInsertInto, PrimInsertFirst, PrimInsertLast:
		switch {
		case target.Kind != xdm.ElementNode && target.Kind != xdm.DocumentNode:
			return xdm.Errorf("XUTY0005", "cannot insert into %s", target.Kind)
		case target.Kind == xdm.DocumentNode && attrs > 0:
			return xdm.NewError("XUTY0022", "insert of an attribute into a document node")
		}
	case PrimInsertBefore, PrimInsertAfter:
		switch {
		case target.Kind == xdm.AttributeNode || target.Kind == xdm.DocumentNode:
			return xdm.Errorf("XUTY0006", "cannot insert before or after %s", target.Kind)
		case attrs > 0 && (parent == nil || parent.Kind != xdm.ElementNode):
			return xdm.NewError("XUDY0030", "insert of an attribute beside a node whose parent is not an element")
		}
	case PrimReplaceNode:
		switch {
		case target.Kind == xdm.AttributeNode && attrs < len(src):
			return xdm.NewError("XUTY0011", "an attribute is replaced only by attributes")
		case target.Kind != xdm.AttributeNode && attrs > 0:
			return xdm.Errorf("XUTY0010", "%s is not replaced by attributes", target.Kind)
		}
	}
	return nil
}

// SetSeqBase stamps every primitive of the list with an ordering base:
// primitive i gets base*65536 + i. Used by the server to order the
// pending updates of one bulk call by the call's original query
// position (deterministic update order, [35]).
func (ul *UpdateList) SetSeqBase(base int64) {
	for i := range ul.Prims {
		ul.Prims[i].Seq = base*65536 + int64(i)
	}
}

// ValueCarrier is a version's derived value (store.Snapshot.Derived)
// that can outlive a commit whose every primitive replaced a value and
// changed no structure: CarryValues edits it into the next version's,
// given the nodes whose values changed (the interpreter's step and index
// tables). It runs under the store's write lock (store.Tx.Carry).
type ValueCarrier interface {
	CarryValues(changed []*xdm.Node) any
}

// ApplyUpdates is the XQUF applyUpdates() function from rules R_Fu/R'_Fu:
// it carries a pending update list through against a store as one
// store.Commit, one version step. own is the snapshot the list was
// computed against (nil if none); its pin does not keep the commit off
// a tree. So each target document is written in place when no other
// snapshot pins it, and as a clone swapped in otherwise (copy on pin).
//
// A target in the tree being written is used as it is. A target in
// another tree of the same Shape — the transaction's snapshot was
// overtaken by a commit that changed no structure — is found there by
// its ordinal, so both commits' writes survive. A target in a tree of
// another shape fails with XRPC0010: its ordinal no longer names the
// node the transaction saw, and writing it would overwrite a change the
// transaction never read. Every primitive is checked before the first
// write, so a failing list leaves the store as it was, and a tree is
// resealed only when a primitive changed its structure (`replace value
// of` an element with one text child changes none, unless the list also
// targets that child). Primitives are checked and applied in XQUF's
// phase order (see phase), and within a phase in Seq order (stable, so
// untagged lists keep arrival order — the XQUF's "non-deterministic"
// union is then simply arrival order). A list of `replace value of`
// primitives that change no structure hands the superseded version's
// steps and indexes to the next version (store.Tx.Carry, ValueCarrier);
// every other commit starts the next version with none.
func ApplyUpdates(st *store.Store, ul *UpdateList, own *store.Snapshot) error {
	if ul.Empty() {
		return nil
	}
	sort.SliceStable(ul.Prims, func(i, j int) bool {
		pi, pj := phase(ul.Prims[i].Kind), phase(ul.Prims[j].Kind)
		return pi < pj || pi == pj && ul.Prims[i].Seq < ul.Prims[j].Seq
	})
	return st.Commit(own, func(tx *store.Tx) error {
		targets := make([]*xdm.Node, len(ul.Prims))
		targeted := make(map[*xdm.Node]bool, len(ul.Prims))
		for i, p := range ul.Prims {
			if p.Kind == PrimPut {
				continue
			}
			t, err := resolveTarget(tx, p)
			if err != nil {
				return err
			}
			targets[i] = t
			targeted[t] = true
		}
		if err := checkPrimitives(ul.Prims, targets, !ul.Replay); err != nil {
			return err
		}
		var reseal, changed []*xdm.Node
		for i, p := range ul.Prims {
			if p.Kind == PrimPut || !applyPrimitive(targets[i], p, targeted) {
				if p.Kind == PrimReplaceValue {
					c := targets[i]
					if c.Kind == xdm.ElementNode {
						c = c.Children()[0] // the text child took the value
					}
					changed = append(changed, c)
				}
				continue
			}
			if doc := tx.Writable(p.DocName); !slices.Contains(reseal, doc) {
				reseal = append(reseal, doc)
			}
		}
		for _, doc := range reseal {
			doc.Seal()
		}
		if len(changed) == len(ul.Prims) {
			// only values changed: the version's tables outlive the commit
			tx.Carry(func(old any) any {
				if t, ok := old.(ValueCarrier); ok {
					return t.CarryValues(changed)
				}
				return nil
			})
		}
		for _, p := range ul.Prims {
			if p.Kind != PrimPut {
				continue
			}
			doc := xdm.NewDocument(p.PutURI)
			for _, n := range p.Source {
				doc.AppendChild(n.Clone())
			}
			tx.Put(p.PutURI, doc.Seal())
		}
		return nil
	})
}

// phase is the step of XQUF's upd:applyUpdates a primitive belongs to:
// inserts, replace value and rename first, then replace node, then
// delete, so a list that inserts beside a node and deletes it applies
// whatever order its expressions came in. fn:put comes last.
func phase(k PrimitiveKind) int {
	switch k {
	case PrimReplaceNode:
		return 1
	case PrimDelete:
		return 2
	case PrimPut:
		return 3
	}
	return 0
}

// resolveTarget finds p's target in the tree of its document that tx
// writes (see ApplyUpdates).
func resolveTarget(tx *store.Tx, p Primitive) (*xdm.Node, error) {
	if p.DocName == "" {
		return nil, xdm.NewError("XUDY0014", "update target is not in a stored document")
	}
	doc := tx.Writable(p.DocName)
	if doc == nil {
		return nil, xdm.Errorf("XUDY0014", "update target's document %q is no longer stored", p.DocName)
	}
	root := p.Target.Root()
	if root == doc {
		return p.Target, nil
	}
	if root.Shape() != doc.Shape() {
		return nil, xdm.Errorf("XRPC0010", "update of %q: the document changed structure after this transaction's snapshot", p.DocName)
	}
	t := doc.FindByOrd(p.Target.Ord())
	if t == nil {
		return nil, xdm.Errorf("XUDY0014", "update target #%d vanished from %q", p.Target.Ord(), p.DocName)
	}
	return t, nil
}

// checkPrimitives raises the error applying the list would raise, before
// anything is written. With conflicts, two primitives that XQUF's
// upd:applyUpdates forbids on one node raise: two renames (XUDY0015),
// two replace node (XUDY0016), two replace value of (XUDY0017). A
// target's parent counts as gone once an earlier primitive deleted or
// replaced the target, or replaced the value of its parent element
// (detach leaves an attribute's parent set).
func checkPrimitives(prims []Primitive, targets []*xdm.Node, conflicts bool) error {
	type use struct {
		kind   PrimitiveKind
		target *xdm.Node
	}
	var gone map[*xdm.Node]bool
	var used map[use]bool
	for i, p := range prims {
		t := targets[i]
		if p.Kind == PrimPut {
			continue
		}
		if code := conflictCode(p.Kind); conflicts && code != "" {
			u := use{p.Kind, t}
			if used[u] {
				return xdm.Errorf(code, "two %s primitives target node #%d", p.Kind, t.Ord())
			}
			if used == nil {
				used = map[use]bool{}
			}
			used[u] = true
		}
		parent := t.Parent
		if gone[t] {
			parent = nil
		}
		if err := CheckKinds(p.Kind, t, parent, p.Source); err != nil {
			return err
		}
		switch p.Kind {
		case PrimInsertBefore, PrimInsertAfter:
			if parent == nil || childIndex(parent, t) < 0 {
				return xdm.NewError("XUDY0029", "insert before/after target has no parent")
			}
		case PrimDelete:
			if parent == nil {
				return xdm.NewError("XUDY0029", "cannot delete a root node")
			}
		case PrimReplaceNode:
			if parent == nil || t.Kind != xdm.AttributeNode && childIndex(parent, t) < 0 {
				return xdm.NewError("XUDY0029", "replace target has no parent")
			}
		case PrimReplaceValue:
			if t.Kind == xdm.DocumentNode {
				return xdm.NewError("XUTY0008", "cannot replace value of a document node")
			}
			if t.Kind == xdm.ElementNode {
				// the element's children leave it, save a one text child
				// no primitive targets (see applyPrimitive)
				for _, c := range t.Children() {
					gone = markGone(gone, c)
				}
			}
		case PrimRename:
			if t.Kind != xdm.ElementNode && t.Kind != xdm.AttributeNode && t.Kind != xdm.PINode {
				return xdm.NewError("XUTY0012", "rename target must be element, attribute or PI")
			}
		case PrimInsertInto, PrimInsertFirst, PrimInsertLast:
		default:
			return xdm.Errorf("XUST0001", "unsupported primitive %v", p.Kind)
		}
		if (p.Kind == PrimDelete || p.Kind == PrimReplaceNode) && t.Kind != xdm.AttributeNode {
			gone = markGone(gone, t)
		}
	}
	return nil
}

// conflictCode is the XQUF error two primitives of kind k on one node
// raise, or "" if they may share it.
func conflictCode(k PrimitiveKind) string {
	switch k {
	case PrimRename:
		return "XUDY0015"
	case PrimReplaceNode:
		return "XUDY0016"
	case PrimReplaceValue:
		return "XUDY0017"
	}
	return ""
}

func markGone(gone map[*xdm.Node]bool, n *xdm.Node) map[*xdm.Node]bool {
	if gone == nil {
		gone = map[*xdm.Node]bool{}
	}
	gone[n] = true
	return gone
}

// applyPrimitive writes one checked primitive (see checkPrimitives) and
// reports whether it changed the tree's structure, i.e. its ordinals.
// targeted holds every target of the list.
func applyPrimitive(target *xdm.Node, p Primitive, targeted map[*xdm.Node]bool) (structural bool) {
	cloneSources := func() []*xdm.Node {
		out := make([]*xdm.Node, len(p.Source))
		for i, s := range p.Source {
			out[i] = s.Clone()
		}
		return out
	}
	switch p.Kind {
	case PrimInsertInto, PrimInsertLast:
		for _, s := range cloneSources() {
			attach(target, s, len(target.Children()))
		}
	case PrimInsertFirst:
		for i, s := range cloneSources() {
			attach(target, s, i)
		}
	case PrimInsertBefore, PrimInsertAfter:
		parent := target.Parent
		idx := childIndex(parent, target)
		if p.Kind == PrimInsertAfter {
			idx++
		}
		for i, s := range cloneSources() {
			attach(parent, s, idx+i)
		}
	case PrimDelete:
		detach(target)
	case PrimReplaceNode:
		parent := target.Parent
		idx := childIndex(parent, target)
		detach(target)
		for i, s := range cloneSources() {
			attach(parent, s, idx+i)
		}
	case PrimReplaceValue:
		if target.Kind != xdm.ElementNode {
			target.Value = p.Value
			return false
		}
		// an element's one text child takes the new value where it is,
		// unless a primitive targets that child: it must see the child
		// replaced, as checkPrimitives did
		if kids := target.Children(); len(kids) == 1 && kids[0].Kind == xdm.TextNode && p.Value != "" && !targeted[kids[0]] {
			kids[0].Value = p.Value
			return false
		}
		target.SetChildren(nil)
		if p.Value != "" {
			target.AppendChild(xdm.NewText(p.Value))
		}
	case PrimRename:
		target.Name = p.Value
		return false
	}
	return true
}

func attach(parent, child *xdm.Node, idx int) {
	if child.Kind == xdm.AttributeNode {
		parent.SetAttr(child)
		return
	}
	child.Parent = parent
	parent.SetChildren(slices.Insert(parent.Children(), idx, child))
}

func detach(n *xdm.Node) {
	parent := n.Parent
	if parent == nil {
		return
	}
	if n.Kind == xdm.AttributeNode {
		for i, a := range parent.Attrs {
			if a == n {
				parent.Attrs = append(parent.Attrs[:i], parent.Attrs[i+1:]...)
				break
			}
		}
		return
	}
	if i := childIndex(parent, n); i >= 0 {
		parent.SetChildren(slices.Delete(parent.Children(), i, i+1))
	}
	n.Parent = nil
}

func childIndex(parent, child *xdm.Node) int {
	for i, c := range parent.Children() {
		if c == child {
			return i
		}
	}
	return -1
}
