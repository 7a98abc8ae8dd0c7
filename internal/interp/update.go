package interp

import (
	"fmt"
	"sort"
	"strings"

	"xrpc/internal/store"
	"xrpc/internal/xdm"
	"xrpc/internal/xq"
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
// applied to a cloned tree.
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

// evalUpdate evaluates one XQUF update expression, appending primitives
// to the pending update list; its value is the empty sequence.
func (ctx *dynCtx) evalUpdate(e xq.Expr) (xdm.Sequence, error) {
	switch n := e.(type) {
	case *xq.Insert:
		src, err := ctx.eval(n.Source)
		if err != nil {
			return nil, err
		}
		srcNodes, err := contentNodes(src)
		if err != nil {
			return nil, err
		}
		tgt, err := ctx.evalSingleNode(n.Target)
		if err != nil {
			return nil, err
		}
		kind := PrimInsertInto
		switch n.Pos {
		case xq.InsertAsFirst:
			kind = PrimInsertFirst
		case xq.InsertAsLast:
			kind = PrimInsertLast
		case xq.InsertBefore:
			kind = PrimInsertBefore
		case xq.InsertAfter:
			kind = PrimInsertAfter
		}
		if (kind == PrimInsertBefore || kind == PrimInsertAfter) && tgt.Parent == nil {
			return nil, xdm.NewError("XUDY0029", "insert before/after target has no parent")
		}
		ctx.pul.Add(Primitive{Kind: kind, Target: tgt, Source: srcNodes})
		return nil, nil
	case *xq.Delete:
		tgts, err := ctx.eval(n.Target)
		if err != nil {
			return nil, err
		}
		nodes, ok := xdm.NodesOf(tgts)
		if !ok {
			return nil, xdm.NewError("XUTY0007", "delete target is not a node sequence")
		}
		for _, t := range nodes {
			ctx.pul.Add(Primitive{Kind: PrimDelete, Target: t})
		}
		return nil, nil
	case *xq.Replace:
		tgt, err := ctx.evalSingleNode(n.Target)
		if err != nil {
			return nil, err
		}
		src, err := ctx.eval(n.Source)
		if err != nil {
			return nil, err
		}
		if n.ValueOf {
			ctx.pul.Add(Primitive{
				Kind:   PrimReplaceValue,
				Target: tgt,
				Value:  xdm.Atomize(src).StringJoin(" "),
			})
			return nil, nil
		}
		srcNodes, err := contentNodes(src)
		if err != nil {
			return nil, err
		}
		if tgt.Parent == nil {
			return nil, xdm.NewError("XUDY0029", "replace target has no parent")
		}
		ctx.pul.Add(Primitive{Kind: PrimReplaceNode, Target: tgt, Source: srcNodes})
		return nil, nil
	case *xq.Rename:
		tgt, err := ctx.evalSingleNode(n.Target)
		if err != nil {
			return nil, err
		}
		nameSeq, err := ctx.eval(n.NewName)
		if err != nil {
			return nil, err
		}
		if len(nameSeq) != 1 {
			return nil, xdm.NewError("XPTY0004", "rename target name must be a single item")
		}
		ctx.pul.Add(Primitive{Kind: PrimRename, Target: tgt, Value: nameSeq[0].StringValue()})
		return nil, nil
	}
	return nil, xdm.Errorf("XPST0003", "unknown update expression %T", e)
}

func (ctx *dynCtx) evalSingleNode(e xq.Expr) (*xdm.Node, error) {
	v, err := ctx.eval(e)
	if err != nil {
		return nil, err
	}
	if len(v) != 1 {
		return nil, xdm.Errorf("XUTY0008", "update target must be exactly one node, got %d items", len(v))
	}
	n, ok := v[0].(*xdm.Node)
	if !ok {
		return nil, xdm.NewError("XUTY0008", "update target is not a node")
	}
	return n, nil
}

// contentNodes converts an insert/replace source sequence into copied
// content nodes (atomics become text nodes).
func contentNodes(v xdm.Sequence) ([]*xdm.Node, error) {
	var out []*xdm.Node
	for _, it := range v {
		switch x := it.(type) {
		case *xdm.Node:
			if x.Kind == xdm.DocumentNode {
				for _, c := range x.Children {
					out = append(out, c.Clone())
				}
				continue
			}
			out = append(out, x.Clone())
		default:
			out = append(out, xdm.NewText(it.StringValue()).Seal())
		}
	}
	return out, nil
}

// exprIsUpdating statically classifies expressions per the XQUF: an
// expression is updating if an update primitive, fn:put, or a call or
// execute at of an updating function occurs anywhere below it.
func exprIsUpdating(e xq.Expr, c *Compiled) bool {
	applies := func(call *xq.FuncCall) bool {
		f, ok := c.lookupFunc(c.main, call.Name, len(call.Args))
		return ok && f.decl.Updating
	}
	updating := false
	xq.Walk(e, nil, func(x xq.Expr, _ map[string]bool) {
		switch n := x.(type) {
		case *xq.Insert, *xq.Delete, *xq.Replace, *xq.Rename:
			updating = true
		case *xq.FuncCall:
			updating = updating || strings.TrimPrefix(n.Name, "fn:") == "put" || applies(n)
		case *xq.ExecuteAt:
			updating = updating || applies(n.Call)
		}
	})
	return updating
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

// ApplyUpdates is the XQUF applyUpdates() function from rules R_Fu/R'_Fu:
// it carries through a pending update list against a store, producing new
// document versions. Each affected document is cloned (shadow paging),
// mutated, resealed and swapped in. Primitives apply in Seq order
// (stable, so untagged lists keep arrival order — the XQUF's
// "non-deterministic" union is then simply arrival order).
func ApplyUpdates(st *store.Store, ul *UpdateList) error {
	if ul.Empty() {
		return nil
	}
	sort.SliceStable(ul.Prims, func(i, j int) bool {
		return ul.Prims[i].Seq < ul.Prims[j].Seq
	})
	// group primitives by the tree their target lives in
	type docGroup struct {
		name  string
		root  *xdm.Node
		prims []Primitive
	}
	groups := map[*xdm.Node]*docGroup{} // keyed by snapshot root
	var order []*docGroup
	var puts []Primitive
	for _, p := range ul.Prims {
		if p.Kind == PrimPut {
			puts = append(puts, p)
			continue
		}
		root := p.Target.Root()
		g, ok := groups[root]
		if !ok {
			g = &docGroup{name: p.DocName, root: root}
			groups[root] = g
			order = append(order, g)
		}
		g.prims = append(g.prims, p)
	}
	// stage every new document version, then swap them in atomically:
	// one applyUpdates is one version step, which keeps primary and
	// replica store versions comparable for replication fencing
	batch := make(map[string]*xdm.Node, len(order)+len(puts))
	for _, g := range order {
		if g.name == "" {
			return xdm.NewError("XUDY0014", "update target is not in a stored document")
		}
		clone := g.root.Clone()
		for _, p := range g.prims {
			target := clone.FindByOrd(p.Target.Ord())
			if target == nil {
				return xdm.Errorf("XUDY0014", "update target #%d vanished from %q", p.Target.Ord(), g.name)
			}
			if err := applyPrimitive(target, p); err != nil {
				return err
			}
		}
		clone.Seal()
		clone.SetDocURI(g.name)
		batch[g.name] = clone
	}
	for _, p := range puts {
		doc := xdm.NewDocument(p.PutURI)
		for _, n := range p.Source {
			doc.AppendChild(n.Clone())
		}
		doc.Seal()
		batch[p.PutURI] = doc
	}
	st.PutBatch(batch)
	return nil
}

func applyPrimitive(target *xdm.Node, p Primitive) error {
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
			attach(target, s, len(target.Children))
		}
	case PrimInsertFirst:
		for i, s := range cloneSources() {
			attach(target, s, i)
		}
	case PrimInsertBefore, PrimInsertAfter:
		parent := target.Parent
		if parent == nil {
			return xdm.NewError("XUDY0029", "insert before/after target has no parent")
		}
		idx := childIndex(parent, target)
		if idx < 0 {
			return xdm.NewError("XUDY0029", "target not found under parent")
		}
		if p.Kind == PrimInsertAfter {
			idx++
		}
		for i, s := range cloneSources() {
			attach(parent, s, idx+i)
		}
	case PrimDelete:
		if target.Parent == nil {
			return xdm.NewError("XUDY0029", "cannot delete a root node")
		}
		detach(target)
	case PrimReplaceNode:
		parent := target.Parent
		if parent == nil {
			return xdm.NewError("XUDY0029", "replace target has no parent")
		}
		idx := childIndex(parent, target)
		detach(target)
		for i, s := range cloneSources() {
			attach(parent, s, idx+i)
		}
	case PrimReplaceValue:
		switch target.Kind {
		case xdm.ElementNode:
			target.Children = nil
			if p.Value != "" {
				target.AppendChild(xdm.NewText(p.Value))
			}
		case xdm.AttributeNode, xdm.TextNode, xdm.CommentNode, xdm.PINode:
			target.Value = p.Value
		default:
			return xdm.NewError("XUTY0008", "cannot replace value of a document node")
		}
	case PrimRename:
		if target.Kind != xdm.ElementNode && target.Kind != xdm.AttributeNode && target.Kind != xdm.PINode {
			return xdm.NewError("XUTY0012", "rename target must be element, attribute or PI")
		}
		target.Name = p.Value
	default:
		return xdm.Errorf("XUST0001", "unsupported primitive %v", p.Kind)
	}
	return nil
}

func attach(parent, child *xdm.Node, idx int) {
	if child.Kind == xdm.AttributeNode {
		parent.SetAttr(child)
		return
	}
	child.Parent = parent
	parent.Children = append(parent.Children, nil)
	copy(parent.Children[idx+1:], parent.Children[idx:])
	parent.Children[idx] = child
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
		parent.Children = append(parent.Children[:i], parent.Children[i+1:]...)
	}
	n.Parent = nil
}

func childIndex(parent, child *xdm.Node) int {
	for i, c := range parent.Children {
		if c == child {
			return i
		}
	}
	return -1
}
