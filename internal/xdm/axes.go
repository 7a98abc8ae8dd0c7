package xdm

// Axis identifies an XPath axis supported by the reproduction.
type Axis int

// Supported axes. The paper's call-by-value semantics make upward and
// sideways axes on XRPC parameters return empty results (§2.2); all of
// them are implemented so that behaviour is observable.
const (
	AxisChild Axis = iota
	AxisDescendant
	AxisDescendantOrSelf
	AxisAttribute
	AxisSelf
	AxisParent
	AxisAncestor
	AxisAncestorOrSelf
	AxisFollowingSibling
	AxisPrecedingSibling
	AxisFollowing
	AxisPreceding
)

// String returns the XPath name of the axis.
func (a Axis) String() string {
	switch a {
	case AxisChild:
		return "child"
	case AxisDescendant:
		return "descendant"
	case AxisDescendantOrSelf:
		return "descendant-or-self"
	case AxisAttribute:
		return "attribute"
	case AxisSelf:
		return "self"
	case AxisParent:
		return "parent"
	case AxisAncestor:
		return "ancestor"
	case AxisAncestorOrSelf:
		return "ancestor-or-self"
	case AxisFollowingSibling:
		return "following-sibling"
	case AxisPrecedingSibling:
		return "preceding-sibling"
	case AxisFollowing:
		return "following"
	default:
		return "preceding"
	}
}

// Reverse reports whether the axis is a reverse axis (results delivered
// in reverse document order before the final sort).
func (a Axis) Reverse() bool {
	switch a {
	case AxisParent, AxisAncestor, AxisAncestorOrSelf, AxisPrecedingSibling, AxisPreceding:
		return true
	}
	return false
}

// NodeTest is a predicate over nodes used by path steps: a name test
// (possibly the wildcard "*") or a kind test.
type NodeTest struct {
	Kind     NodeKind // meaningful when KindTest
	KindTest bool     // true for text(), node(), comment(), etc.
	AnyKind  bool     // node()
	Name     string   // name test; "*" is wildcard
}

// Matches reports whether the node satisfies the test in the context of
// the given axis (name tests select elements on most axes, attributes on
// the attribute axis).
func (t NodeTest) Matches(n *Node, axis Axis) bool {
	if t.KindTest {
		if t.AnyKind {
			return true
		}
		return n.Kind == t.Kind
	}
	principal := ElementNode
	if axis == AxisAttribute {
		principal = AttributeNode
	}
	if n.Kind != principal {
		return false
	}
	return t.Name == "*" || n.Name == t.Name
}

// Step evaluates one axis step with a node test from a single context
// node, returning matching nodes in axis order.
func Step(ctx *Node, axis Axis, test NodeTest) []*Node {
	var out []*Node
	add := func(n *Node) {
		if test.Matches(n, axis) {
			out = append(out, n)
		}
	}
	switch axis {
	case AxisChild:
		if l := ctx.lazy; l != nil && l.kids != nil && !test.KindTest && test.Name != "*" {
			// a named step into a lazy item root builds what it names
			var ok bool
			if out, ok = ctx.kidsNamed(l, test.Name, out); ok {
				break
			}
		}
		for _, c := range ctx.Children() {
			add(c)
		}
	case AxisDescendant:
		walkDescendants(ctx, add)
	case AxisDescendantOrSelf:
		add(ctx)
		walkDescendants(ctx, add)
	case AxisAttribute:
		for _, a := range ctx.Attrs {
			add(a)
		}
	case AxisSelf:
		add(ctx)
	case AxisParent:
		if ctx.Parent != nil {
			add(ctx.Parent)
		}
	case AxisAncestor:
		for p := ctx.Parent; p != nil; p = p.Parent {
			add(p)
		}
	case AxisAncestorOrSelf:
		for p := ctx; p != nil; p = p.Parent {
			add(p)
		}
	case AxisFollowingSibling:
		if ctx.Parent != nil {
			past := false
			for _, s := range ctx.Parent.Children() {
				if past {
					add(s)
				}
				if s == ctx {
					past = true
				}
			}
		}
	case AxisPrecedingSibling:
		// an attribute is not among its owner's Children: no siblings
		if ctx.Parent != nil && ctx.Kind != AttributeNode {
			var before []*Node
			for _, s := range ctx.Parent.Children() {
				if s == ctx {
					break
				}
				before = append(before, s)
			}
			for i := len(before) - 1; i >= 0; i-- {
				add(before[i])
			}
		}
	case AxisFollowing:
		if ctx.Kind == AttributeNode && ctx.Parent != nil {
			// an attribute precedes its owner's content in document
			// order and is no ancestor of it
			walkDescendants(ctx.Parent, add)
		}
		for p := ctx; p != nil; p = p.Parent {
			if p.Parent == nil {
				break
			}
			past := false
			for _, s := range p.Parent.Children() {
				if past {
					add(s)
					walkDescendants(s, add)
				}
				if s == p {
					past = true
				}
			}
		}
	case AxisPreceding:
		// collected in document order, up to the context node — for an
		// attribute its owner, which the walk over Children does meet —
		// then reversed; ancestors are excluded per spec.
		stop := ctx
		if ctx.Kind == AttributeNode && ctx.Parent != nil {
			stop = ctx.Parent
		}
		anc := map[*Node]bool{}
		for p := ctx; p != nil; p = p.Parent {
			anc[p] = true
		}
		var pre []*Node
		var walk func(*Node) bool
		walk = func(n *Node) bool {
			if n == stop {
				return true
			}
			if !anc[n] {
				pre = append(pre, n)
			}
			for _, c := range n.Children() {
				if walk(c) {
					return true
				}
			}
			return false
		}
		walk(ctx.Root())
		for i := len(pre) - 1; i >= 0; i-- {
			add(pre[i])
		}
	}
	return out
}

func walkDescendants(n *Node, visit func(*Node)) {
	for _, c := range n.Children() {
		visit(c)
		walkDescendants(c, visit)
	}
}
