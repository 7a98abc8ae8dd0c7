package xdm

import (
	"fmt"
	"sync/atomic"
)

// NodeKind identifies one of the six XDM node kinds supported by XRPC
// parameter marshaling (§2.1 of the paper).
type NodeKind uint8

// Node kinds.
const (
	DocumentNode NodeKind = iota
	ElementNode
	AttributeNode
	TextNode
	CommentNode
	PINode
)

// String returns the node-kind name used in diagnostics.
func (k NodeKind) String() string {
	switch k {
	case DocumentNode:
		return "document-node()"
	case ElementNode:
		return "element()"
	case AttributeNode:
		return "attribute()"
	case TextNode:
		return "text()"
	case CommentNode:
		return "comment()"
	case PINode:
		return "processing-instruction()"
	default:
		return "node()"
	}
}

var docSeq atomic.Int64

// treeInfo identifies one tree (document or constructed fragment) for the
// purpose of node identity and cross-tree document order.
type treeInfo struct {
	id  int64
	uri string
	// shape stamps the ordinal layout: Clone of a root copies it and
	// every Seal renews it, so two trees share a shape exactly when
	// one is a copy of the other with no structural change since
	shape int64
}

// Node is an XDM node. Nodes have identity: two nodes are the same node
// iff they are the same *Node pointer. Document order is (tree id,
// preorder ordinal); a consistent (arbitrary but stable) order is imposed
// across trees via the tree id, as the XDM requires.
//
// A node's children are read through Children, and changed through
// SetChildren and AppendChild. A document or element node may be lazy
// (lazy.go): its start tag (Kind, Name, Attrs) is built, its content is
// still the bytes of a received message, with its node count known, so
// its ordinals are reserved. Reading the children builds them (a named
// child step on a received item root only the ones it names); copying
// the node and writing it out do not. Nothing else tells a lazy node
// from a built one.
type Node struct {
	Kind NodeKind
	// ord is the preorder ordinal within the tree; stable node id
	ord     int32
	Name    string // element/attribute QName, PI target
	Value   string // text/comment/PI content, attribute value
	TypeAnn string // xsi:type annotation carried through XRPC marshaling
	Parent  *Node
	Attrs   []*Node

	children []*Node
	// lazy, when set, holds the content bytes children are built from
	// (lazy.go); it stays set once they are built
	lazy *lazyContent
	tree *treeInfo
}

func (*Node) isItem() {}

// TypeName implements Item.
func (n *Node) TypeName() string { return n.Kind.String() }

// StringValue implements Item: concatenation of descendant text for
// documents/elements; stored value otherwise.
func (n *Node) StringValue() string {
	switch n.Kind {
	case DocumentNode, ElementNode:
		var out []byte
		var walk func(*Node)
		walk = func(c *Node) {
			if c.Kind == TextNode {
				out = append(out, c.Value...)
				return
			}
			for _, ch := range c.Children() {
				walk(ch)
			}
		}
		walk(n)
		return string(out)
	default:
		return n.Value
	}
}

// SetDocURI stamps the tree of n with a document URI. Used when a cloned
// tree becomes the new stored version of a named document. The node must
// be sealed first.
func (n *Node) SetDocURI(uri string) {
	if n.tree != nil {
		n.tree.uri = uri
	}
}

// DocURI returns the document URI the node belongs to ("" for constructed
// fragments).
func (n *Node) DocURI() string {
	if n.tree == nil {
		return ""
	}
	return n.tree.uri
}

// TreeID returns the identity of the tree this node belongs to.
func (n *Node) TreeID() int64 {
	if n.tree == nil {
		return 0
	}
	return n.tree.id
}

// Ord returns the preorder ordinal of the node within its tree. Ordinals
// are assigned by Seal and are stable across Clone, which makes them
// usable as node ids in pending update lists.
func (n *Node) Ord() int { return int(n.ord) }

// Shape returns the stamp of the tree's ordinal layout (0 for an
// unsealed node). Two trees with equal stamps map every ordinal to the
// same position, so a node of one is found in the other by Ord.
func (n *Node) Shape() int64 {
	if n.tree == nil {
		return 0
	}
	return n.tree.shape
}

// NewDocument creates a document node with the given URI.
func NewDocument(uri string) *Node {
	return &Node{Kind: DocumentNode, tree: &treeInfo{id: docSeq.Add(1), uri: uri}}
}

// NewElement creates a free-standing element node.
func NewElement(name string) *Node { return &Node{Kind: ElementNode, Name: name} }

// NewText creates a text node.
func NewText(value string) *Node { return &Node{Kind: TextNode, Value: value} }

// NewComment creates a comment node.
func NewComment(value string) *Node { return &Node{Kind: CommentNode, Value: value} }

// NewPI creates a processing-instruction node.
func NewPI(target, value string) *Node { return &Node{Kind: PINode, Name: target, Value: value} }

// NewAttribute creates an attribute node.
func NewAttribute(name, value string) *Node {
	return &Node{Kind: AttributeNode, Name: name, Value: value}
}

// Arena batch-allocates nodes in slabs, for decoders that build many
// small trees: one allocation per slab instead of one per node. The
// children and Attrs slices of the trees a Scanner builds are carved
// from slabs too, at exact length. Arena nodes are ordinary nodes in
// every respect (identity is still the pointer); an arena is not safe
// for concurrent use and is typically scoped to one decoded message.
type Arena struct {
	slab []Node
	ptrs []*Node
	// made and madePtrs count what the slabs so far held: each slab is
	// as large as all before it, up to arenaSlab and ptrSlab, so a small
	// message costs small slabs
	made, madePtrs int
	// open and kids are Scanner.build's scratch, reused across the
	// trees one arena builds: the open elements, each with where its
	// children start in kids, and the children of all of them.
	open []openElem
	kids []*Node
}

type openElem struct {
	node *Node
	kids int
}

const (
	// arenaSlab is the largest nodes-per-allocation batch size.
	arenaSlab = 64
	// ptrSlab is the largest slice-slab size in pointers; a slice of
	// more than a quarter of it gets its own allocation.
	ptrSlab = 128
)

// slabSize is the size of the next slab when the slabs so far held
// *made: as many again, at least least and at most most.
func slabSize(made *int, least, most int) int {
	n := min(max(*made, least), most)
	*made += n
	return n
}

func (a *Arena) node(kind NodeKind, name, value string) *Node {
	if len(a.slab) == 0 {
		a.slab = make([]Node, slabSize(&a.made, 8, arenaSlab))
	}
	n := &a.slab[0]
	a.slab = a.slab[1:]
	n.Kind, n.Name, n.Value = kind, name, value
	return n
}

// slots returns n node pointers (nil for none) carved from the arena.
// The full slice expression makes cap == len, so an append to the slice
// (AppendChild, SetAttr) copies it out instead of writing over the next
// slice carved from the slab.
func (a *Arena) slots(n int) []*Node {
	if n == 0 {
		return nil
	}
	if n > len(a.ptrs) {
		if n > ptrSlab/4 {
			return make([]*Node, n)
		}
		a.ptrs = make([]*Node, max(slabSize(&a.madePtrs, 16, ptrSlab), n))
	}
	p := a.ptrs[:n:n]
	a.ptrs = a.ptrs[n:]
	return p
}

// Element creates an element node from the arena.
func (a *Arena) Element(name string) *Node { return a.node(ElementNode, name, "") }

// Text creates a text node from the arena.
func (a *Arena) Text(value string) *Node { return a.node(TextNode, "", value) }

// Comment creates a comment node from the arena.
func (a *Arena) Comment(value string) *Node { return a.node(CommentNode, "", value) }

// PI creates a processing-instruction node from the arena.
func (a *Arena) PI(target, value string) *Node { return a.node(PINode, target, value) }

// Attribute creates an attribute node from the arena.
func (a *Arena) Attribute(name, value string) *Node { return a.node(AttributeNode, name, value) }

// Document creates a document node from the arena with its own tree
// identity.
func (a *Arena) Document(uri string) *Node {
	n := a.node(DocumentNode, "", "")
	n.tree = &treeInfo{id: docSeq.Add(1), uri: uri}
	return n
}

// Children returns the children of a document or element node, in
// document order (nil for other kinds). The slice belongs to the node:
// change it only through SetChildren or AppendChild. On a lazy node the
// first call builds the content, once, however many goroutines ask.
func (n *Node) Children() []*Node {
	if l := n.lazy; l != nil && l.state.Load() != built {
		n.expand(l)
	}
	return n.children
}

// SetChildren replaces n's children with kids; the caller links each
// one's Parent. Like every structural change it is followed by a Seal.
func (n *Node) SetChildren(kids []*Node) { n.children, n.lazy = kids, nil }

// AppendChild links child under n (for document/element parents).
func (n *Node) AppendChild(child *Node) {
	child.Parent = n
	n.SetChildren(append(n.Children(), child))
}

// SetAttr attaches an attribute node to an element.
func (n *Node) SetAttr(attr *Node) {
	attr.Parent = n
	n.Attrs = append(n.Attrs, attr)
}

// Seal assigns tree identity and preorder ordinals to the whole tree
// rooted at n. Call after construction and after structural updates. If
// the root has no tree info yet, a fresh tree identity is allocated.
// Seal builds nothing: the content of a lazy node keeps the run of
// ordinals its node count reserves, which its build hands out in
// preorder, so every ordinal is the one an eager tree's Seal gives.
func (n *Node) Seal() *Node {
	root := n.Root()
	if root.tree == nil {
		id := docSeq.Add(1)
		root.tree = &treeInfo{id: id, shape: id}
	} else {
		root.tree.shape = docSeq.Add(1)
	}
	number(root, 0, root.tree)
	return n
}

// number gives c, its attributes and its content the tree and the
// preorder ordinals from ord on, and returns the ordinal after them.
func number(c *Node, ord int32, tree *treeInfo) int32 {
	c.tree = tree
	c.ord = ord
	ord++
	for _, a := range c.Attrs {
		a.tree = tree
		a.ord = ord
		ord++
	}
	if l := c.lazy; l != nil && l.state.Load() != built {
		if l.built != nil {
			l.eachKid(c, func(i int, o int32) {
				if k := l.built[i]; k != nil {
					number(k, o, tree)
				}
			})
		}
		return ord + l.count
	}
	for _, ch := range c.children {
		ord = number(ch, ord, tree)
	}
	return ord
}

// Root returns the topmost ancestor of n (the node itself if parentless).
func (n *Node) Root() *Node {
	r := n
	for r.Parent != nil {
		r = r.Parent
	}
	return r
}

// Clone deep-copies the subtree rooted at n into a fresh tree with new
// identity but identical ordinals — this is the call-by-value copy that
// XRPC parameter marshaling performs (§2.2, "Call-by-Value"). The copy
// of a sealed root keeps its Shape. The copy of a lazy node of which
// nothing is built yet is a lazy node over the same bytes: Clone builds
// only an item root that named child steps have partly built.
func (n *Node) Clone() *Node {
	c := n.cloneRec()
	c.Parent = nil
	c.Seal()
	if n.Parent == nil && n.tree != nil {
		c.tree.shape = n.tree.shape
	}
	return c
}

func (n *Node) cloneRec() *Node {
	c := &Node{Kind: n.Kind, Name: n.Name, Value: n.Value, TypeAnn: n.TypeAnn}
	for _, a := range n.Attrs {
		ac := &Node{Kind: AttributeNode, Name: a.Name, Value: a.Value, Parent: c}
		c.Attrs = append(c.Attrs, ac)
	}
	if l := n.lazy; l != nil && l.state.Load() == unbuilt {
		c.lazy = l.copy()
		return c
	}
	kids := n.Children()
	if len(kids) > 0 {
		c.children = make([]*Node, len(kids))
	}
	for i, ch := range kids {
		cc := ch.cloneRec()
		cc.Parent = c
		c.children[i] = cc
	}
	return c
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// ChildElements returns the element children of n.
func (n *Node) ChildElements() []*Node {
	var out []*Node
	for _, c := range n.Children() {
		if c.Kind == ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// FindByOrd locates the node with the given preorder ordinal in the tree
// rooted at n (nil if absent). Used to re-locate pending-update-list
// targets in a cloned snapshot.
func (n *Node) FindByOrd(ord int) *Node {
	var found *Node
	var walk func(*Node) bool
	walk = func(c *Node) bool {
		if int(c.ord) == ord {
			found = c
			return true
		}
		for _, a := range c.Attrs {
			if int(a.ord) == ord {
				found = a
				return true
			}
		}
		for _, ch := range c.Children() {
			if walk(ch) {
				return true
			}
		}
		return false
	}
	walk(n.Root())
	return found
}

// DocOrderLess reports whether a precedes b in document order. Nodes in
// different trees are ordered by tree id (a stable, implementation-chosen
// order, as the XDM permits).
func DocOrderLess(a, b *Node) bool {
	at, bt := a.TreeID(), b.TreeID()
	if at != bt {
		return at < bt
	}
	return a.ord < b.ord
}

// SortDocOrderDedup sorts nodes into document order and removes
// duplicates (by node identity). This is the standard post-processing of
// XPath step results.
func SortDocOrderDedup(nodes []*Node) []*Node {
	if len(nodes) < 2 {
		return nodes
	}
	sorted := make([]*Node, len(nodes))
	copy(sorted, nodes)
	// insertion-free: use sort.Slice equivalent without importing sort in
	// hot path — nodes lists are small; use a simple merge sort via the
	// stdlib.
	sortNodes(sorted)
	out := sorted[:0]
	var prev *Node
	for _, n := range sorted {
		if n != prev {
			out = append(out, n)
		}
		prev = n
	}
	return out
}

func (n *Node) debugString() string {
	switch n.Kind {
	case ElementNode:
		return "<" + n.Name + ">"
	case AttributeNode:
		return "@" + n.Name + "=" + fmt.Sprintf("%q", n.Value)
	case TextNode:
		return fmt.Sprintf("text(%q)", n.Value)
	case DocumentNode:
		return "document(" + n.DocURI() + ")"
	case CommentNode:
		return fmt.Sprintf("comment(%q)", n.Value)
	default:
		return fmt.Sprintf("pi(%s,%q)", n.Name, n.Value)
	}
}
