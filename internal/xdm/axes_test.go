package xdm_test

import (
	"slices"
	"testing"

	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

const filmDBY = `<films>
<film><name>The Rock</name><actor>Sean Connery</actor></film>
<film><name>Goldfinger</name><actor>Sean Connery</actor></film>
<film><name>Green Card</name><actor>Gerard Depardieu</actor></film>
</films>`

var allAxes = []xdm.Axis{
	xdm.AxisChild, xdm.AxisDescendant, xdm.AxisDescendantOrSelf, xdm.AxisAttribute,
	xdm.AxisSelf, xdm.AxisParent, xdm.AxisAncestor, xdm.AxisAncestorOrSelf,
	xdm.AxisFollowingSibling, xdm.AxisPrecedingSibling, xdm.AxisFollowing, xdm.AxisPreceding,
}

// axisTrees are the documents the generated queries read and constructed
// fragments, down to a lone attribute and a lone text node.
func axisTrees(t *testing.T) []*xdm.Node {
	t.Helper()
	var roots []*xdm.Node
	for _, d := range []struct{ name, text string }{
		{"filmDB.xml", filmDBY},
		{"persons.xml", xmark.GeneratePersons(xmark.Config{Persons: 5, Seed: 3})},
		{"mixed.xml", `<?lead pi?><!--lead--><r a="1" b="2">t<e a="3"><e/>u<!--c--><?p i?><f b="4">v</f></e><e/>w<g><e c="5"/></g></r>`},
	} {
		doc, err := xdm.ParseDocument(d.name, d.text)
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, doc)
	}
	frags, err := xdm.ParseFragment(`<closed_auction id="c1"><buyer person="p3"/><price>42.50</price><annotation><description><text>some <bold>words</bold></text></description></annotation></closed_auction>`)
	if err != nil {
		t.Fatal(err)
	}
	built := xdm.NewElement("built")
	built.SetAttr(xdm.NewAttribute("x", "y"))
	built.AppendChild(xdm.NewText("z"))
	roots = append(roots, frags[0], built, xdm.NewAttribute("k", "v"), xdm.NewText("alone"))
	for _, root := range roots {
		root.Seal()
	}
	return roots
}

// TestAxesPartitionTree checks xdm.Step — the one axis step both engines
// take — against the identities XPath defines the axes by, from every
// node of every tree as context, attributes included:
//
//   - ancestor, descendant, following, preceding and self partition the
//     tree's non-attribute nodes plus the context node;
//   - every axis delivers in its own order, forward or reverse document;
//   - parent inverts child ∪ attribute, descendant is the closure of
//     child, ancestor of parent, and the -or-self axes add self;
//   - the sibling axes split the parent's children around the context;
//   - a node test filters an axis, it does not change it.
func TestAxesPartitionTree(t *testing.T) {
	anyNode := xdm.NodeTest{KindTest: true, AnyKind: true}
	step := func(n *xdm.Node, a xdm.Axis) []*xdm.Node { return xdm.Step(n, a, anyNode) }
	steps := 0
	for _, root := range axisTrees(t) {
		var all, content []*xdm.Node // document order; content = all but attributes
		var collect func(*xdm.Node)
		collect = func(n *xdm.Node) {
			all, content = append(all, n), append(content, n)
			all = append(all, n.Attrs...)
			for _, c := range n.Children {
				collect(c)
			}
		}
		collect(root)
		tests := []xdm.NodeTest{
			{Name: "*"}, {Name: "no-such-name"},
			{KindTest: true, Kind: xdm.ElementNode}, {KindTest: true, Kind: xdm.AttributeNode},
			{KindTest: true, Kind: xdm.TextNode}, {KindTest: true, Kind: xdm.CommentNode},
			{KindTest: true, Kind: xdm.PINode}, {KindTest: true, Kind: xdm.DocumentNode},
		}
		for _, n := range all {
			if n.Name != "" && !slices.ContainsFunc(tests, func(nt xdm.NodeTest) bool { return nt.Name == n.Name }) {
				tests = append(tests, xdm.NodeTest{Name: n.Name})
			}
		}

		for _, n := range all {
			where := func(a xdm.Axis) string {
				return a.String() + " from " + n.Kind.String() + " " + n.Name + " of " + root.Kind.String() + " " + root.Name + root.DocURI()
			}
			res := map[xdm.Axis][]*xdm.Node{}
			for _, a := range allAxes {
				got := step(n, a)
				res[a] = got
				steps++
				inOrder := func(x, y *xdm.Node) bool { return xdm.DocOrderLess(x, y) }
				if a.Reverse() {
					inOrder = func(x, y *xdm.Node) bool { return xdm.DocOrderLess(y, x) }
				}
				for i := 1; i < len(got); i++ {
					if !inOrder(got[i-1], got[i]) {
						t.Errorf("%s: results %d and %d are out of axis order (reverse axis: %v)", where(a), i-1, i, a.Reverse())
					}
				}
				for _, nt := range tests {
					var want []*xdm.Node
					for _, m := range got {
						if nt.Matches(m, a) {
							want = append(want, m)
						}
					}
					if filtered := xdm.Step(n, a, nt); !slices.Equal(filtered, want) {
						t.Errorf("%s::%+v selects %d nodes, filtering %s::node() selects %d", where(a), nt, len(filtered), a, len(want))
					}
				}
			}

			// the partition
			var union []*xdm.Node
			for _, a := range []xdm.Axis{xdm.AxisAncestor, xdm.AxisDescendant, xdm.AxisFollowing, xdm.AxisPreceding, xdm.AxisSelf} {
				union = append(union, res[a]...)
			}
			want := content
			if n.Kind == xdm.AttributeNode {
				want = append(slices.Clone(content), n)
			}
			if got := xdm.SortDocOrderDedup(union); len(got) != len(union) || !slices.Equal(got, xdm.SortDocOrderDedup(want)) {
				t.Errorf("%s: ancestor %d + descendant %d + following %d + preceding %d + self hold %d distinct nodes; the tree has %d to partition",
					where(xdm.AxisSelf), len(res[xdm.AxisAncestor]), len(res[xdm.AxisDescendant]), len(res[xdm.AxisFollowing]), len(res[xdm.AxisPreceding]),
					len(got), len(want))
			}

			// parent is the inverse of child ∪ attribute
			for _, m := range append(slices.Clone(res[xdm.AxisChild]), res[xdm.AxisAttribute]...) {
				if p := step(m, xdm.AxisParent); len(p) != 1 || p[0] != n {
					t.Errorf("%s: %s %q is a child or attribute whose parent axis does not lead back", where(xdm.AxisChild), m.Kind, m.Name)
				}
			}
			switch p := res[xdm.AxisParent]; {
			case n == root && len(p) != 0:
				t.Errorf("%s: the root has a parent", where(xdm.AxisParent))
			case n != root && (len(p) != 1 ||
				!slices.Contains(step(p[0], xdm.AxisChild), n) && !slices.Contains(step(p[0], xdm.AxisAttribute), n)):
				t.Errorf("%s: the parent does not list the node among its children and attributes", where(xdm.AxisParent))
			}

			// closures and -or-self
			var desc []*xdm.Node
			for _, c := range res[xdm.AxisChild] {
				desc = append(append(desc, c), step(c, xdm.AxisDescendant)...)
			}
			var anc []*xdm.Node
			for _, p := range res[xdm.AxisParent] {
				anc = append(append(anc, p), step(p, xdm.AxisAncestor)...)
			}
			for _, c := range []struct {
				axis xdm.Axis
				want []*xdm.Node
			}{
				{xdm.AxisDescendant, desc},
				{xdm.AxisAncestor, anc},
				{xdm.AxisSelf, []*xdm.Node{n}},
				{xdm.AxisDescendantOrSelf, append([]*xdm.Node{n}, res[xdm.AxisDescendant]...)},
				{xdm.AxisAncestorOrSelf, append([]*xdm.Node{n}, res[xdm.AxisAncestor]...)},
			} {
				if !slices.Equal(res[c.axis], c.want) {
					t.Errorf("%s: got %v, its definition gives %v", where(c.axis), names(res[c.axis]), names(c.want))
				}
			}

			// the sibling axes split parent/child around the context; an
			// attribute and a root have no siblings
			var sibs, split []*xdm.Node
			if n.Kind != xdm.AttributeNode && n != root {
				sibs = step(res[xdm.AxisParent][0], xdm.AxisChild)
				split = []*xdm.Node{n}
			}
			for _, s := range res[xdm.AxisPrecedingSibling] {
				split = slices.Insert(split, 0, s)
			}
			split = append(split, res[xdm.AxisFollowingSibling]...)
			if !slices.Equal(split, sibs) {
				t.Errorf("%s: preceding-sibling, self, following-sibling give %v, parent/child gives %v", where(xdm.AxisFollowingSibling), names(split), names(sibs))
			}
		}
	}
	t.Logf("%d steps checked", steps)
}

func names(nodes []*xdm.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Kind.String() + ":" + n.Name
	}
	return out
}
