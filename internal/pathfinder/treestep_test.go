package pathfinder

import (
	"fmt"
	"slices"
	"testing"

	"xrpc/internal/interp"
	"xrpc/internal/shred"
	"xrpc/internal/soap"
	"xrpc/internal/store"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

var allAxes = []xdm.Axis{
	xdm.AxisChild, xdm.AxisDescendant, xdm.AxisDescendantOrSelf, xdm.AxisAttribute,
	xdm.AxisSelf, xdm.AxisParent, xdm.AxisAncestor, xdm.AxisAncestorOrSelf,
	xdm.AxisFollowingSibling, xdm.AxisPrecedingSibling, xdm.AxisFollowing, xdm.AxisPreceding,
}

// TestTreeStepMatchesStaircase compares, from every node of the
// documents the generated queries read and of constructed fragments, on
// all twelve axes and under name, wildcard and kind tests, the step
// taken on the tree (xdm.Step) with the staircase step on the shredded
// form mapped back to nodes. They always select the same nodes; the
// table it logs says on which axes also in the same order — the axes
// execStep may answer from the tree (treeStep) must be among those, and
// widening treeStep is a matter of reading that table.
func TestTreeStepMatchesStaircase(t *testing.T) {
	var roots []*xdm.Node
	for name, text := range map[string]string{
		"filmDB.xml":  filmDBY,
		"persons.xml": xmark.GeneratePersons(xmark.Config{Persons: 5, Seed: 3}),
		"mixed.xml":   `<?lead pi?><!--lead--><r a="1" b="2">t<e a="3"><e/>u<!--c--><?p i?><f b="4">v</f></e><e/>w<g><e c="5"/></g></r>`,
	} {
		doc, err := xdm.ParseDocument(name, text)
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

	sameOrder := map[xdm.Axis]bool{}
	for _, a := range allAxes {
		sameOrder[a] = true
	}
	steps := 0
	for _, root := range roots {
		d := shred.Shred(root)
		tests := []xdm.NodeTest{
			{Name: "*"},
			{KindTest: true, AnyKind: true},
			{KindTest: true, Kind: xdm.ElementNode},
			{KindTest: true, Kind: xdm.AttributeNode},
			{KindTest: true, Kind: xdm.TextNode},
			{KindTest: true, Kind: xdm.CommentNode},
			{KindTest: true, Kind: xdm.PINode},
			{KindTest: true, Kind: xdm.DocumentNode},
			{Name: "no-such-name"},
		}
		for _, name := range d.Name {
			if name != "" && !slices.ContainsFunc(tests, func(nt xdm.NodeTest) bool { return nt.Name == name }) {
				tests = append(tests, xdm.NodeTest{Name: name})
			}
		}
		for pre := 0; pre < d.Len(); pre++ {
			n := d.Node(pre)
			for _, axis := range allAxes {
				for _, test := range tests {
					var staircase []*xdm.Node
					for _, q := range d.Step([]int{pre}, axis, test) {
						staircase = append(staircase, d.Node(q))
					}
					tree := xdm.Step(n, axis, test)
					steps++
					if slices.Equal(tree, staircase) {
						continue
					}
					sameOrder[axis] = false
					if !slices.Equal(xdm.SortDocOrderDedup(slices.Clone(tree)), staircase) {
						t.Fatalf("%s::%+v from node %d (%s %q) of %s: the tree step selects %d nodes, the staircase step %d others",
							axis, test, pre, n.Kind, n.Name, root.Name, len(tree), len(staircase))
					}
				}
			}
		}
	}
	table := ""
	for _, a := range allAxes {
		order := "same order"
		if !sameOrder[a] {
			order = "same nodes, tree step in axis (reverse document) order"
		}
		table += fmt.Sprintf("\n  %-18s %s", a, order)
		if treeStep(a) && !sameOrder[a] {
			t.Errorf("execStep takes %s steps on the tree, where they come in another order than staircase steps", a)
		}
	}
	t.Logf("%d steps compared; tree step against staircase step:%s", steps, table)
}

// shipped is what execute at hands the engine for seq: every node a
// fresh fragment of its own, as the response decoder builds them.
func shipped(t *testing.T, seq xdm.Sequence) xdm.Sequence {
	t.Helper()
	resp, err := soap.DecodeResponse(soap.EncodeResponse(&soap.Response{Results: []xdm.Sequence{seq}}))
	if err != nil {
		t.Fatal(err)
	}
	return resp.Results[0]
}

// TestShippedSubtreesAreNotShredded: Q7_1, and the same join spelled as
// a filter (strategies.QShardedSemiJoinData, verbatim), read one key
// path and one child from each shipped closed_auction and one attribute
// from each person. Only persons.xml — scanned with a descendant step —
// is shredded; no shipped subtree is.
func TestShippedSubtreesAreNotShredded(t *testing.T) {
	cfg := xmark.PaperConfig(0.02)
	cfg.Seed = 1
	st := store.New()
	if err := st.LoadXML("persons.xml", xmark.GeneratePersons(cfg)); err != nil {
		t.Fatal(err)
	}
	auctions, err := xdm.ParseDocument("auctions.xml", xmark.GenerateAuctions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	var closed xdm.Sequence
	for _, ca := range xdm.Step(auctions, xdm.AxisDescendant, xdm.NodeTest{Name: "closed_auction"}) {
		closed = append(closed, ca)
	}
	if len(closed) < cfg.Matches {
		t.Fatalf("generated %d closed auctions", len(closed))
	}
	persons, err := st.Doc("persons.xml")
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t)
	if err := f.reg.Register(`module namespace b = "functions_b";
declare function b:Q_B1() as node()* { doc("auctions.xml")//closed_auction };`, "http://example.org/b.xq"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, query string }{
		{"Q7_1", q71},
		{"QShardedSemiJoinData", `
import module namespace b="functions_b" at "http://example.org/b.xq";
for $p in doc("persons.xml")//person
let $all := execute at {"xrpc://cluster"} {b:Q_B1()}
let $ca := $all[buyer/@person = string($p/@id)]
return if(empty($ca)) then ()
       else <result>{$p, $ca/annotation}</result>`},
	} {
		ec := &ExecCtx{Docs: st, Bulk: &callRecorder{reply: shipped(t, closed)}}
		ref := interp.New(st, f.reg, &callRecorder{reply: shipped(t, closed)})
		pfSeq, pfErr, iSeq, iErr := bothEngines(f, ref, tc.query, ec)
		if pfErr != nil || iErr != nil {
			t.Fatalf("%s: pathfinder err %v, interp err %v", tc.name, pfErr, iErr)
		}
		if got, want := xdm.SerializeSequence(pfSeq), xdm.SerializeSequence(iSeq); got != want || len(pfSeq) == 0 {
			t.Fatalf("%s: %d results, the interpreter has %d; serializations equal: %v", tc.name, len(pfSeq), len(iSeq), got == want)
		}
		if _, ok := ec.shreds[persons]; len(ec.shreds) != 1 || !ok {
			t.Errorf("%s shredded %d trees (persons.xml among them: %v), want persons.xml alone — %d subtrees were shipped",
				tc.name, len(ec.shreds), ok, len(closed))
		}
	}
}
