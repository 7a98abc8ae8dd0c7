package xdm

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"xrpc/internal/xmark"
)

// lazy_test.go holds the lazy build (lazy.go) to the eager one: the same
// accept/reject outcome, and on success the same tree node for node —
// ordinals included — whichever way it is read, and spliced bytes that
// are what WriteNode writes.

// nonCanonical are spellings WriteNode never writes, each of which a
// lazy node must build instead of splicing, next to canonical ones.
var nonCanonical = []string{
	`<r><a x='1'/><b/></r>`,
	`<r><a></a><b>t</b></r>`,
	`<r><a>&#60;&#x3e;</a><b>&lt;&gt;&amp;</b></r>`,
	`<r><a><![CDATA[<c>]]></a><b>x<![CDATA[]]>y</b></r>`,
	"<r><a>x\r\ny\rz</a><b a=\"\r\"/></r>",
	`<r ><a  x="1" /><b x = "2"></b ><c x="&#9;&#xA;&#xD;&quot;&lt;&amp;&apos;"/></r>`,
	`<r><a>x<?xml version="1.0"?>y</a>u<?xml?>v<!DOCTYPE d>w</r>`,
	`<r><?pi  v?><?pi?><?pi ?><?pi v?><!--c--><a>&gt;</a></r>`,
	`<r><a>one</b><c>two</c ></r>`,
	`<r>` + "\n  " + `<a>1</a>` + "\n  " + `<a><b><c/>t</b></a>` + "\n" + `</r>`,
	`<r a="1" b="2"/>`,
	`<r></r>`,
	`<r><!--only--></r>`,
}

// firstElement returns a byte-mode scanner whose current token is the
// first start tag of data (ok false when there is none).
func firstElement(data []byte) (Scanner, bool) {
	s := NewScanner(data, nil, nil)
	for {
		tok, err := s.Next()
		if err != nil || tok == TokEOF {
			return s, false
		}
		if tok == TokStart {
			return s, true
		}
	}
}

// lazyAgree decodes the first element of data eagerly and lazily and
// returns how they disagree ("" when they do not).
func lazyAgree(data []byte) string {
	es, ok := firstElement(data)
	if !ok {
		return ""
	}
	ls, _ := firstElement(data)
	var ea, la Arena
	eager, errE := es.BuildElement(&ea)
	lazy, errL := ls.LazyElement(&la)
	if (errE == nil) != (errL == nil) {
		return fmt.Sprintf("eager err %v, lazy err %v", errE, errL)
	}
	if errE != nil {
		return ""
	}
	if es.pos != ls.pos {
		return fmt.Sprintf("eager read to %d, lazy to %d", es.pos, ls.pos)
	}
	eager.Seal()
	lazy.Seal()
	want := SerializeNode(eager)
	// every span marked canonical writes itself, at every level
	if d := canonSpans(lazy); d != "" {
		return d
	}
	// unbuilt, spliced where canonical
	if got := SerializeNode(lazy); got != want {
		return fmt.Sprintf("lazy writes %q, eager %q", got, want)
	}
	// a copy of the unbuilt node, then the node with its first level
	// built, then fully built
	if d := sameTree(eager.Clone(), lazy.Clone()); d != "" {
		return "clone: " + d
	}
	// a named child step, which builds what it names
	for _, k := range eager.Children() {
		if k.Kind != ElementNode {
			continue
		}
		test := NodeTest{Name: k.Name}
		w, g := Step(eager, AxisChild, test), Step(lazy, AxisChild, test)
		if len(w) != len(g) {
			return fmt.Sprintf("step to %s: %d nodes, want %d", k.Name, len(g), len(w))
		}
		for i := range g {
			if g[i].ord != w[i].ord || g[i].Parent != lazy || len(g[i].Attrs) != len(w[i].Attrs) {
				return fmt.Sprintf("step to %s: node %d has ord %d, want %d", k.Name, i, g[i].ord, w[i].ord)
			}
		}
		if again := Step(lazy, AxisChild, test); len(again) > 0 && again[0] != g[0] {
			return fmt.Sprintf("step to %s built a second node", k.Name)
		}
		break
	}
	lazy.Children()
	if got := SerializeNode(lazy); got != want {
		return fmt.Sprintf("lazy with its children built writes %q, eager %q", got, want)
	}
	if d := canonSpans(lazy); d != "" {
		return d
	}
	return sameTree(eager, lazy)
}

// canonSpans checks every lazy node under n that is not built yet and
// marked canonical: its content, built on a copy, writes the span.
func canonSpans(n *Node) string {
	if l := n.lazy; l != nil && l.state.Load() == unbuilt {
		if !l.canon {
			return ""
		}
		c := n.cloneRec()
		var b strings.Builder
		for _, k := range buildAll(c).Children() {
			writeNode(&b, k)
		}
		if span := string(l.src.data[l.from:l.end]); b.String() != span {
			return fmt.Sprintf("span %q marked canonical, writes %q", span, b.String())
		}
		return ""
	}
	for _, c := range n.children {
		if d := canonSpans(c); d != "" {
			return d
		}
	}
	return ""
}

func buildAll(n *Node) *Node {
	for _, c := range n.Children() {
		buildAll(c)
	}
	return n
}

// sameTree compares two trees node for node: kind, name, value, ordinal,
// attributes, parent links and the number of children.
func sameTree(want, got *Node) string {
	if want.Kind != got.Kind || want.Name != got.Name || want.Value != got.Value || want.ord != got.ord {
		return fmt.Sprintf("node %s ord %d, want %s ord %d", got.debugString(), got.ord, want.debugString(), want.ord)
	}
	if len(want.Attrs) != len(got.Attrs) {
		return fmt.Sprintf("%s has %d attributes, want %d", got.debugString(), len(got.Attrs), len(want.Attrs))
	}
	for i, a := range got.Attrs {
		w := want.Attrs[i]
		if a.Name != w.Name || a.Value != w.Value || a.ord != w.ord || a.Parent != got || a.tree != got.tree {
			return fmt.Sprintf("attribute %s ord %d, want %s ord %d", a.debugString(), a.ord, w.debugString(), w.ord)
		}
	}
	wk, gk := want.Children(), got.Children()
	if len(wk) != len(gk) {
		return fmt.Sprintf("%s has %d children, want %d", got.debugString(), len(gk), len(wk))
	}
	for i := range gk {
		if gk[i].Parent != got || gk[i].tree != got.tree {
			return fmt.Sprintf("child %d of %s is not linked to it", i, got.debugString())
		}
		if d := sameTree(wk[i], gk[i]); d != "" {
			return d
		}
	}
	return ""
}

func TestLazyMatchesEager(t *testing.T) {
	texts := append([]string{filmDB}, nonCanonical...)
	for _, r := range parseRows {
		texts = append(texts, r.text)
	}
	for _, text := range texts {
		if d := lazyAgree([]byte(text)); d != "" {
			t.Errorf("%s\ninput: %q", d, text)
		}
	}
}

// TestLazySplicesCanonical pins which content is spliced: what WriteNode
// wrote is, every non-canonical spelling is not.
func TestLazySplicesCanonical(t *testing.T) {
	doc, err := ParseDocument("", filmDB)
	if err != nil {
		t.Fatal(err)
	}
	written := SerializeNode(doc.Children()[0])
	s, _ := firstElement([]byte(written))
	var a Arena
	root, err := s.LazyElement(&a)
	if err != nil {
		t.Fatal(err)
	}
	if !root.lazy.canon {
		t.Fatalf("content WriteNode wrote is not marked canonical: %q", written)
	}
	for _, text := range nonCanonical[:9] {
		s, _ := firstElement([]byte(text))
		root, err := s.LazyElement(&a)
		if err != nil {
			t.Fatal(err)
		}
		if root.lazy.canon {
			t.Errorf("non-canonical content marked canonical: %q", text)
		}
	}
}

// TestLazyBuildsOnlyWhatIsRead walks the reads of Q7_1 over one XMark
// closed_auction: a child and an attribute step build the root's first
// level only, and a copy of a child, written out, builds nothing.
func TestLazyBuildsOnlyWhatIsRead(t *testing.T) {
	auction := `<closed_auction><seller person="person1"/><buyer person="person2"/><price>12</price>` +
		`<annotation><author person="person3"/><description><text>gold <bold>ring</bold></text></description></annotation></closed_auction>`
	s, _ := firstElement([]byte(auction))
	var a Arena
	root, err := s.LazyElement(&a)
	if err != nil {
		t.Fatal(err)
	}
	root.Seal()
	buyer := Step(root, AxisChild, NodeTest{Name: "buyer"})
	if len(buyer) != 1 || buyer[0].Attrs[0].Value != "person2" {
		t.Fatalf("buyer = %v", NodeSeq(buyer))
	}
	ann := Step(root, AxisChild, NodeTest{Name: "annotation"})[0]
	if ann.lazy == nil || ann.lazy.state.Load() == built {
		t.Fatal("a child step built below the root's children")
	}
	el := NewElement("result")
	el.AppendChild(ann.Clone())
	el.Seal()
	if got, want := SerializeNode(el), "<result>"+auction[strings.Index(auction, "<annotation>"):len(auction)-len("</closed_auction>")]+"</result>"; got != want {
		t.Fatalf("copy writes %q, want %q", got, want)
	}
	if ann.lazy.state.Load() == built || el.children[0].lazy.state.Load() == built {
		t.Fatal("copying and writing a child built it")
	}
	if got := root.StringValue(); got != "12gold ring" {
		t.Fatalf("string value %q", got)
	}
	if ann.lazy.state.Load() != built {
		t.Fatal("the string value did not build the content it reads")
	}
}

// TestLazyConcurrentReaders writes and steps into one unbuilt item from
// two goroutines at once (make race runs it under the race detector).
func TestLazyConcurrentReaders(t *testing.T) {
	text := xmark.GenerateAuctions(xmark.PaperConfig(0.01))
	doc, err := ParseDocument("", text)
	if err != nil {
		t.Fatal(err)
	}
	want := SerializeNode(doc.Children()[0])
	wantDesc := len(Step(doc.Children()[0], AxisDescendant, NodeTest{KindTest: true, AnyKind: true}))
	for round := 0; round < 20; round++ {
		s, _ := firstElement([]byte(want))
		var a Arena
		root, err := s.LazyElement(&a)
		if err != nil {
			t.Fatal(err)
		}
		root.Seal()
		var wg sync.WaitGroup
		errs := make([]string, 2)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2; i++ {
					if (g+i)%2 == 0 {
						if got := SerializeNode(root); got != want {
							errs[g] = "written differently"
						}
					} else if got := len(Step(root, AxisDescendant, NodeTest{KindTest: true, AnyKind: true})); got != wantDesc {
						errs[g] = fmt.Sprintf("%d descendants, want %d", got, wantDesc)
					}
				}
			}()
		}
		wg.Wait()
		for _, e := range errs {
			if e != "" {
				t.Fatal(e)
			}
		}
	}
}

// FuzzLazyElement holds LazyElement to BuildElement on arbitrary text
// (lazyAgree): it accepts exactly what BuildElement accepts; built in
// full, or as far as a copy, the tree is BuildElement's node for node,
// ordinals included; and every content span it marks canonical is what
// WriteNode writes for the nodes built from it.
func FuzzLazyElement(f *testing.F) {
	f.Add(filmDB)
	for _, text := range nonCanonical {
		f.Add(text)
	}
	for _, r := range parseRows {
		f.Add(r.text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if d := lazyAgree([]byte(text)); d != "" {
			t.Fatalf("%s\ninput: %q", d, text)
		}
	})
}
