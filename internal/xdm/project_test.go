package xdm

import (
	"fmt"
	"strings"
	"testing"
)

// project_test.go holds the pruned write (project.go) to an eager
// reference that builds the tree, deletes the children a projection does
// not keep and writes what is left, and the word-at-a-time escapers to
// the byte loops they replaced.

// pruneRef is the reference: a built copy of n with every child p does
// not keep deleted, level by level.
func pruneRef(n *Node, p *Projection) *Node {
	c := buildAll(n.Clone())
	var del func(n *Node, p *Projection)
	del = func(n *Node, p *Projection) {
		var kept []*Node
		for _, k := range n.Children() {
			if k.Kind != ElementNode {
				continue
			}
			for i, name := range p.names {
				if k.Name == name {
					kept = append(kept, k)
					if p.subs[i] != nil {
						del(k, p.subs[i])
					}
				}
			}
		}
		n.SetChildren(kept)
	}
	del(c, p)
	return c
}

// projectAgree writes the first element of text, and the document text
// parses to, under the projection set, eagerly and lazily built, and
// returns how a write disagrees with the reference ("" when none does).
func projectAgree(set, text string) string {
	p, err := ParseProjection(set)
	if err != nil {
		return ""
	}
	if back, err := ParseProjection(p.String()); err != nil || back.String() != p.String() {
		return fmt.Sprintf("set %q is written %q, which reads back as %v (err %v)", set, p.String(), back, err)
	}
	doc, err := ParseDocument("", text)
	if err != nil {
		return ""
	}
	written := func(n *Node) string {
		var b strings.Builder
		WriteProjected(&b, n, p)
		return b.String()
	}
	for _, n := range append([]*Node{doc}, doc.Children()...) {
		if want, got := SerializeNode(pruneRef(n, p)), written(n); got != want {
			return fmt.Sprintf("%s under %q writes %q, want %q", n.Kind, p, got, want)
		}
	}
	s, ok := firstElement([]byte(text))
	if !ok {
		return ""
	}
	var a Arena
	lazy, err := s.LazyElement(&a)
	if err != nil {
		return ""
	}
	lazy.Seal()
	if want, got := SerializeNode(pruneRef(lazy, p)), written(lazy); got != want {
		return fmt.Sprintf("lazy item under %q writes %q, want %q", p, got, want)
	}
	return ""
}

var projectRows = []struct{ set, text, want string }{
	{"annotation buyer",
		`<closed_auction id="c1"><seller person="p1"/><buyer person="p2"/>t<price>3</price><annotation><a>x</a></annotation><!--c--></closed_auction>`,
		`<closed_auction id="c1"><buyer person="p2"/><annotation><a>x</a></annotation></closed_auction>`},
	{".", `<r a="1"><b/>text</r>`, `<r a="1"/>`},
	{"a/b", `<r><a x="1"><b>1</b><c>2</c>t</a><a/><b/></r>`, `<r><a x="1"><b>1</b></a><a/></r>`},
	{"a a/b", `<r><a><b>1</b><c>2</c></a></r>`, `<r><a><b>1</b><c>2</c></a></r>`},
	{"a/b a", `<r><a><b>1</b><c>2</c></a></r>`, `<r><a><b>1</b><c>2</c></a></r>`},
	{"z", `<r><a/></r>`, `<r/>`},
	{"site", `<site><regions/></site>`, `<site/>`},
}

func TestWriteProjected(t *testing.T) {
	for _, r := range projectRows {
		frag, err := ParseFragment(r.text)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ParseProjection(r.set)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		WriteProjected(&b, frag[0], p)
		if b.String() != r.want {
			t.Errorf("%q under %q: %q, want %q", r.text, r.set, b.String(), r.want)
		}
		if d := projectAgree(r.set, r.text); d != "" {
			t.Error(d)
		}
	}
	// a document item keeps only the children the set names
	doc, _ := ParseDocument("", `<site><a/></site>`)
	for set, want := range map[string]string{"site": `<site><a/></site>`, "other": ``, "site/b": `<site/>`} {
		p, _ := ParseProjection(set)
		var b strings.Builder
		WriteProjected(&b, doc, p)
		if b.String() != want {
			t.Errorf("document under %q: %q, want %q", set, b.String(), want)
		}
	}
}

func TestParseProjection(t *testing.T) {
	for set, want := range map[string]string{
		"buyer annotation":  "annotation buyer",
		".":                 ".",
		"a/b a/c b":         "a/b a/c b",
		"a/b/c a/b a/b/d":   "a/b",
		"a/b/c a/b/d":       "a/b/c a/b/d",
		"é/ü":               "é/ü",
		"annotation buyer ": "",
	} {
		p, err := ParseProjection(set)
		switch {
		case want == "" && err == nil:
			t.Errorf("%q parses as %q", set, p)
		case want != "" && err != nil:
			t.Errorf("%q: %v", set, err)
		case want != "" && p.String() != want:
			t.Errorf("%q is written %q, want %q", set, p, want)
		}
	}
	for _, bad := range []string{"", " ", "a  b", "a/", "/a", "a//b", "b:a", "a/.", "1a", "a b/", "*", "@a"} {
		if p, err := ParseProjection(bad); err == nil {
			t.Errorf("%q parses as %q", bad, p)
		}
	}
	if got := NewProjection([][]string{{"a", "b"}, {}, {"a"}, {"c", "d"}}).String(); got != "a c/d" {
		t.Errorf("NewProjection: %q", got)
	}
}

// TestEscapeMatchesByteLoop puts every byte value at every offset mod 8
// of a word-read run and of its byte-read tail, alone and before a
// second byte to escape, and compares both escapers with the byte loops.
func TestEscapeMatchesByteLoop(t *testing.T) {
	ref := func(s string, attr bool) string {
		var b strings.Builder
		for i := 0; i < len(s); i++ {
			c := s[i]
			switch {
			case c == '<':
				b.WriteString("&lt;")
			case c == '&':
				b.WriteString("&amp;")
			case c == '>' && !attr:
				b.WriteString("&gt;")
			case c == '"' && attr:
				b.WriteString("&quot;")
			case c == '\n' && attr:
				b.WriteString("&#xA;")
			case c == '\r' && attr:
				b.WriteString("&#xD;")
			case c == '\t' && attr:
				b.WriteString("&#x9;")
			default:
				b.WriteByte(c)
			}
		}
		return b.String()
	}
	for c := 0; c < 256; c++ {
		for off := 0; off < 24; off++ {
			for _, tail := range []string{"", "<", "\x01>"} {
				buf := []byte(strings.Repeat("abcdefgh", 3))
				buf[off] = byte(c)
				s := string(buf[:off+1]) + tail + string(buf[off+1:])
				var text, attr strings.Builder
				escapeText(&text, s)
				escapeAttr(&attr, s)
				if want := ref(s, false); text.String() != want {
					t.Fatalf("escapeText(%q) = %q, want %q", s, text.String(), want)
				}
				if want := ref(s, true); attr.String() != want {
					t.Fatalf("escapeAttr(%q) = %q, want %q", s, attr.String(), want)
				}
			}
		}
	}
}

// FuzzProjection holds the set's parser and the pruned write to the
// reference (projectAgree): a set that parses is written in a form that
// reads back the same, and every item written under it — element or
// document, eagerly or lazily built — is the reference's pruned copy.
func FuzzProjection(f *testing.F) {
	for _, r := range projectRows {
		f.Add(r.set, r.text)
	}
	f.Add("a/b c", filmDB)
	f.Add("film/actor", filmDB)
	f.Fuzz(func(t *testing.T, set, text string) {
		if d := projectAgree(set, text); d != "" {
			t.Fatalf("%s\nset %q, input %q", d, set, text)
		}
	})
}
