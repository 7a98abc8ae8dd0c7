package xdm

import (
	"encoding/xml"
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"xrpc/internal/xmark"
)

// parseRows is every rule of the tree ParseDocument builds and every
// input class it rejects, checked against the tokenizer and the
// encoding/xml reference alike (TestParseShapes) and seeding
// FuzzParseDocument. want is the tree's dump ("" for a rejected input),
// err a word the tokenizer's error must hold; fragment rows also read
// the text with ParseFragment.
var parseRows = []struct {
	name, text, want, err string
	fragment              bool
}{
	{name: "whitespace outside root", text: "\n  <a/>\n", want: "a()"},
	{name: "top-level text kept", text: "x <a/> y", want: `"x " a() " y"`},
	{name: "whitespace-only token dropped", text: "x<![CDATA[ ]]><a/>", want: `"x" a()`},
	{name: "text merges across CDATA", text: "<a>one<![CDATA[<two>]]>three</a>", want: `a("one<two>three")`},
	{name: "text merges across entity references", text: "<a>one&amp;two</a>", want: `a("one&two")`},
	{name: "comment splits text", text: "<a>x<!--c-->y</a>", want: `a("x" !"c" "y")`},
	{name: "XML declaration dropped", text: `<?xml version="1.0" encoding="UTF-8"?><a/>`, want: "a()"},
	{name: "DOCTYPE skipped", text: `<!DOCTYPE a SYSTEM "a>b"><a/>`, want: "a()"},
	{name: "DOCTYPE with internal subset skipped", text: `<!DOCTYPE a [<!ENTITY e "v>"> <!-- <c> --> <!ELEMENT a ANY>]><a/>`, want: "a()"},
	{name: "character and entity references", text: `<a b="&#65;&lt;&#x3e;">&#x42;&gt;&quot;&apos;&#233;</a>`, want: `a[b="A<>"]("B>\"'é")`},
	{name: "line endings normalized", text: "<a b=\"x\r\ny\rz\">1\r\n2\r3<![CDATA[\r\n]]></a>", want: `a[b="x\ny\nz"]("1\n2\n3\n")`},
	{name: "comments and PIs kept verbatim", text: "<a><!--x\r\ny--><?go run\r?></a>", want: `a(!"x\r\ny" ?go"run\r")`},
	{name: "prefixed names kept", text: `<xrpc:request xmlns:xrpc="http://monetdb.cwi.nl/XQuery" xrpc:module="films"/>`,
		want: `xrpc:request[xmlns:xrpc="http://monetdb.cwi.nl/XQuery" xrpc:module="films"]()`},
	{name: "colon at either end kept", text: `<:a b:="1"/>`, want: `:a[b:="1"]()`},
	{name: "several roots", text: `<a/>t<b x="1"><c/></b><!--n-->`, want: `a() "t" b[x="1"](c()) !"n"`, fragment: true},
	{name: "unbalanced end tag", text: "</a>", err: "unbalanced end tag"},
	{name: "unclosed element", text: "<a><b></a>", err: "unclosed element"},
	{name: "unquoted value", text: "<a b=c/>", err: "unquoted value"},
	{name: "NUL", text: "<a>\x00</a>", err: "illegal character"},
	{name: "NUL reference", text: "<a>&#0;</a>", err: "illegal character"},
	{name: "invalid UTF-8", text: "<a>\xff</a>", err: "invalid UTF-8"},
	{name: "U+FFFE", text: "<a b=\"￾\"/>", err: "illegal character"},
	{name: "< in attribute value", text: `<a b="<"/>`, err: "unescaped <"},
	{name: "-- in comment", text: "<!--a--b--><a/>", err: `"--" in comment`},
	{name: "comment ending in -", text: "<!-----><a/>", err: `"--" in comment`},
	{name: "]]> in text", text: "<a>]]></a>", err: "unescaped ]]>"},
	{name: "name starting with a digit", text: "<1a/>", err: "invalid XML name"},
	{name: "name with two colons", text: "<a:b:c/>", err: "invalid XML name"},
	{name: "backslash after a name", text: `<a\b/>`, err: "malformed attribute"},
	{name: "non-ASCII name outside the tables", text: "<a×/>", err: "invalid XML name"},
	{name: "encoding other than UTF-8", text: `<?xml version="1.0" encoding="latin1"?><a/>`, err: "unsupported encoding"},
	{name: "version 1.1", text: `<?xml version="1.1"?><a/>`, err: "unsupported version"},
	{name: "empty directive", text: "<!><a/>", err: "unterminated directive"},
	{name: "<!- without a second -", text: "<!-x><a/>", err: "invalid markup"},
	{name: "<![ without CDATA[", text: "<![x]><a/>", err: "invalid markup"},
	{name: "uppercase X in a character reference", text: "<a>&#X41;</a>", err: "invalid character reference"},
	{name: "surrogate reference", text: "<a>&#xD800;</a>", err: "invalid character reference"},
	{name: "mismatched end tag", text: "<a></b>", want: "a()"},
	{name: "name first met in an end tag", text: "<r><a></c><c/></r>", want: "r(a() c())"},
	{name: "invalid name in an end tag", text: "<a></1a>", err: "invalid XML name"},
	{name: "end tag name with two colons", text: "<a></a:b:c>", err: "invalid XML name"},
	{name: "200 names", text: manyNamesText, want: manyNamesTree},
}

// manyNamesText nests 200 differently named elements, each with its
// own attribute, then repeats them as empty siblings: more names, and
// deeper nesting, than any fixed table of recent names holds.
var manyNamesText, manyNamesTree = func() (string, string) {
	var text, tree strings.Builder
	text.WriteString("<r>")
	tree.WriteString("r(")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&text, `<n%d a%d="v">`, i, i)
		fmt.Fprintf(&tree, `n%d[a%d="v"](`, i, i)
	}
	for i := 199; i >= 0; i-- {
		fmt.Fprintf(&text, "</n%d>", i)
		tree.WriteString(")")
	}
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&text, `<n%d a%d="w"/>`, i, i)
		fmt.Fprintf(&tree, ` n%d[a%d="w"]()`, i, i)
	}
	text.WriteString("</r>")
	tree.WriteString(")")
	return text.String(), tree.String()
}()

// surrogateRef is the one place the tokenizer may reject what
// encoding/xml accepts: a character reference to a surrogate, which
// XML 1.0's Legal Character constraint forbids and encoding/xml reads
// as U+FFFD.
func surrogateRef(text string) bool {
	for _, m := range charRef.FindAllStringSubmatch(text, -1) {
		base, digits := 10, m[1]
		if digits[0] == 'x' {
			base, digits = 16, digits[1:]
		}
		n, err := strconv.ParseUint(digits, base, 64)
		if err == nil && 0xD800 <= n && n <= 0xDFFF {
			return true
		}
	}
	return false
}

var charRef = regexp.MustCompile(`&#(x[0-9a-fA-F]+|[0-9]+);`)

// dump writes a tree's exact structure: an element as
// name[attr="v" …](children), text as a quoted string, a comment as
// !"…", a PI as ?target"…"; the document node as its children.
func dump(nodes ...*Node) string {
	var b strings.Builder
	var rec func(n *Node)
	rec = func(n *Node) {
		switch n.Kind {
		case ElementNode:
			b.WriteString(n.Name)
			if len(n.Attrs) > 0 {
				b.WriteByte('[')
				for i, a := range n.Attrs {
					if i > 0 {
						b.WriteByte(' ')
					}
					fmt.Fprintf(&b, "%s=%q", a.Name, a.Value)
				}
				b.WriteByte(']')
			}
			b.WriteByte('(')
			defer b.WriteByte(')')
		case TextNode:
			fmt.Fprintf(&b, "%q", n.Value)
		case CommentNode:
			fmt.Fprintf(&b, "!%q", n.Value)
		case PINode:
			fmt.Fprintf(&b, "?%s%q", n.Name, n.Value)
		}
		for i, c := range n.Children {
			if i > 0 {
				b.WriteByte(' ')
			}
			rec(c)
		}
	}
	for i, n := range nodes {
		if i > 0 {
			b.WriteByte(' ')
		}
		rec(n)
	}
	return b.String()
}

// agree reports how ParseDocument and the reference differ on text, ""
// when they agree: on accept/reject — but for surrogateRef — and on the
// exact tree.
func agree(text string) string {
	got, err := ParseDocument("t", text)
	want, refErr := refParseDocument("t", text)
	switch {
	case err != nil && refErr != nil, err != nil && surrogateRef(text):
		return ""
	case err != nil || refErr != nil:
		return fmt.Sprintf("tokenizer err = %v, reference err = %v", err, refErr)
	case dump(got) != dump(want):
		return fmt.Sprintf("tokenizer tree %s\nreference tree %s", dump(got), dump(want))
	}
	if got, want := tagNames(text), refTagNames(text); !slices.Equal(got, want) {
		return fmt.Sprintf("tokenizer tags %q\nreference tags %q", got, want)
	}
	return ""
}

// tagNames lists the tags of a text the tokenizer accepts as it names
// them: "<a" for a start tag, "/a" for an end tag, both for a
// self-closing one.
func tagNames(text string) []string {
	var tags []string
	for s := NewScanner([]byte(text), nil, nil); ; {
		tok, err := s.Next()
		switch {
		case err != nil || tok == TokEOF:
			return tags
		case tok == TokStart:
			tags = append(tags, "<"+s.Name)
			if s.SelfClose {
				tags = append(tags, "/"+s.Name)
			}
		case tok == TokEnd:
			tags = append(tags, "/"+s.Name)
		}
	}
}

// refTagNames is tagNames read by encoding/xml's RawToken, which names
// an end tag by its own text, unmatched against its start tag.
func refTagNames(text string) []string {
	var tags []string
	for dec := xml.NewDecoder(strings.NewReader(text)); ; {
		tok, err := dec.RawToken()
		if err != nil {
			return tags
		}
		switch t := tok.(type) {
		case xml.StartElement:
			tags = append(tags, "<"+rawName(t.Name))
		case xml.EndElement:
			tags = append(tags, "/"+rawName(t.Name))
		}
	}
}

func TestParseShapes(t *testing.T) {
	for _, r := range parseRows {
		t.Run(r.name, func(t *testing.T) {
			if d := agree(r.text); d != "" {
				t.Fatal(d)
			}
			doc, err := ParseDocument("t", r.text)
			if r.err != "" {
				if err == nil || !strings.HasPrefix(err.Error(), "xml: ") || !strings.Contains(err.Error(), r.err) {
					t.Fatalf("err = %v, want an xml: error about %q", err, r.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := dump(doc); got != r.want {
				t.Fatalf("tree %s, want %s", got, r.want)
			}
			if !r.fragment {
				return
			}
			frags, err := ParseFragment(r.text)
			if err != nil {
				t.Fatal(err)
			}
			if got := dump(frags...); got != r.want {
				t.Fatalf("fragments %s, want %s", got, r.want)
			}
			for _, f := range frags {
				if f.Parent != nil || f.Root() != f {
					t.Fatalf("fragment %s is not its own tree", dump(f))
				}
			}
		})
	}
}

// TestEndTagNames: an end tag is named by its own text, whether or not
// it spells the start tag it closes.
func TestEndTagNames(t *testing.T) {
	for text, want := range map[string][]string{
		"<a></b>":                   {"<a", "/b"},
		"<r><a></c><c/></r>":        {"<r", "<a", "/c", "<c", "/c", "/r"},
		"<a><a><b/></a><b></c></a>": {"<a", "<a", "<b", "/b", "/a", "<b", "/c", "/a"},
	} {
		if got := tagNames(text); !slices.Equal(got, want) {
			t.Errorf("%s: tags %q, want %q", text, got, want)
		}
	}
}

// TestBuildSlicesExact: every Children and Attrs slice of a built tree
// has cap == len, so appending to one node's slice copies it out and
// leaves the slices carved next to it alone.
func TestBuildSlicesExact(t *testing.T) {
	var b strings.Builder
	b.WriteString(`<r a="1" b="2"><x>t<y/><z c="3" d="4"/></x><x/>`)
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, `<w n="%d"><v/>s<v/><v k="1"/></w>`, i)
	}
	b.WriteString("<big>" + strings.Repeat("<u/>", 100) + "</big></r>")
	text := b.String()
	parse := func() []*Node {
		doc, err := ParseDocument("t", text)
		if err != nil {
			t.Fatal(err)
		}
		var nodes []*Node
		var walk func(*Node)
		walk = func(n *Node) {
			nodes = append(nodes, n)
			nodes = append(nodes, n.Attrs...)
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(doc)
		return nodes
	}
	nodes := parse()
	for _, n := range nodes {
		if cap(n.Children) != len(n.Children) || cap(n.Attrs) != len(n.Attrs) {
			t.Fatalf("%s: Children len %d cap %d, Attrs len %d cap %d", dump(n),
				len(n.Children), cap(n.Children), len(n.Attrs), cap(n.Attrs))
		}
	}
	for i := range nodes {
		if nodes[i].Kind != ElementNode {
			continue
		}
		nodes := parse()
		kids := make([][]*Node, len(nodes))
		attrs := make([][]*Node, len(nodes))
		for j, n := range nodes {
			kids[j], attrs[j] = slices.Clone(n.Children), slices.Clone(n.Attrs)
		}
		nodes[i].AppendChild(NewElement("added"))
		nodes[i].SetAttr(NewAttribute("added", "1"))
		for j, n := range nodes {
			if j != i && (!slices.Equal(n.Children, kids[j]) || !slices.Equal(n.Attrs, attrs[j])) {
				t.Fatalf("appending to %s changed the slices of %s", dump(nodes[i]), dump(n))
			}
		}
		if got := dump(nodes[i]); !strings.HasSuffix(got, "added())") {
			t.Fatalf("appended child missing: %s", got)
		}
	}
}

// FuzzParseDocument holds the tokenizer to the encoding/xml reference
// on arbitrary text: both accept or both reject (but for surrogateRef),
// and what both accept is the same tree, node for node — kind, name,
// value, attributes in order — comments and PIs included, which
// fn:deep-equal would pass over, and the same tags by the same names,
// an end tag's name its own (only balance is checked, not that it
// matches its start tag's).
func FuzzParseDocument(f *testing.F) {
	for _, r := range parseRows {
		f.Add(r.text)
	}
	f.Add(filmDB)
	f.Fuzz(func(t *testing.T, text string) {
		if d := agree(text); d != "" {
			t.Fatalf("%s\ninput: %q", d, text)
		}
	})
}

// BenchmarkParseDocumentXMark parses an XMark auctions document at
// scale 0.12: the closed_auction items pushdown_scan ships, about
// 0.6 MB, read as one document.
func BenchmarkParseDocumentXMark(b *testing.B) {
	text := xmark.GenerateAuctions(xmark.PaperConfig(0.12))
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseDocument("auctions.xml", text); err != nil {
			b.Fatal(err)
		}
	}
}
