package xdm

import (
	"strings"
	"unsafe"
)

// XMLWriter is the sink WriteNode streams XML text into. Both
// strings.Builder and the soap package's pooled wire encoder satisfy it;
// implementations must not fail (the returned errors exist only to match
// the io.StringWriter/io.ByteWriter signatures and are ignored).
type XMLWriter interface {
	WriteString(s string) (int, error)
	WriteByte(c byte) error
}

// SerializeNode renders a node as XML text, the XRPC wire representation
// of node-typed values.
func SerializeNode(n *Node) string {
	var b strings.Builder
	writeNode(&b, n)
	return b.String()
}

// WriteNode streams the XML serialization of n into w without building
// intermediate strings — the zero-copy path the SOAP wire encoder uses
// for node-typed parameters and results.
func WriteNode(w XMLWriter, n *Node) { writeNode(w, n) }

// SerializeSequence renders an XDM sequence the way fn:serialize /
// MonetDB result serialization does: nodes as XML, atomics as string
// values, adjacent atomics separated by a single space.
func SerializeSequence(s Sequence) string {
	var b strings.Builder
	prevAtomic := false
	for _, it := range s {
		if n, isNode := it.(*Node); isNode {
			writeNode(&b, n)
			prevAtomic = false
			continue
		}
		if prevAtomic {
			b.WriteByte(' ')
		}
		b.WriteString(it.StringValue())
		prevAtomic = true
	}
	return b.String()
}

// writeNode writes the content of a lazy node that is not built yet as
// the bytes it arrived in when they are canonical: what the walk over
// its children would write.
func writeNode(b XMLWriter, n *Node) {
	switch n.Kind {
	case DocumentNode:
		if raw, ok := n.raw(); ok {
			b.WriteString(unsafe.String(&raw[0], len(raw)))
			return
		}
		for _, c := range n.Children() {
			writeNode(b, c)
		}
	case ElementNode:
		b.WriteByte('<')
		b.WriteString(n.Name)
		for _, a := range n.Attrs {
			b.WriteByte(' ')
			b.WriteString(a.Name)
			b.WriteString(`="`)
			escapeAttr(b, a.Value)
			b.WriteByte('"')
		}
		raw, spliced := n.raw()
		var kids []*Node
		if !spliced {
			if kids = n.Children(); len(kids) == 0 {
				b.WriteString("/>")
				return
			}
		}
		b.WriteByte('>')
		if spliced {
			b.WriteString(unsafe.String(&raw[0], len(raw)))
		}
		for _, c := range kids {
			writeNode(b, c)
		}
		b.WriteString("</")
		b.WriteString(n.Name)
		b.WriteByte('>')
	case TextNode:
		escapeText(b, n.Value)
	case AttributeNode:
		// A bare attribute serializes as name="value" (only legal inside
		// the XRPC <attribute> wrapper).
		b.WriteString(n.Name)
		b.WriteString(`="`)
		escapeAttr(b, n.Value)
		b.WriteByte('"')
	case CommentNode:
		b.WriteString("<!--")
		b.WriteString(n.Value)
		b.WriteString("-->")
	case PINode:
		b.WriteString("<?")
		b.WriteString(n.Name)
		if n.Value != "" {
			b.WriteByte(' ')
			b.WriteString(n.Value)
		}
		b.WriteString("?>")
	}
}

// escapeText writes s with text-content escaping. It scans bytes and
// copies maximal clean chunks in one WriteString; all escaped characters
// are ASCII, so multi-byte runes pass through inside chunks untouched.
func escapeText(b XMLWriter, s string) {
	last := 0
	for i := 0; i < len(s); i++ {
		var rep string
		switch s[i] {
		case '<':
			rep = "&lt;"
		case '>':
			rep = "&gt;"
		case '&':
			rep = "&amp;"
		default:
			continue
		}
		b.WriteString(s[last:i])
		b.WriteString(rep)
		last = i + 1
	}
	b.WriteString(s[last:])
}

// EscapeAttr writes s with attribute-value escaping — the one
// authoritative escaping table for every attribute the wire format
// emits (node serialization here, envelope headers in the soap
// package). Besides the markup characters it escapes
// tab/newline/carriage-return as character references: literal
// attribute whitespace is normalized to spaces by conforming XML
// parsers, so leaving it raw would not round-trip.
func EscapeAttr(b XMLWriter, s string) { escapeAttr(b, s) }

func escapeAttr(b XMLWriter, s string) {
	last := 0
	for i := 0; i < len(s); i++ {
		var rep string
		switch s[i] {
		case '<':
			rep = "&lt;"
		case '&':
			rep = "&amp;"
		case '"':
			rep = "&quot;"
		case '\n':
			rep = "&#xA;"
		case '\r':
			rep = "&#xD;"
		case '\t':
			rep = "&#x9;"
		default:
			continue
		}
		b.WriteString(s[last:i])
		b.WriteString(rep)
		last = i + 1
	}
	b.WriteString(s[last:])
}

// DeepEqual implements fn:deep-equal over two sequences: pairwise equal
// atomics (by value comparison) and structurally equal nodes (name,
// kind, attributes as a set, children in order; comments/PIs ignored at
// element level per spec).
func DeepEqual(a, b Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		an, aIsNode := a[i].(*Node)
		bn, bIsNode := b[i].(*Node)
		if aIsNode != bIsNode {
			return false
		}
		if aIsNode {
			if !deepEqualNode(an, bn) {
				return false
			}
			continue
		}
		eq, err := CompareAtomic(a[i], b[i], OpEq)
		if err != nil || !eq {
			return false
		}
	}
	return true
}

func deepEqualNode(a, b *Node) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case TextNode, CommentNode:
		return a.Value == b.Value
	case PINode:
		return a.Name == b.Name && a.Value == b.Value
	case AttributeNode:
		return a.Name == b.Name && a.Value == b.Value
	}
	if a.Kind == ElementNode && a.Name != b.Name {
		return false
	}
	if len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for _, aa := range a.Attrs {
		v, ok := b.Attr(aa.Name)
		if !ok || v != aa.Value {
			return false
		}
	}
	ac := comparableChildren(a)
	bc := comparableChildren(b)
	if len(ac) != len(bc) {
		return false
	}
	for i := range ac {
		if !deepEqualNode(ac[i], bc[i]) {
			return false
		}
	}
	return true
}

func comparableChildren(n *Node) []*Node {
	var out []*Node
	for _, c := range n.Children() {
		if c.Kind == CommentNode || c.Kind == PINode {
			continue
		}
		out = append(out, c)
	}
	return out
}
