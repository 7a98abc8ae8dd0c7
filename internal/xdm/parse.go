package xdm

import (
	"strings"
	"unsafe"
)

// ParseDocument parses XML text into a sealed document node with the
// given URI. Namespace prefixes are kept verbatim in node names (the
// reproduction treats QNames lexically, which suffices for the paper's
// workloads and the XRPC envelope).
func ParseDocument(uri, text string) (*Node, error) {
	var a Arena
	doc := a.Document(uri)
	if err := parseInto(&a, doc, text); err != nil {
		return nil, err
	}
	doc.Seal()
	return doc, nil
}

// ParseFragment parses XML text that may lack a single root and returns
// the parsed top-level nodes (each sealed as its own fragment tree).
func ParseFragment(text string) ([]*Node, error) {
	var a Arena
	doc := a.Document("")
	if err := parseInto(&a, doc, text); err != nil {
		return nil, err
	}
	for _, c := range doc.children {
		c.Parent = nil
		c.Seal()
	}
	return doc.children, nil
}

// parseInto builds all of text under doc. A byte-mode scanner only reads
// its input, so it scans the string's bytes in place.
func parseInto(a *Arena, doc *Node, text string) error {
	s := NewScanner(unsafe.Slice(unsafe.StringData(text), len(text)), nil, nil)
	return s.build(a, doc, -1)
}

// BuildElement builds the element whose start tag is the scanner's
// current token, with its whole subtree, as a fresh unsealed tree.
func (s *Scanner) BuildElement(a *Arena) (*Node, error) {
	el := s.element(a)
	if err := s.BuildChildren(a, el); err != nil {
		return nil, err
	}
	return el, nil
}

// BuildChildren appends the content of the element whose start tag is
// the scanner's current token to parent, through the element's end tag;
// parent's children are then one exact-length slice.
func (s *Scanner) BuildChildren(a *Arena, parent *Node) error {
	if s.SelfClose {
		return nil
	}
	return s.build(a, parent, s.depth-1)
}

func (s *Scanner) element(a *Arena) *Node {
	el := a.Element(s.Name)
	el.Attrs = a.slots(len(s.Attrs))
	for i, at := range s.Attrs {
		attr := a.Attribute(at.Name, at.Value)
		attr.Parent = el
		el.Attrs[i] = attr
	}
	return el
}

// build appends the tokens to parent until an end tag takes the depth
// back to target (-1: until the input ends). Adjacent text merges
// (across CDATA sections), whitespace-only text outside every element
// is dropped, and so is the XML declaration. The children of the open
// elements wait in the arena's scratch until their element's end, which
// carves them an exact-length slice. Iterative (explicit stack), so
// arbitrarily deep documents cannot overflow the Go stack.
func (s *Scanner) build(a *Arena, parent *Node, target int) error {
	open, kids := len(a.open), len(a.kids)
	defer func() { a.open, a.kids = a.open[:open], a.kids[:kids] }()
	a.open = append(a.open, openElem{parent, kids})
	a.kids = append(a.kids, parent.children...)
	for {
		tok, err := s.Next()
		if err != nil {
			return err
		}
		switch tok {
		case TokEOF:
			a.close()
			return nil
		case TokStart:
			child := s.element(a)
			a.add(child)
			if !s.SelfClose {
				a.open = append(a.open, openElem{child, len(a.kids)})
			}
		case TokEnd:
			a.close()
			if s.depth == target {
				return nil
			}
		case TokText:
			v, err := s.TextValue()
			if err != nil {
				return err
			}
			if s.depth == 0 && strings.TrimSpace(v) == "" {
				continue
			}
			if k := len(a.kids); k > a.open[len(a.open)-1].kids && a.kids[k-1].Kind == TextNode {
				a.kids[k-1].Value += v
				continue
			}
			a.add(a.Text(v))
		// comments and PIs are taken verbatim: TextValue cannot fail on
		// them
		case TokComment:
			v, _ := s.TextValue()
			a.add(a.Comment(v))
		case TokPI:
			if s.Name != "xml" {
				v, _ := s.TextValue()
				a.add(a.PI(s.Name, v))
			}
		}
	}
}

// add makes n the next child of the innermost open element.
func (a *Arena) add(n *Node) {
	n.Parent = a.open[len(a.open)-1].node
	a.kids = append(a.kids, n)
}

// close ends the innermost open element: its children move from the
// scratch into a slice of their own.
func (a *Arena) close() {
	top := a.open[len(a.open)-1]
	a.open = a.open[:len(a.open)-1]
	top.node.children = a.slots(len(a.kids) - top.kids)
	copy(top.node.children, a.kids[top.kids:])
	a.kids = a.kids[:top.kids]
}
