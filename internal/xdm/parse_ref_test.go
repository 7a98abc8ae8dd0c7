package xdm

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// parse_ref_test.go keeps the encoding/xml reader ParseDocument used
// before the tokenizer (scan.go) read documents too: the reference that
// TestParseShapes and FuzzParseDocument hold the tokenizer to.

// refParseDocument is ParseDocument over encoding/xml's RawToken.
func refParseDocument(uri, text string) (*Node, error) {
	doc := NewDocument(uri)
	if err := refParseInto(doc, strings.NewReader(text)); err != nil {
		return nil, err
	}
	doc.Seal()
	return doc, nil
}

func refParseInto(doc *Node, r io.Reader) error {
	dec := xml.NewDecoder(r)
	var stack []*Node
	cur := doc
	for {
		tok, err := dec.RawToken()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("xml parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			el := NewElement(rawName(t.Name))
			for _, a := range t.Attr {
				el.SetAttr(NewAttribute(rawName(a.Name), a.Value))
			}
			cur.AppendChild(el)
			stack = append(stack, cur)
			cur = el
		case xml.EndElement:
			if len(stack) == 0 {
				return fmt.Errorf("xml parse: unbalanced end tag </%s>", rawName(t.Name))
			}
			cur = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case xml.CharData:
			s := string(t)
			if cur == doc && strings.TrimSpace(s) == "" {
				continue // ignore whitespace outside the root
			}
			if kids := cur.Children(); len(kids) > 0 && kids[len(kids)-1].Kind == TextNode {
				kids[len(kids)-1].Value += s
				continue
			}
			cur.AppendChild(NewText(s))
		case xml.Comment:
			cur.AppendChild(NewComment(string(t)))
		case xml.ProcInst:
			if t.Target == "xml" {
				continue // XML declaration
			}
			cur.AppendChild(NewPI(t.Target, string(t.Inst)))
		case xml.Directive:
			// DOCTYPE etc: ignored.
		}
	}
	if len(stack) != 0 {
		return fmt.Errorf("xml parse: %d unclosed element(s)", len(stack))
	}
	return nil
}

func rawName(n xml.Name) string {
	if n.Space != "" {
		return n.Space + ":" + n.Local
	}
	return n.Local
}
