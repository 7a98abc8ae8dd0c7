package xquf

import (
	"fmt"
	"strconv"

	"xrpc/internal/docres"
	"xrpc/internal/soap"
	"xrpc/internal/xdm"
)

// PUL wire format: a pending update list serialized as one XML element,
// so that a primary's prepared ∆_q can travel inside a SOAP XRPC value
// to the shard's replicas (replica PUL replication under 2PC). A
// Primitive already identifies its target by document name + stable
// preorder ordinal — exactly the information that survives
// serialization — so DecodePUL(EncodePUL(ul)) against a tree equal to
// the primary's snapshot reproduces the list.
//
//	<xrpc:pending-updates>
//	  <xrpc:primitive kind="replaceValue" doc="persons.xml" ord="17"
//	                  seq="3" value="Amsterdam">
//	    <xrpc:sequence>…source items…</xrpc:sequence>   (insert/replace)
//	  </xrpc:primitive>
//	</xrpc:pending-updates>

// pulRootName is the element name of a serialized pending update list.
const pulRootName = "xrpc:pending-updates"

var pulKindNames = func() map[string]PrimitiveKind {
	m := map[string]PrimitiveKind{}
	for k := PrimInsertInto; k <= PrimPut; k++ {
		m[k.String()] = k
	}
	return m
}()

// EncodePUL serializes a pending update list.
func EncodePUL(ul *UpdateList) *xdm.Node {
	root := xdm.NewElement(pulRootName)
	for _, p := range ul.Prims {
		el := xdm.NewElement("xrpc:primitive")
		el.SetAttr(xdm.NewAttribute("kind", p.Kind.String()))
		if p.Target != nil {
			el.SetAttr(xdm.NewAttribute("doc", p.DocName))
			el.SetAttr(xdm.NewAttribute("ord", strconv.Itoa(p.Target.Ord())))
		}
		if p.Seq != 0 {
			el.SetAttr(xdm.NewAttribute("seq", strconv.FormatInt(p.Seq, 10)))
		}
		switch p.Kind {
		case PrimReplaceValue, PrimRename:
			el.SetAttr(xdm.NewAttribute("value", p.Value))
		case PrimPut:
			el.SetAttr(xdm.NewAttribute("uri", p.PutURI))
		}
		if len(p.Source) > 0 {
			src := make(xdm.Sequence, len(p.Source))
			for i, n := range p.Source {
				src[i] = n
			}
			// s2n handles every node kind (attributes, text, PIs, …) and
			// deep-copies, matching the call-by-value the PUL travels with
			el.AppendChild(soap.SequenceToNode(src))
		}
		root.AppendChild(el)
	}
	root.Seal()
	return root
}

// DecodePUL parses a serialized pending update list, resolving every
// target against docs (the adopting peer's pinned snapshot). It fails if
// a target document or ordinal does not exist there — a replica that
// diverged from its primary must not silently adopt a misaimed update.
func DecodePUL(pulNode *xdm.Node, docs docres.DocResolver) (*UpdateList, error) {
	if pulNode.Kind != xdm.ElementNode || pulNode.Name != pulRootName {
		return nil, xdm.Errorf("XRPC0008", "not a serialized pending update list: <%s>", pulNode.Name)
	}
	ul := &UpdateList{}
	for _, el := range pulNode.ChildElements() {
		kindName, _ := el.Attr("kind")
		kind, ok := pulKindNames[kindName]
		if !ok {
			return nil, xdm.Errorf("XRPC0008", "unknown update primitive kind %q", kindName)
		}
		p := Primitive{Kind: kind}
		if s, ok := el.Attr("seq"); ok {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, xdm.Errorf("XRPC0008", "bad primitive seq %q", s)
			}
			p.Seq = v
		}
		if v, ok := el.Attr("value"); ok {
			p.Value = v
		}
		if uri, ok := el.Attr("uri"); ok {
			p.PutURI = uri
		}
		if docName, ok := el.Attr("doc"); ok {
			ordStr, _ := el.Attr("ord")
			ord, err := strconv.Atoi(ordStr)
			if err != nil {
				return nil, xdm.Errorf("XRPC0008", "bad primitive ord %q", ordStr)
			}
			root, err := docs.Doc(docName)
			if err != nil {
				return nil, xdm.Errorf("XRPC0008", "pending update targets unknown document %q", docName)
			}
			target := root.FindByOrd(ord)
			if target == nil {
				return nil, xdm.Errorf("XRPC0008", "pending update target #%d not in %q", ord, docName)
			}
			p.Target = target
		} else if kind != PrimPut {
			return nil, xdm.Errorf("XRPC0008", "%s primitive without a target", kindName)
		}
		if seqEl := soap.FirstChildLocal(el, "sequence"); seqEl != nil {
			seq, err := soap.DecodeSequence(seqEl)
			if err != nil {
				return nil, err
			}
			nodes, ok := xdm.NodesOf(seq)
			if !ok {
				return nil, xdm.NewError("XRPC0008", "primitive source is not a node sequence")
			}
			p.Source = nodes
		}
		// Add records DocName from the resolved target
		ul.Add(p)
	}
	return ul, nil
}

// ParsePUL decodes a logged <xrpc:pending-updates> payload, resolving
// targets against docs (the replaying store's current state).
func ParsePUL(pulXML []byte, docs docres.DocResolver) (*UpdateList, error) {
	if len(pulXML) == 0 {
		return nil, fmt.Errorf("empty PUL payload")
	}
	nodes, err := xdm.ParseFragment(string(pulXML))
	if err != nil {
		return nil, err
	}
	for _, n := range nodes {
		if n.Kind == xdm.ElementNode && n.Name == pulRootName {
			return DecodePUL(n, docs)
		}
	}
	return nil, fmt.Errorf("payload holds no <%s> element", pulRootName)
}
