package soap

import (
	"fmt"
	"strings"

	"xrpc/internal/xdm"
)

// This file preserves the seed's strings.Builder-based encoder as an
// executable reference, the same way internal/algebra keeps its
// row-store (rowref.go). The pooled Encoder (encoder.go) is the
// production wire path; differential tests pin the two byte-identical on
// every message, and BenchmarkSoapEncode*Ref measures the difference.
//
// Known historical quirk kept on purpose: header attributes are written
// with %q, which backslash-escapes quotes and newlines instead of using
// XML character references — invalid XML for hostile attribute values.
// The production encoder routes every attribute through escAttr instead;
// the two paths are byte-identical on well-formed values.

func envelopeOpenRef(b *strings.Builder) {
	b.WriteString(`<?xml version="1.0" encoding="utf-8"?>` + "\n")
	b.WriteString(`<env:Envelope xmlns:xrpc="` + NSXRPC + `"` + "\n")
	b.WriteString(` xmlns:env="` + NSEnv + `"` + "\n")
	b.WriteString(` xmlns:xs="` + NSXS + `"` + "\n")
	b.WriteString(` xmlns:xsi="` + NSXSI + `"` + "\n")
	b.WriteString(` xsi:schemaLocation="` + SchemaLoc + `">` + "\n")
	b.WriteString("<env:Body>\n")
}

func envelopeCloseRef(b *strings.Builder) {
	b.WriteString("</env:Body>\n</env:Envelope>\n")
}

// EncodeRequestRef is the reference (pre-streaming) request encoder.
func EncodeRequestRef(r *Request) []byte {
	var b strings.Builder
	envelopeOpenRef(&b)
	fmt.Fprintf(&b, `<xrpc:request xrpc:module=%q xrpc:method=%q xrpc:arity="%d" xrpc:location=%q`,
		r.Module, r.Method, r.Arity, r.Location)
	if r.TraceID != "" {
		fmt.Fprintf(&b, ` xrpc:traceID=%q`, r.TraceID)
	}
	if r.Updating {
		b.WriteString(` xrpc:updCall="true"`)
	}
	b.WriteString(">\n")
	if r.QueryID != nil {
		fmt.Fprintf(&b, `<xrpc:queryID xrpc:host=%q xrpc:timestamp=%q xrpc:timeout="%d">%s</xrpc:queryID>`+"\n",
			r.QueryID.Host, r.QueryID.Timestamp.UTC().Format(queryIDTimeLayout),
			r.QueryID.Timeout, escape(r.QueryID.ID))
	}
	for ci, call := range r.Calls {
		if r.SeqNrs != nil {
			fmt.Fprintf(&b, `<xrpc:call xrpc:seqNr="%d">`+"\n", r.SeqNrs[ci])
		} else {
			b.WriteString("<xrpc:call>\n")
		}
		var refs [][]*NodeRef
		if r.ByFragment {
			refs, _ = CompressCall(call)
		}
		for pi, param := range call {
			if refs == nil {
				writeSequence(&b, param)
				continue
			}
			b.WriteString("<xrpc:sequence>")
			for ii, it := range param {
				writeItemRef(&b, it, refs[pi][ii])
			}
			b.WriteString("</xrpc:sequence>\n")
		}
		b.WriteString("</xrpc:call>\n")
	}
	b.WriteString("</xrpc:request>\n")
	envelopeCloseRef(&b)
	return []byte(b.String())
}

// EncodeResponseRef is the reference (pre-streaming) response encoder.
func EncodeResponseRef(r *Response) []byte {
	var b strings.Builder
	envelopeOpenRef(&b)
	fmt.Fprintf(&b, `<xrpc:response xrpc:module=%q xrpc:method=%q>`+"\n", r.Module, r.Method)
	for _, seq := range r.Results {
		writeSequence(&b, seq)
	}
	if len(r.Peers) > 0 {
		b.WriteString("<xrpc:participatingPeers>\n")
		for _, p := range r.Peers {
			fmt.Fprintf(&b, `<xrpc:peer uri=%q/>`+"\n", p)
		}
		b.WriteString("</xrpc:participatingPeers>\n")
	}
	b.WriteString("</xrpc:response>\n")
	envelopeCloseRef(&b)
	return []byte(b.String())
}

// EncodeFaultRef is the reference (pre-streaming) fault encoder.
func EncodeFaultRef(f *Fault) []byte {
	var b strings.Builder
	envelopeOpenRef(&b)
	b.WriteString("<env:Fault>\n<env:Code><env:Value>")
	b.WriteString(escape(f.Code))
	b.WriteString("</env:Value></env:Code>\n<env:Reason>\n")
	b.WriteString(`<env:Text xml:lang="en">`)
	b.WriteString(escape(f.Reason))
	b.WriteString("</env:Text>\n</env:Reason>\n</env:Fault>\n")
	envelopeCloseRef(&b)
	return []byte(b.String())
}

// WriteSequence exposes the s2n marshaling (sequence -> <xrpc:sequence>
// XML) for generated queries and tests.
func WriteSequence(b *strings.Builder, seq xdm.Sequence) { writeSequence(b, seq) }

// writeSequence is s2n (§2.2): the SOAP representation of an XDM
// sequence.
func writeSequence(b *strings.Builder, seq xdm.Sequence) {
	b.WriteString("<xrpc:sequence>")
	for _, it := range seq {
		writeItem(b, it)
	}
	b.WriteString("</xrpc:sequence>\n")
}

func writeItem(b *strings.Builder, it xdm.Item) {
	switch v := it.(type) {
	case *xdm.Node:
		switch v.Kind {
		case xdm.ElementNode:
			b.WriteString("<xrpc:element>")
			b.WriteString(xdm.SerializeNode(v))
			b.WriteString("</xrpc:element>")
		case xdm.DocumentNode:
			b.WriteString("<xrpc:document>")
			b.WriteString(xdm.SerializeNode(v))
			b.WriteString("</xrpc:document>")
		case xdm.AttributeNode:
			// serialized inside the wrapper: <xrpc:attribute x="y"/>
			fmt.Fprintf(b, `<xrpc:attribute %s=%q/>`, v.Name, v.Value)
		case xdm.TextNode:
			b.WriteString("<xrpc:text>")
			b.WriteString(escape(v.Value))
			b.WriteString("</xrpc:text>")
		case xdm.CommentNode:
			b.WriteString("<xrpc:comment>")
			b.WriteString(escape(v.Value))
			b.WriteString("</xrpc:comment>")
		case xdm.PINode:
			fmt.Fprintf(b, `<xrpc:pi xrpc:target=%q>`, v.Name)
			b.WriteString(escape(v.Value))
			b.WriteString("</xrpc:pi>")
		}
	default:
		fmt.Fprintf(b, `<xrpc:atomic-value xsi:type=%q>`, it.TypeName())
		b.WriteString(escape(it.StringValue()))
		b.WriteString("</xrpc:atomic-value>")
	}
}

// writeItemRef writes either the full item or a nodeid reference.
func writeItemRef(b *strings.Builder, it xdm.Item, ref *NodeRef) {
	if ref == nil {
		writeItem(b, it)
		return
	}
	fmt.Fprintf(b, `<xrpc:element xrpc:nodeid=%q/>`, ref.String())
}

func escape(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '&':
			b.WriteString("&amp;")
		case '"':
			b.WriteString("&quot;")
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
