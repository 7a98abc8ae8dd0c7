// Package soap implements the SOAP XRPC message format of §2.1 of the
// paper: request/response envelopes, the s2n/n2s parameter marshaling
// sub-format (document/literal style, distinct from SOAP RPC's
// rpc/encoded), Bulk RPC (multiple <xrpc:call> elements per request,
// §3.2), the queryID isolation extension (§2.2), the participating-peers
// piggyback used by distributed commit (§2.3), and SOAP Fault errors.
//
// The wire path is streaming and allocation-lean: encoding goes through
// the pooled Encoder (encoder.go), decoding through xdm's pull-tokenizer
// (xdm.Scanner, which ParseDocument reads documents with too) driven
// through the XRPC envelope grammar (decode.go). The seed's DOM-based
// implementations survive as executable references (refenc.go,
// DecodeDOM below) that differential tests pin against the streaming
// paths.
package soap

import (
	"fmt"
	"strings"
	"time"

	"xrpc/internal/xdm"
)

// Namespace URIs used in XRPC envelopes.
const (
	NSEnv  = "http://www.w3.org/2003/05/soap-envelope"
	NSXRPC = "http://monetdb.cwi.nl/XQuery"
	NSXS   = "http://www.w3.org/2001/XMLSchema"
	NSXSI  = "http://www.w3.org/2001/XMLSchema-instance"
	// SchemaLoc is the xsi:schemaLocation advertised in envelopes.
	SchemaLoc = "http://monetdb.cwi.nl/XQuery http://monetdb.cwi.nl/XQuery/XRPC.xsd"
)

// QueryID identifies the query a request belongs to, for repeatable-read
// isolation (§2.2 "SOAP XRPC Extension: Isolation"). Host and Timestamp
// say where and when the query started; Timeout is the number of seconds
// the isolated database state must be conserved (relative, to tolerate
// clock skew between peers).
type QueryID struct {
	ID        string
	Host      string
	Timestamp time.Time
	Timeout   int
}

// queryIDTimeLayout is how both encoders write QueryID.Timestamp:
// RFC 3339 with all nine fractional digits, so a request's size does not
// depend on how many trailing zeros the clock produced (RFC3339Nano
// trims them). The decoders parse with time.RFC3339Nano, which accepts
// either form.
const queryIDTimeLayout = "2006-01-02T15:04:05.000000000Z07:00"

// Request is one SOAP XRPC request: possibly many calls (Bulk RPC) of
// the same function.
type Request struct {
	Module   string // module namespace URI
	Method   string // function local name
	Arity    int
	Location string // at-hint location of the module
	Updating bool   // calls an XQUF updating function
	QueryID  *QueryID
	// TraceID correlates one client request across every shard it
	// scatters to: minted at the front door (proxy or standalone
	// server), carried on the envelope as xrpc:traceID next to the
	// queryID, surfaced in each peer's slow-query log. Empty means
	// untraced — the attribute is omitted, keeping old peers
	// byte-compatible.
	TraceID string
	// Projection, when set, is the wire form of an xdm.Projection: the
	// child paths the caller reads of each result item
	// (call-by-projection). It rides the request as xrpc:projection;
	// empty means the caller reads everything and the attribute is
	// omitted. A peer that does not know it ships everything.
	Projection string
	// Calls holds the actual parameters: Calls[i][j] is parameter j of
	// call i. len(Calls[i]) == Arity for every i.
	Calls [][]xdm.Sequence
	// ByFragment enables the call-by-fragment protocol extension
	// (paper footnote 4): node parameters that are descendants of other
	// node parameters travel as xrpc:nodeid references, preserving
	// ancestor/descendant relationships at the remote peer and
	// compressing the message.
	ByFragment bool
	// SeqNrs optionally tags each call with its original query position
	// (the deterministic-update-order extension of [35]); len must equal
	// len(Calls) when non-nil. Bulk RPC executes calls out of query
	// order, but pending updates tagged this way apply in query order.
	SeqNrs []int64
}

// Response is a SOAP XRPC response: one result sequence per call, plus
// the piggybacked list of peers that participated in handling the
// request tree (used by the WS-Coordination registration, §2.3).
type Response struct {
	Module  string
	Method  string
	Results []xdm.Sequence
	Peers   []string
	// Raw optionally carries pre-serialized result sequences: when
	// Raw[i] is non-nil it is spliced into the envelope verbatim in
	// place of Results[i] (it must be exactly the bytes the encoder
	// would produce for that sequence: "<xrpc:sequence>…</xrpc:sequence>\n").
	// The per-shard response cache stores results in this form so a
	// warm hit skips both execution and re-serialization.
	Raw [][]byte
	// Projection, when non-nil, prunes every element and document item
	// of Results as it is encoded (xdm.WriteProjected): the callee's
	// half of call-by-projection.
	Projection *xdm.Projection
}

// Fault is a SOAP Fault message; it doubles as the Go error type for
// remote failures ("any error will cause a run-time error at the site
// that originated the query").
type Fault struct {
	Code   string // "env:Sender" or "env:Receiver"
	Reason string
}

// Error implements error.
func (f *Fault) Error() string { return "xrpc fault (" + f.Code + "): " + f.Reason }

// SequenceToNode is s2n producing an XDM tree directly (no text
// round-trip): a fresh <xrpc:sequence> element whose children wrap each
// item per the XRPC schema. Node items are deep-copied (call-by-value).
func SequenceToNode(seq xdm.Sequence) *xdm.Node {
	root := xdm.NewElement("xrpc:sequence")
	for _, it := range seq {
		switch v := it.(type) {
		case *xdm.Node:
			switch v.Kind {
			case xdm.ElementNode:
				wrap := xdm.NewElement("xrpc:element")
				wrap.AppendChild(v.Clone())
				root.AppendChild(wrap)
			case xdm.DocumentNode:
				wrap := xdm.NewElement("xrpc:document")
				for _, c := range v.Children() {
					wrap.AppendChild(c.Clone())
				}
				root.AppendChild(wrap)
			case xdm.AttributeNode:
				wrap := xdm.NewElement("xrpc:attribute")
				wrap.SetAttr(xdm.NewAttribute(v.Name, v.Value))
				root.AppendChild(wrap)
			case xdm.TextNode:
				wrap := xdm.NewElement("xrpc:text")
				wrap.AppendChild(xdm.NewText(v.Value))
				root.AppendChild(wrap)
			case xdm.CommentNode:
				wrap := xdm.NewElement("xrpc:comment")
				wrap.AppendChild(xdm.NewText(v.Value))
				root.AppendChild(wrap)
			case xdm.PINode:
				wrap := xdm.NewElement("xrpc:pi")
				wrap.SetAttr(xdm.NewAttribute("xrpc:target", v.Name))
				wrap.AppendChild(xdm.NewText(v.Value))
				root.AppendChild(wrap)
			}
		default:
			wrap := xdm.NewElement("xrpc:atomic-value")
			wrap.SetAttr(xdm.NewAttribute("xsi:type", it.TypeName()))
			if s := it.StringValue(); s != "" {
				wrap.AppendChild(xdm.NewText(s))
			}
			root.AppendChild(wrap)
		}
	}
	root.Seal()
	return root
}

// ------------------------------------------------- DOM decoder (reference)

// Message is the decoded form of any XRPC envelope body.
type Message struct {
	Request  *Request
	Response *Response
	Fault    *Fault
}

// DecodeDOM parses a SOAP XRPC message of any kind by materializing the
// whole envelope as an xdm.Node tree and walking it — the seed's
// decoder, kept as the executable reference the streaming pull-decoder
// (decode.go) is differentially tested against.
func DecodeDOM(data []byte) (*Message, error) {
	doc, err := xdm.ParseDocument("soap-message", string(data))
	if err != nil {
		return nil, fmt.Errorf("soap: malformed envelope: %w", err)
	}
	env := firstChildLocal(doc, "Envelope")
	if env == nil {
		return nil, fmt.Errorf("soap: missing Envelope")
	}
	body := firstChildLocal(env, "Body")
	if body == nil {
		return nil, fmt.Errorf("soap: missing Body")
	}
	if f := firstChildLocal(body, "Fault"); f != nil {
		return &Message{Fault: decodeFaultDOM(f)}, nil
	}
	if rq := firstChildLocal(body, "request"); rq != nil {
		req, err := decodeRequestDOM(rq)
		if err != nil {
			return nil, err
		}
		return &Message{Request: req}, nil
	}
	if rs := firstChildLocal(body, "response"); rs != nil {
		resp, err := decodeResponseDOM(rs)
		if err != nil {
			return nil, err
		}
		return &Message{Response: resp}, nil
	}
	return nil, fmt.Errorf("soap: body contains no request, response or fault")
}

func decodeRequestDOM(rq *xdm.Node) (*Request, error) {
	req := &Request{
		Module:   attrLocal(rq, "module"),
		Method:   attrLocal(rq, "method"),
		Location: attrLocal(rq, "location"),
		Updating: attrLocal(rq, "updCall") == "true",
		TraceID:  attrLocal(rq, "traceID"),

		Projection: attrLocal(rq, "projection"),
	}
	fmt.Sscanf(attrLocal(rq, "arity"), "%d", &req.Arity)
	if q := firstChildLocal(rq, "queryID"); q != nil {
		qid := &QueryID{
			ID:   q.StringValue(),
			Host: attrLocal(q, "host"),
		}
		if ts, err := time.Parse(time.RFC3339Nano, attrLocal(q, "timestamp")); err == nil {
			qid.Timestamp = ts
		}
		fmt.Sscanf(attrLocal(q, "timeout"), "%d", &qid.Timeout)
		req.QueryID = qid
	}
	for _, c := range rq.ChildElements() {
		if localName(c.Name) != "call" {
			continue
		}
		var params []xdm.Sequence
		for _, s := range c.ChildElements() {
			if localName(s.Name) != "sequence" {
				continue
			}
			seq, err := DecodeSequence(s)
			if err != nil {
				return nil, err
			}
			params = append(params, seq)
		}
		if req.Arity > 0 && len(params) != req.Arity {
			return nil, fmt.Errorf("soap: call has %d parameters, arity is %d", len(params), req.Arity)
		}
		if err := ResolveNodeRefs(params); err != nil {
			return nil, err
		}
		if sn := attrLocal(c, "seqNr"); sn != "" {
			var v int64
			fmt.Sscanf(sn, "%d", &v)
			// pad earlier untagged calls with their index
			for len(req.SeqNrs) < len(req.Calls) {
				req.SeqNrs = append(req.SeqNrs, int64(len(req.SeqNrs)))
			}
			req.SeqNrs = append(req.SeqNrs, v)
		}
		req.Calls = append(req.Calls, params)
	}
	if req.SeqNrs != nil {
		for len(req.SeqNrs) < len(req.Calls) {
			req.SeqNrs = append(req.SeqNrs, int64(len(req.SeqNrs)))
		}
	}
	return req, nil
}

func decodeResponseDOM(rs *xdm.Node) (*Response, error) {
	resp := &Response{
		Module: attrLocal(rs, "module"),
		Method: attrLocal(rs, "method"),
	}
	for _, c := range rs.ChildElements() {
		switch localName(c.Name) {
		case "sequence":
			seq, err := DecodeSequence(c)
			if err != nil {
				return nil, err
			}
			resp.Results = append(resp.Results, seq)
		case "participatingPeers":
			for _, p := range c.ChildElements() {
				if uri, ok := p.Attr("uri"); ok {
					resp.Peers = append(resp.Peers, uri)
				}
			}
		}
	}
	return resp, nil
}

func decodeFaultDOM(f *xdm.Node) *Fault {
	fault := &Fault{Code: "env:Receiver"}
	if code := firstChildLocal(f, "Code"); code != nil {
		if v := firstChildLocal(code, "Value"); v != nil {
			fault.Code = strings.TrimSpace(v.StringValue())
		}
	}
	if reason := firstChildLocal(f, "Reason"); reason != nil {
		fault.Reason = strings.TrimSpace(reason.StringValue())
	}
	return fault
}

// DecodeSequence is n2s (§2.2): converts an <xrpc:sequence> element back
// into an XDM sequence. Node-typed values come out as fresh XML
// fragments: navigating upwards or sideways from them yields empty
// results, which is exactly the call-by-value guarantee the formal
// semantics requires (a decoded node must never expose the SOAP envelope
// or sibling parameters). Besides the DOM decoder, the §4 wrapper uses
// it on constructed (never-serialized) response trees.
func DecodeSequence(seqEl *xdm.Node) (xdm.Sequence, error) {
	var out xdm.Sequence
	for _, v := range seqEl.ChildElements() {
		switch localName(v.Name) {
		case "atomic-value":
			typ, _ := v.Attr("xsi:type")
			if typ == "" {
				typ = "xs:untypedAtomic"
			}
			item, err := xdm.CastAtomic(xdm.String(v.StringValue()), typ)
			if err != nil {
				return nil, fmt.Errorf("soap: bad atomic value %q as %s: %w", v.StringValue(), typ, err)
			}
			out = append(out, item)
		case "element":
			if ref := attrLocal(v, "nodeid"); ref != "" && len(v.ChildElements()) == 0 {
				// call-by-fragment placeholder, resolved after all
				// parameters of the call are decoded
				ph := xdm.NewElement(nodeRefPlaceholder)
				ph.Value = ref
				out = append(out, ph)
				continue
			}
			for _, c := range v.ChildElements() {
				fresh := c.Clone()
				out = append(out, fresh)
			}
		case "document":
			doc := xdm.NewDocument("")
			for _, c := range v.Children() {
				doc.AppendChild(c.Clone())
			}
			doc.Seal()
			out = append(out, doc)
		case "attribute":
			for _, a := range v.Attrs {
				attr := xdm.NewAttribute(a.Name, a.Value)
				attr.Seal()
				out = append(out, attr)
			}
		case "text":
			t := xdm.NewText(v.StringValue())
			t.Seal()
			out = append(out, t)
		case "comment":
			c := xdm.NewComment(v.StringValue())
			c.Seal()
			out = append(out, c)
		case "pi":
			target := attrLocal(v, "target")
			pi := xdm.NewPI(target, v.StringValue())
			pi.Seal()
			out = append(out, pi)
		default:
			return nil, fmt.Errorf("soap: unknown sequence item element %q", v.Name)
		}
	}
	return out, nil
}

// localName strips any namespace prefix.
func localName(name string) string {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// firstChildLocal finds the first child element with the given local
// name, tolerating any namespace prefix (interoperability: other
// implementations may choose different prefixes).
func firstChildLocal(n *xdm.Node, local string) *xdm.Node {
	for _, c := range n.ChildElements() {
		if localName(c.Name) == local {
			return c
		}
	}
	return nil
}

// attrLocal reads an attribute by local name regardless of prefix.
func attrLocal(n *xdm.Node, local string) string {
	for _, a := range n.Attrs {
		if localName(a.Name) == local {
			return a.Value
		}
	}
	return ""
}
