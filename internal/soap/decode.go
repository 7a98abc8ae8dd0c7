package soap

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"xrpc/internal/xdm"
)

// decode.go is the streaming envelope decoder: it drives the
// pull-tokenizer (xdm.Scanner) through the XRPC envelope grammar and builds
// the Message directly — no DOM of the envelope is ever materialized.
// xdm trees are constructed only for actual node-typed parameters and
// results. The semantics are pinned to the DOM reference decoder
// (DecodeDOM) by round-trip tests on every message fixture and a
// differential test on randomized messages.
//
// The grammar is walked by three functions, which the buffered decoder
// here and ResponseStream (stream.go) both call:
//
//   - child steps through the element children of one open element;
//     every loop over children in this package is a loop over child.
//   - openBody and closeEnvelope bracket the Body: the prolog, the
//     Envelope and its first Body before; the Envelope's other children
//     and the epilogue after.
//   - nextResult steps through the xrpc:sequence children of an
//     xrpc:response, collecting participatingPeers on the way.
//
// What is left to a caller is which Body child is the message, and when
// to decide: decodeMessage after the whole Body, the stream at the first
// candidate.

// Decode parses a SOAP XRPC message of any kind.
func Decode(data []byte) (*Message, error) {
	d := &decoder{sc: xdm.NewScanner(data, nil, internTable)}
	return d.decodeMessage()
}

// DecodeRequest parses and requires a request message.
func DecodeRequest(data []byte) (*Request, error) {
	m, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if m.Request == nil {
		return nil, fmt.Errorf("soap: message is not a request")
	}
	return m.Request, nil
}

// DecodeResponse parses a response message, converting faults into *Fault
// errors. It accepts and rejects what Decode does, but it keeps data:
// each xrpc:element and xrpc:document item comes back as a lazy node
// (xdm's lazy.go) whose content is built from data as far as a reader
// steps into it — or never, when it is only copied and serialized — so
// data must not change while the items live, and they keep it alive.
func DecodeResponse(data []byte) (*Response, error) {
	d := &decoder{sc: xdm.NewScanner(data, nil, internTable), lazy: true}
	m, err := d.decodeMessage()
	if err != nil {
		return nil, err
	}
	if m.Fault != nil {
		return nil, m.Fault
	}
	if m.Response == nil {
		return nil, fmt.Errorf("soap: message is not a response")
	}
	return m.Response, nil
}

// internTable holds the names the XRPC envelope grammar uses with the
// prefixes our encoder emits, plus the common xsi:type values — the
// strings a well-formed message repeats per call. The scanner returns
// these instead of allocating, and takes the names as well formed.
var internTable = map[string]string{}

func init() {
	for _, s := range []string{
		"env:Envelope", "env:Body", "env:Fault", "env:Code", "env:Value",
		"env:Reason", "env:Text",
		"xrpc:request", "xrpc:response", "xrpc:call", "xrpc:sequence",
		"xrpc:atomic-value", "xrpc:element", "xrpc:document",
		"xrpc:attribute", "xrpc:text", "xrpc:comment", "xrpc:pi",
		"xrpc:queryID", "xrpc:participatingPeers", "xrpc:peer",
		"xrpc:module", "xrpc:method", "xrpc:arity", "xrpc:location",
		"xrpc:updCall", "xrpc:seqNr", "xrpc:host", "xrpc:timestamp",
		"xrpc:timeout", "xrpc:nodeid", "xrpc:target", "xrpc:projection",
		"xsi:type", "xsi:schemaLocation",
		"xmlns:xrpc", "xmlns:env", "xmlns:xs", "xmlns:xsi", "xml:lang",
		"uri", "en", "true", "false",
		"xs:string", "xs:integer", "xs:decimal", "xs:double",
		"xs:boolean", "xs:untypedAtomic",
		NSEnv, NSXRPC, NSXS, NSXSI, SchemaLoc,
	} {
		internTable[s] = s
	}
}

type decoder struct {
	sc xdm.Scanner
	// arena slab-allocates the xdm nodes of decoded node-typed values:
	// one allocation per 64 nodes instead of one each.
	arena xdm.Arena
	// envTgt is the Envelope's target, set by openBody for closeEnvelope.
	envTgt int
	// lazy: node items are built lazily from the input, which the
	// decoded message keeps (DecodeResponse)
	lazy bool
}

// attrLocalScan reads an attribute of the current start tag by local
// name, any prefix (the streaming counterpart of attrLocal).
func (d *decoder) attrLocalScan(local string) string {
	for _, a := range d.sc.Attrs {
		if localName(a.Name) == local {
			return a.Value
		}
	}
	return ""
}

// attrExactScan reads an attribute by its exact (prefixed) name — the
// DOM decoder matched xsi:type and uri exactly, so the streaming decoder
// does too.
func (d *decoder) attrExactScan(name string) (string, bool) {
	for _, a := range d.sc.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

const (
	// topLevel is the target of the document itself: no end tag returns
	// to it, so child(topLevel) is false only at EOF.
	topLevel = -1
	// selfClosed is the target of an element that has no end tag to
	// wait for: child(selfClosed) is false without reading a token.
	selfClosed = -2
)

// enter returns the target that makes child walk the children of the
// element whose start tag is the current token.
func (d *decoder) enter() int {
	if d.sc.SelfClose {
		return selfClosed
	}
	return d.sc.Depth() - 1
}

// child advances to the next child start tag of the element that ends
// at depth target and leaves it as the current token; it reports false
// at that element's end tag, or at EOF for topLevel. The caller consumes
// each child whole (a decode function, SkipElement, elementText) before
// asking for the next; content between children is passed over.
func (d *decoder) child(target int) (bool, error) {
	if target == selfClosed {
		return false, nil
	}
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return false, err
		}
		switch tok {
		case xdm.TokStart:
			return true, nil
		case xdm.TokEnd:
			if d.sc.Depth() == target {
				return false, nil
			}
		case xdm.TokEOF:
			return false, nil
		}
	}
}

// childNamed is child for a caller that reads only the children with
// one local name: the others are skipped.
func (d *decoder) childNamed(target int, local string) (bool, error) {
	for {
		ok, err := d.child(target)
		if !ok || localName(d.sc.Name) == local {
			return ok, err
		}
		if err := d.sc.SkipElement(); err != nil {
			return false, err
		}
	}
}

// openBody walks from the start of the document into the first Body
// child of the top-level Envelope and returns the Body's target,
// remembering the Envelope's for closeEnvelope.
func (d *decoder) openBody() (int, error) {
	if ok, err := d.childNamed(topLevel, "Envelope"); err != nil {
		return 0, err
	} else if !ok {
		return 0, fmt.Errorf("soap: missing Envelope")
	}
	d.envTgt = d.enter()
	if ok, err := d.childNamed(d.envTgt, "Body"); err != nil {
		return 0, err
	} else if !ok {
		return 0, fmt.Errorf("soap: missing Body")
	}
	return d.enter(), nil
}

// closeEnvelope, called at the Body's end tag, passes over the
// Envelope's other children and validates the remainder of the document
// (balance, well-formed markup), as parsing the whole DOM did.
func (d *decoder) closeEnvelope() error {
	for {
		ok, err := d.child(d.envTgt)
		if err != nil {
			return err
		}
		if !ok {
			return d.drain()
		}
		if err := d.sc.SkipElement(); err != nil {
			return err
		}
	}
}

// nextResult advances to the next xrpc:sequence child of the
// xrpc:response that ends at depth respTgt, appending the uris of any
// participatingPeers it passes to *peers; false at the response's end.
func (d *decoder) nextResult(respTgt int, peers *[]string) (bool, error) {
	for {
		ok, err := d.child(respTgt)
		if !ok {
			return false, err
		}
		switch localName(d.sc.Name) {
		case "sequence":
			return true, nil
		case "participatingPeers":
			*peers, err = d.decodePeers(*peers)
		default:
			err = d.sc.SkipElement()
		}
		if err != nil {
			return false, err
		}
	}
}

// decodeMessage scans the whole Body before it picks the message.
// Mirroring the DOM decoder's lookup order, a Fault wins over a request,
// which wins over a response, regardless of document order; the first
// child of each kind counts.
func (d *decoder) decodeMessage() (*Message, error) {
	bodyTgt, err := d.openBody()
	if err != nil {
		return nil, err
	}
	var (
		req   *Request
		resp  *Response
		fault *Fault
	)
	for {
		ok, err := d.child(bodyTgt)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		switch local := localName(d.sc.Name); {
		case local == "Fault" && fault == nil:
			fault, err = d.decodeFault()
		case local == "request" && req == nil:
			req, err = d.decodeRequest()
		case local == "response" && resp == nil:
			resp, err = d.decodeResponse()
		default:
			err = d.sc.SkipElement()
		}
		if err != nil {
			return nil, err
		}
	}
	var msg *Message
	switch {
	case fault != nil:
		msg = &Message{Fault: fault}
	case req != nil:
		msg = &Message{Request: req}
	case resp != nil:
		msg = &Message{Response: resp}
	default:
		return nil, fmt.Errorf("soap: body contains no request, response or fault")
	}
	if err := d.closeEnvelope(); err != nil {
		return nil, err
	}
	return msg, nil
}

func (d *decoder) decodeRequest() (*Request, error) {
	req := &Request{
		Module:     d.attrLocalScan("module"),
		Method:     d.attrLocalScan("method"),
		Location:   d.attrLocalScan("location"),
		Updating:   d.attrLocalScan("updCall") == "true",
		TraceID:    d.attrLocalScan("traceID"),
		Projection: d.attrLocalScan("projection"),
	}
	scanIntInto(d.attrLocalScan("arity"), &req.Arity)
	for tgt := d.enter(); ; {
		ok, err := d.child(tgt)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		switch local := localName(d.sc.Name); {
		case local == "queryID" && req.QueryID == nil:
			qid := &QueryID{Host: d.attrLocalScan("host")}
			if ts, err := time.Parse(time.RFC3339Nano, d.attrLocalScan("timestamp")); err == nil {
				qid.Timestamp = ts
			}
			scanIntInto(d.attrLocalScan("timeout"), &qid.Timeout)
			qid.ID, err = d.elementText()
			req.QueryID = qid
		case local == "call":
			err = d.decodeCall(req)
		default:
			err = d.sc.SkipElement()
		}
		if err != nil {
			return nil, err
		}
	}
	if req.SeqNrs != nil {
		for len(req.SeqNrs) < len(req.Calls) {
			req.SeqNrs = append(req.SeqNrs, int64(len(req.SeqNrs)))
		}
	}
	return req, nil
}

// decodeCall decodes one <xrpc:call> element and appends it to req.
func (d *decoder) decodeCall(req *Request) error {
	seqNr := d.attrLocalScan("seqNr")
	var params []xdm.Sequence
	for tgt := d.enter(); ; {
		ok, err := d.childNamed(tgt, "sequence")
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		seq, err := d.decodeSequence()
		if err != nil {
			return err
		}
		params = append(params, seq)
	}
	if req.Arity > 0 && len(params) != req.Arity {
		return fmt.Errorf("soap: call has %d parameters, arity is %d", len(params), req.Arity)
	}
	if err := ResolveNodeRefs(params); err != nil {
		return err
	}
	if seqNr != "" {
		var v int64
		scanInt64Into(seqNr, &v)
		// pad earlier untagged calls with their index
		for len(req.SeqNrs) < len(req.Calls) {
			req.SeqNrs = append(req.SeqNrs, int64(len(req.SeqNrs)))
		}
		req.SeqNrs = append(req.SeqNrs, v)
	}
	req.Calls = append(req.Calls, params)
	return nil
}

// decodeSequence is the streaming n2s (§2.2): it converts one
// <xrpc:sequence> element into an XDM sequence with the same
// call-by-value guarantees as the DOM DecodeSequence — node items come
// out as fresh sealed fragments that cannot see the envelope.
func (d *decoder) decodeSequence() (xdm.Sequence, error) {
	var out xdm.Sequence
	for tgt := d.enter(); ; {
		ok, err := d.child(tgt)
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		if out, err = d.decodeSequenceItem(out); err != nil {
			return nil, err
		}
	}
}

// decodeSequenceItem consumes the sequence-item element at the current
// start token and appends the item(s) it denotes to out. One wrapper
// may contribute zero items (an empty <xrpc:element/>) or several (an
// <xrpc:attribute> with multiple attributes), which is why the decoded
// items are appended rather than returned singly. Shared by the
// buffered decoder (decodeSequence) and the incremental ResponseStream.
func (d *decoder) decodeSequenceItem(out xdm.Sequence) (xdm.Sequence, error) {
	switch localName(d.sc.Name) {
	case "atomic-value":
		typ, _ := d.attrExactScan("xsi:type")
		if typ == "" {
			typ = "xs:untypedAtomic"
		}
		sv, err := d.elementText()
		if err != nil {
			return nil, err
		}
		item, err := xdm.CastAtomic(xdm.String(sv), typ)
		if err != nil {
			return nil, fmt.Errorf("soap: bad atomic value %q as %s: %w", sv, typ, err)
		}
		out = append(out, item)
	case "element":
		ref := d.attrLocalScan("nodeid")
		n := len(out)
		var err error
		if out, err = d.childElements(out); err != nil {
			return nil, err
		}
		if ref != "" && len(out) == n {
			// call-by-fragment placeholder, resolved after all
			// parameters of the call are decoded
			ph := d.arena.Element(nodeRefPlaceholder)
			ph.Value = ref
			out = append(out, ph)
		}
	case "document":
		doc, err := d.buildDocument()
		if err != nil {
			return nil, err
		}
		out = append(out, doc)
	case "attribute":
		for _, a := range d.sc.Attrs {
			attr := d.arena.Attribute(a.Name, a.Value)
			attr.Seal()
			out = append(out, attr)
		}
		if err := d.sc.SkipElement(); err != nil {
			return nil, err
		}
	case "text":
		sv, err := d.elementText()
		if err != nil {
			return nil, err
		}
		t := d.arena.Text(sv)
		t.Seal()
		out = append(out, t)
	case "comment":
		sv, err := d.elementText()
		if err != nil {
			return nil, err
		}
		c := d.arena.Comment(sv)
		c.Seal()
		out = append(out, c)
	case "pi":
		pitarget := d.attrLocalScan("target")
		sv, err := d.elementText()
		if err != nil {
			return nil, err
		}
		pi := d.arena.PI(pitarget, sv)
		pi.Seal()
		out = append(out, pi)
	default:
		return nil, unknownItemWrapper(d.sc.Name)
	}
	return out, nil
}

// isItemWrapper reports whether decodeSequenceItem has a case for the
// local name — what a reader that passes a wrapper on undecoded checks
// in its place.
func isItemWrapper(local string) bool {
	switch local {
	case "atomic-value", "element", "document", "attribute", "text", "comment", "pi":
		return true
	}
	return false
}

func unknownItemWrapper(name string) error {
	return fmt.Errorf("soap: unknown sequence item element %q", name)
}

func (d *decoder) decodeResponse() (*Response, error) {
	resp := &Response{
		Module: d.attrLocalScan("module"),
		Method: d.attrLocalScan("method"),
	}
	for tgt := d.enter(); ; {
		ok, err := d.nextResult(tgt, &resp.Peers)
		if err != nil {
			return nil, err
		}
		if !ok {
			return resp, nil
		}
		seq, err := d.decodeSequence()
		if err != nil {
			return nil, err
		}
		resp.Results = append(resp.Results, seq)
	}
}

// decodePeers consumes an <xrpc:participatingPeers> element whose start
// tag is current, appending each peer child's uri attribute.
func (d *decoder) decodePeers(peers []string) ([]string, error) {
	for tgt := d.enter(); ; {
		ok, err := d.child(tgt)
		if err != nil {
			return nil, err
		}
		if !ok {
			return peers, nil
		}
		if uri, ok := d.attrExactScan("uri"); ok {
			peers = append(peers, uri)
		}
		if err := d.sc.SkipElement(); err != nil {
			return nil, err
		}
	}
}

// decodeFault reads the first Code child's first Value and the first
// Reason, each as trimmed text.
func (d *decoder) decodeFault() (*Fault, error) {
	fault := &Fault{Code: "env:Receiver"}
	seenCode, seenReason := false, false
	for tgt := d.enter(); ; {
		ok, err := d.child(tgt)
		if err != nil {
			return nil, err
		}
		if !ok {
			return fault, nil
		}
		switch local := localName(d.sc.Name); {
		case local == "Code" && !seenCode:
			seenCode = true
			err = d.decodeFaultCode(fault)
		case local == "Reason" && !seenReason:
			seenReason = true
			var sv string
			sv, err = d.elementText()
			fault.Reason = strings.TrimSpace(sv)
		default:
			err = d.sc.SkipElement()
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeFaultCode consumes a Fault's Code element: its first Value child
// is the fault code.
func (d *decoder) decodeFaultCode(fault *Fault) error {
	seenValue := false
	for tgt := d.enter(); ; {
		ok, err := d.child(tgt)
		if !ok {
			return err
		}
		if localName(d.sc.Name) != "Value" || seenValue {
			if err := d.sc.SkipElement(); err != nil {
				return err
			}
			continue
		}
		seenValue = true
		sv, err := d.elementText()
		if err != nil {
			return err
		}
		fault.Code = strings.TrimSpace(sv)
	}
}

// ------------------------------------------------------------ tree build

// childElements appends the element children of the current element to
// out as fresh sealed trees (text and other non-element content between
// them is dropped, as the DOM decoder's ChildElements did).
func (d *decoder) childElements(out xdm.Sequence) (xdm.Sequence, error) {
	for tgt := d.enter(); ; {
		ok, err := d.child(tgt)
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		var n *xdm.Node
		if d.lazy {
			n, err = d.sc.LazyElement(&d.arena)
		} else {
			n, err = d.sc.BuildElement(&d.arena)
		}
		if err != nil {
			return nil, err
		}
		n.Seal()
		out = append(out, n)
	}
}

// buildDocument rebuilds an <xrpc:document> wrapper's content as a fresh
// document node: all children (elements, text, comments, PIs) are kept,
// matching the DOM decoder's clone of v.Children().
func (d *decoder) buildDocument() (*xdm.Node, error) {
	doc := d.arena.Document("")
	var err error
	if d.lazy {
		err = d.sc.LazyChildren(doc)
	} else {
		err = d.sc.BuildChildren(&d.arena, doc)
	}
	if err != nil {
		return nil, err
	}
	doc.Seal()
	return doc, nil
}

// ------------------------------------------------------------- traversal

// elementText consumes the rest of the current element and returns the
// concatenation of all descendant text — fn:string of the element, the
// value the DOM decoder read via StringValue.
func (d *decoder) elementText() (string, error) {
	if d.sc.SelfClose {
		return "", nil
	}
	target := d.sc.Depth() - 1
	first := ""
	var buf []byte
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return "", err
		}
		switch tok {
		case xdm.TokEnd:
			if d.sc.Depth() == target {
				if buf != nil {
					return string(buf), nil
				}
				return first, nil
			}
		case xdm.TokText:
			v, err := d.sc.TextValue()
			if err != nil {
				return "", err
			}
			switch {
			case buf != nil:
				buf = append(buf, v...)
			case first == "":
				first = v
			default:
				buf = append(append(buf, first...), v...)
			}
		}
	}
}

// drain validates the remainder of the input: balanced tags and
// well-formed markup, matching the whole-document parse the DOM decoder
// performed.
func (d *decoder) drain() error {
	for {
		tok, err := d.sc.Next()
		if err != nil {
			return err
		}
		if tok == xdm.TokEOF {
			return nil
		}
	}
}

// ------------------------------------------------------------ number scan

// scanIntInto parses a leading integer the way fmt.Sscanf("%d") did:
// optional whitespace, sign and digits, trailing junk ignored, no digits
// leaves dst unchanged.
func scanIntInto(s string, dst *int) {
	var v int64
	if scanLeadingInt(s, &v) {
		*dst = int(v)
	}
}

func scanInt64Into(s string, dst *int64) {
	var v int64
	if scanLeadingInt(s, &v) {
		*dst = v
	}
}

func scanLeadingInt(s string, dst *int64) bool {
	i := 0
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	start := i
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	digits := i
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i == digits {
		return false
	}
	v, err := strconv.ParseInt(s[start:i], 10, 64)
	if err != nil {
		return false
	}
	*dst = v
	return true
}
