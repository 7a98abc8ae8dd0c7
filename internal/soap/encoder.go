package soap

import (
	"io"
	"strconv"
	"sync"

	"xrpc/internal/xdm"
)

// envelopeHeader is the constant envelope prolog every XRPC message
// starts with; the namespace prefixes are fixed, so the whole prolog is
// one precomputed string.
const envelopeHeader = `<?xml version="1.0" encoding="utf-8"?>` + "\n" +
	`<env:Envelope xmlns:xrpc="` + NSXRPC + `"` + "\n" +
	` xmlns:env="` + NSEnv + `"` + "\n" +
	` xmlns:xs="` + NSXS + `"` + "\n" +
	` xmlns:xsi="` + NSXSI + `"` + "\n" +
	` xsi:schemaLocation="` + SchemaLoc + `">` + "\n" +
	"<env:Body>\n"

const envelopeFooter = "</env:Body>\n</env:Envelope>\n"

// sequenceStartTag opens one result sequence. With envelopeHeader and
// the response start tag it is the framing whose namespace bindings
// item bytes borrow (ResponseStream.NextItemRaw).
const sequenceStartTag = "<xrpc:sequence>"

// maxPooledBuf bounds the buffers the pool retains: an occasional huge
// message (a multi-MB document parameter) should not pin its buffer
// forever.
const maxPooledBuf = 1 << 20

// Encoder renders SOAP XRPC envelopes into a reusable byte buffer. It is
// the streaming, single-copy wire path: node parameters are serialized
// directly into the buffer via xdm.WriteNode (no intermediate strings),
// and buffers are recycled through a sync.Pool, so steady-state encoding
// allocates nothing beyond buffer growth.
//
// Usage: NewEncoder → Encode{Request,Response,Fault} → Bytes → Release.
// Bytes returns the encoder's internal buffer without copying; it is
// valid until Release. Callers that need the message to outlive the
// encoder copy it (or use the package-level Encode* wrappers, which do
// exactly that one copy).
//
// The encoder also has a sink-writer mode (EncodeTo / NewStreamEncoder):
// with a sink attached, the buffer flushes to it every chunk bytes, so a
// response streams out as it is encoded and the encoder's memory stays
// at one chunk regardless of message size. Both modes run the same
// emission code, so the concatenated chunks are byte-identical to a
// buffered encode. In sink mode Bytes/Copy only see the unflushed tail;
// a write error sticks in Err and turns the remaining writes into
// no-ops.
type Encoder struct {
	buf []byte

	// sink-writer mode
	w     io.Writer
	chunk int
	err   error

	// proj prunes the element and document items the encoder writes
	proj *xdm.Projection
}

// DefaultStreamChunk is the flush threshold EncodeTo uses when the
// caller passes chunk <= 0.
const DefaultStreamChunk = 32 << 10

var encoderPool = sync.Pool{
	New: func() any { return &Encoder{buf: make([]byte, 0, 4096)} },
}

// NewEncoder returns an empty encoder backed by a pooled buffer.
func NewEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.buf = e.buf[:0]
	e.w = nil
	e.chunk = 0
	e.err = nil
	e.proj = nil
	return e
}

// NewStreamEncoder returns a pooled encoder in sink-writer mode:
// encoded bytes flush to w in chunk-sized writes (DefaultStreamChunk if
// chunk <= 0). Finish with Flush, then Release.
func NewStreamEncoder(w io.Writer, chunk int) *Encoder {
	e := NewEncoder()
	e.EncodeTo(w, chunk)
	return e
}

// EncodeTo attaches a sink: from now on the buffer flushes to w
// whenever it reaches chunk bytes. Anything already buffered is
// retained and flushes with the first full chunk.
func (e *Encoder) EncodeTo(w io.Writer, chunk int) {
	if chunk <= 0 {
		chunk = DefaultStreamChunk
	}
	e.w = w
	e.chunk = chunk
	e.err = nil
}

// Flush writes any buffered tail to the sink and reports the first
// write error. No-op in buffered mode.
func (e *Encoder) Flush() error {
	if e.w != nil && len(e.buf) > 0 {
		e.flushChunk()
	}
	return e.err
}

// Err reports the first sink write error.
func (e *Encoder) Err() error { return e.err }

func (e *Encoder) flushChunk() {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// maybeFlush spills the buffer once it holds a full chunk. Only the
// bulk append paths check; the few-byte helpers (int, byte) run between
// str calls and ride along.
func (e *Encoder) maybeFlush() {
	if e.w != nil && len(e.buf) >= e.chunk {
		e.flushChunk()
	}
}

// Release returns the encoder to the pool. The slice previously returned
// by Bytes must not be used afterwards.
func (e *Encoder) Release() {
	e.w = nil
	e.chunk = 0
	e.err = nil
	if cap(e.buf) <= maxPooledBuf {
		encoderPool.Put(e)
	}
}

// Bytes returns the encoded message without copying; valid until
// Release. In sink mode: only the unflushed tail.
func (e *Encoder) Bytes() []byte { return e.buf }

// Copy returns a fresh copy of the encoded message, safe to keep after
// Release.
func (e *Encoder) Copy() []byte { return append([]byte(nil), e.buf...) }

// Write implements io.Writer.
func (e *Encoder) Write(p []byte) (int, error) {
	e.buf = append(e.buf, p...)
	e.maybeFlush()
	return len(p), nil
}

// WriteString implements io.StringWriter (and half of xdm.XMLWriter).
func (e *Encoder) WriteString(s string) (int, error) {
	e.buf = append(e.buf, s...)
	e.maybeFlush()
	return len(s), nil
}

// WriteByte implements io.ByteWriter (and half of xdm.XMLWriter).
func (e *Encoder) WriteByte(c byte) error {
	e.buf = append(e.buf, c)
	return nil
}

// str/int append shorthands.
func (e *Encoder) str(s string) {
	e.buf = append(e.buf, s...)
	e.maybeFlush()
}
func (e *Encoder) int(v int64) { e.buf = strconv.AppendInt(e.buf, v, 10) }
func (e *Encoder) byte(c byte) { e.buf = append(e.buf, c) }

// attr appends ` name="value"` with attribute escaping —
// xdm.EscapeAttr, the same table node serialization uses, so a value
// escapes identically whether it travels in an envelope header or
// inside a node tree. The old %q-based header writer produced invalid
// XML for values containing quotes or newlines.
func (e *Encoder) attr(name, value string) {
	e.byte(' ')
	e.str(name)
	e.str(`="`)
	xdm.EscapeAttr(e, value)
	e.byte('"')
}

// escText escapes element text content exactly like the reference
// encoder's escape() (&lt; &gt; &amp; &quot;), keeping the two encoders
// byte-identical on every message.
func (e *Encoder) escText(s string) {
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
		case '"':
			rep = "&quot;"
		default:
			continue
		}
		e.str(s[last:i])
		e.str(rep)
		last = i + 1
	}
	e.str(s[last:])
}

// EncodeRequest appends the SOAP XRPC request envelope for r.
func (e *Encoder) EncodeRequest(r *Request) {
	e.str(envelopeHeader)
	e.str(`<xrpc:request`)
	e.attr("xrpc:module", r.Module)
	e.attr("xrpc:method", r.Method)
	e.str(` xrpc:arity="`)
	e.int(int64(r.Arity))
	e.byte('"')
	e.attr("xrpc:location", r.Location)
	if r.TraceID != "" {
		e.attr("xrpc:traceID", r.TraceID)
	}
	if r.Projection != "" {
		e.attr("xrpc:projection", r.Projection)
	}
	if r.Updating {
		e.str(` xrpc:updCall="true"`)
	}
	e.str(">\n")
	if r.QueryID != nil {
		e.str(`<xrpc:queryID`)
		e.attr("xrpc:host", r.QueryID.Host)
		e.str(` xrpc:timestamp="`)
		e.buf = r.QueryID.Timestamp.UTC().AppendFormat(e.buf, queryIDTimeLayout)
		e.str(`" xrpc:timeout="`)
		e.int(int64(r.QueryID.Timeout))
		e.str(`">`)
		e.escText(r.QueryID.ID)
		e.str("</xrpc:queryID>\n")
	}
	for ci, call := range r.Calls {
		if r.SeqNrs != nil {
			e.str(`<xrpc:call xrpc:seqNr="`)
			e.int(r.SeqNrs[ci])
			e.str("\">\n")
		} else {
			e.str("<xrpc:call>\n")
		}
		var refs [][]*NodeRef
		if r.ByFragment {
			refs, _ = CompressCall(call)
		}
		for pi, param := range call {
			if refs == nil {
				e.sequence(param)
				continue
			}
			e.str("<xrpc:sequence>")
			for ii, it := range param {
				e.itemRef(it, refs[pi][ii])
			}
			e.str("</xrpc:sequence>\n")
		}
		e.str("</xrpc:call>\n")
	}
	e.str("</xrpc:request>\n")
	e.str(envelopeFooter)
}

// EncodeResponse appends the SOAP XRPC response envelope for r. It is
// built from the Begin/End framing methods below, so a response
// composed incrementally (the streaming scatter-gather merge) is
// byte-identical to a buffered encode of the same results by
// construction.
func (e *Encoder) EncodeResponse(r *Response) {
	defer e.Project(e.proj)
	e.Project(r.Projection)
	e.BeginResponse(r.Module, r.Method)
	n := len(r.Results)
	if len(r.Raw) > n {
		n = len(r.Raw)
	}
	for i := 0; i < n; i++ {
		if i < len(r.Raw) && r.Raw[i] != nil {
			e.RawSequence(r.Raw[i])
		} else {
			e.sequence(r.Results[i])
		}
	}
	e.EndResponse(r.Peers)
}

// BeginResponse opens a response envelope: header through the
// <xrpc:response> start tag. Follow with BeginSequence/EncodeItem/
// EndSequence per result, then EndResponse.
func (e *Encoder) BeginResponse(module, method string) {
	e.str(envelopeHeader)
	e.responseStartTag(module, method)
	e.byte('\n')
}

func (e *Encoder) responseStartTag(module, method string) {
	e.str(`<xrpc:response`)
	e.attr("xrpc:module", module)
	e.attr("xrpc:method", method)
	e.byte('>')
}

// BeginSequence opens one result sequence.
func (e *Encoder) BeginSequence() { e.str(sequenceStartTag) }

// Project makes the items encoded from now on pruned by p (nil: written
// whole).
func (e *Encoder) Project(p *xdm.Projection) { e.proj = p }

// EncodeItem appends one item to the open sequence.
func (e *Encoder) EncodeItem(it xdm.Item) { e.item(it) }

// EndSequence closes the open result sequence.
func (e *Encoder) EndSequence() { e.str("</xrpc:sequence>\n") }

// RawSequence splices pre-serialized bytes into the envelope verbatim:
// a whole result sequence previously produced by BeginSequence/
// EncodeItem/EndSequence (the cache-hit fast path), or, inside an open
// sequence, item wrappers as ResponseStream.NextItemRaw hands them out
// (the gather's cut-through).
func (e *Encoder) RawSequence(b []byte) {
	e.buf = append(e.buf, b...)
	e.maybeFlush()
}

// EndResponse closes the response envelope, appending the
// participatingPeers block when peers is non-empty.
func (e *Encoder) EndResponse(peers []string) {
	if len(peers) > 0 {
		e.str("<xrpc:participatingPeers>\n")
		for _, p := range peers {
			e.str(`<xrpc:peer`)
			e.attr("uri", p)
			e.str("/>\n")
		}
		e.str("</xrpc:participatingPeers>\n")
	}
	e.str("</xrpc:response>\n")
	e.str(envelopeFooter)
}

// EncodeFault appends a SOAP Fault envelope for f.
func (e *Encoder) EncodeFault(f *Fault) {
	e.str(envelopeHeader)
	e.str("<env:Fault>\n<env:Code><env:Value>")
	e.escText(f.Code)
	e.str("</env:Value></env:Code>\n<env:Reason>\n")
	e.str(`<env:Text xml:lang="en">`)
	e.escText(f.Reason)
	e.str("</env:Text>\n</env:Reason>\n</env:Fault>\n")
	e.str(envelopeFooter)
}

// sequence is s2n (§2.2): the SOAP representation of an XDM sequence.
func (e *Encoder) sequence(seq xdm.Sequence) {
	e.BeginSequence()
	for _, it := range seq {
		e.item(it)
	}
	e.EndSequence()
}

func (e *Encoder) item(it xdm.Item) {
	if e.err != nil {
		// the sink failed: nothing more reaches it
		return
	}
	switch v := it.(type) {
	case *xdm.Node:
		switch v.Kind {
		case xdm.ElementNode:
			e.str("<xrpc:element>")
			xdm.WriteProjected(e, v, e.proj)
			e.str("</xrpc:element>")
		case xdm.DocumentNode:
			e.str("<xrpc:document>")
			xdm.WriteProjected(e, v, e.proj)
			e.str("</xrpc:document>")
		case xdm.AttributeNode:
			// serialized inside the wrapper: <xrpc:attribute x="y"/>
			e.str("<xrpc:attribute ")
			xdm.WriteNode(e, v)
			e.str("/>")
		case xdm.TextNode:
			e.str("<xrpc:text>")
			e.escText(v.Value)
			e.str("</xrpc:text>")
		case xdm.CommentNode:
			e.str("<xrpc:comment>")
			e.escText(v.Value)
			e.str("</xrpc:comment>")
		case xdm.PINode:
			e.str("<xrpc:pi")
			e.attr("xrpc:target", v.Name)
			e.byte('>')
			e.escText(v.Value)
			e.str("</xrpc:pi>")
		}
	default:
		e.str("<xrpc:atomic-value")
		e.attr("xsi:type", it.TypeName())
		e.byte('>')
		e.escText(it.StringValue())
		e.str("</xrpc:atomic-value>")
	}
}

// itemRef writes either the full item or a call-by-fragment nodeid
// reference.
func (e *Encoder) itemRef(it xdm.Item, ref *NodeRef) {
	if ref == nil {
		e.item(it)
		return
	}
	e.str(`<xrpc:element xrpc:nodeid="p`)
	e.int(int64(ref.Param))
	e.byte('.')
	e.int(int64(ref.Item))
	e.byte(':')
	e.int(int64(ref.Ord))
	e.str(`"/>`)
}

// ------------------------------------------------- compatibility wrappers

// EncodeRequest renders the request as a SOAP XRPC message. Thin wrapper
// over a pooled Encoder: build into a recycled buffer, one copy out.
func EncodeRequest(r *Request) []byte {
	e := NewEncoder()
	e.EncodeRequest(r)
	out := e.Copy()
	e.Release()
	return out
}

// EncodeResponse renders the response message.
func EncodeResponse(r *Response) []byte {
	e := NewEncoder()
	e.EncodeResponse(r)
	out := e.Copy()
	e.Release()
	return out
}

// EncodeFault renders a SOAP Fault message.
func EncodeFault(f *Fault) []byte {
	e := NewEncoder()
	e.EncodeFault(f)
	out := e.Copy()
	e.Release()
	return out
}
