package soap

import (
	"bytes"
	"fmt"
	"io"

	"xrpc/internal/xdm"
)

// stream.go is the incremental face of the decoder: decode.go's three
// walks (child, openBody/closeEnvelope, nextResult), but fed from an
// io.Reader, so envelopes decode as bytes arrive off the socket.
// DecodeStream is the drop-in streaming counterpart of Decode (whole
// message in, whole Message out, bounded only by message size), while
// ResponseStream exposes a response one result sequence — and within it
// one item — at a time, so a consumer can forward results while the
// producer is still writing them. Memory then scales with the largest
// single item plus the scanner's refill window, not with the response.

// DecodeStream parses a SOAP XRPC message of any kind from r,
// decoding incrementally as bytes arrive. It accepts and produces
// exactly what Decode does.
func DecodeStream(r io.Reader) (*Message, error) {
	d := &decoder{sc: xdm.NewScanner(nil, r, internTable)}
	return d.decodeMessage()
}

// DecodeResponseStream parses a response message from r, converting
// faults into *Fault errors. For item-at-a-time consumption use
// NewResponseStream instead.
func DecodeResponseStream(r io.Reader) (*Response, error) {
	m, err := DecodeStream(r)
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

// ResponseStream reads a response envelope incrementally:
//
//	rs, err := NewResponseStream(r)      // header; faults surface here
//	for {
//		ok, err := rs.NextSequence()     // one per call result
//		if !ok { break }
//		for {
//			it, err := rs.NextItem()     // nil item = end of sequence
//			if it == nil { break }
//		}
//	}
//	peers, err := rs.Finish()            // drain + validate the rest
//
// NextSequence discards any unread items of the current sequence, and
// Finish drains whatever was not consumed, so partial reads are always
// safe. The stream drives the walks the buffered decoder drives
// (decode.go) and differs from it in one thing, when the Body child that
// is the message gets picked: Decode scans the whole Body first (Fault
// over request over response), the stream must commit to the first of
// the three in document order. A Fault or request placed *after* the
// response element therefore surfaces at Finish instead of up front (our
// encoder only ever emits one Body child, so this matters only for
// foreign envelopes).
//
// A consumer that forwards items instead of reading them can take each
// item wrapper as bytes (NextItemRaw). The scanner still tokenizes every
// tag of a forwarded item, so what is rejected mid-stream is the same
// either way: a truncated body, unbalanced tags, markup that is not
// well formed, a wrapper with an unknown local name — and, one level up,
// a result count that does not match the call count. What a forwarder no
// longer checks is what only building the value checks: the lexical form
// of a typed atomic (xsi:type="xs:integer" over "abc"), and the entity
// references and characters (a NUL, invalid UTF-8) of character data.
// Those surface, as the same "soap: bad atomic value" or "xml: …" error,
// at the peer that decodes the forwarded bytes — an error there, never a
// shortened result. Attribute values are checked as the tag is read, so
// the forwarder rejects a bad one itself.
type ResponseStream struct {
	d      decoder
	module string
	method string
	peers  []string

	// child targets of the open elements (the Envelope's is d.envTgt)
	bodyTgt int
	respTgt int
	seqTgt  int

	inSeq    bool // a sequence is open for NextItem
	done     bool // the response element is fully consumed
	finished bool // Finish completed

	// ours holds while every framing byte read so far — prolog through
	// <env:Body>, the response start tag, each sequence start tag — is
	// what Encoder writes, so an item wrapper's bytes mean in an
	// Encoder-framed envelope what they mean here (NextItemRaw).
	ours bool

	// queue holds decoded items not yet delivered: one wrapper element
	// can denote several items (<xrpc:attribute> with multiple
	// attributes) or none (an empty <xrpc:element/>).
	queue xdm.Sequence
	qi    int
}

// NewResponseStream reads the envelope header from r up to the
// response element. A Fault message is returned as a *Fault error; a
// request makes it a not-a-response error.
func NewResponseStream(r io.Reader) (*ResponseStream, error) {
	rs := &ResponseStream{d: decoder{sc: xdm.NewScanner(nil, r, internTable)}}
	if err := rs.header(); err != nil {
		return nil, err
	}
	return rs, nil
}

// responseTagOurs reports whether the response start tag — the scanner's
// current token — sits where Encoder.BeginResponse puts it, right after
// envelopeHeader, and is the bytes it writes for this module and method.
func (rs *ResponseStream) responseTagOurs() bool {
	if rs.d.sc.Offset() != len(envelopeHeader) {
		return false
	}
	e := NewEncoder()
	defer e.Release()
	e.responseStartTag(rs.module, rs.method)
	return bytes.Equal(rs.d.sc.Token(), e.Bytes())
}

// Module returns the xrpc:module attribute of the response.
func (rs *ResponseStream) Module() string { return rs.module }

// Method returns the xrpc:method attribute of the response.
func (rs *ResponseStream) Method() string { return rs.method }

func (rs *ResponseStream) header() error {
	d := &rs.d
	// peek at the prolog before any token is consumed (and compacted
	// away)
	rs.ours = string(d.sc.Peek(len(envelopeHeader))) == envelopeHeader
	var err error
	if rs.bodyTgt, err = d.openBody(); err != nil {
		return err
	}
	ok, err := rs.bodyChild()
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("soap: body contains no request, response or fault")
	}
	rs.module = d.attrLocalScan("module")
	rs.method = d.attrLocalScan("method")
	rs.ours = rs.ours && rs.responseTagOurs()
	rs.respTgt = d.enter()
	return nil
}

// bodyChild advances to the Body's next Fault, request or response child
// in document order, passing over any other. Only a response is handed
// to the caller (true, its start tag current): a Fault is returned as a
// *Fault error and a request makes the message not a response. False at
// the Body's end tag.
func (rs *ResponseStream) bodyChild() (bool, error) {
	d := &rs.d
	for {
		ok, err := d.child(rs.bodyTgt)
		if !ok {
			return false, err
		}
		switch localName(d.sc.Name) {
		case "Fault":
			f, err := d.decodeFault()
			if err != nil {
				return false, err
			}
			return false, f
		case "request":
			return false, fmt.Errorf("soap: message is not a response")
		case "response":
			return true, nil
		}
		if err := d.sc.SkipElement(); err != nil {
			return false, err
		}
	}
}

// NextSequence advances to the next result sequence, discarding any
// unread items of the current one. It reports false once the response
// element is exhausted.
func (rs *ResponseStream) NextSequence() (bool, error) {
	for rs.inSeq || rs.qi < len(rs.queue) {
		it, err := rs.NextItem()
		if err != nil {
			return false, err
		}
		if it == nil {
			break
		}
	}
	if rs.done {
		return false, nil
	}
	d := &rs.d
	ok, err := d.nextResult(rs.respTgt, &rs.peers)
	if !ok {
		rs.done = err == nil
		return false, err
	}
	if string(d.sc.Token()) != sequenceStartTag {
		rs.ours = false
	}
	rs.inSeq = true
	rs.seqTgt = d.enter()
	return true, nil
}

// nextWrapper advances to the start tag of the current sequence's next
// item wrapper and leaves it as the scanner's current token; false at
// the end of the sequence.
func (rs *ResponseStream) nextWrapper() (bool, error) {
	if !rs.inSeq {
		return false, fmt.Errorf("soap: NextItem outside a sequence")
	}
	ok, err := rs.d.child(rs.seqTgt)
	if !ok && err == nil {
		rs.inSeq = false
	}
	return ok, err
}

// NextItem returns the next item of the current sequence, or (nil, nil)
// at its end. Delivered items are released from the stream's own
// references, so the caller decides their lifetime.
func (rs *ResponseStream) NextItem() (xdm.Item, error) {
	for rs.qi == len(rs.queue) {
		ok, err := rs.nextWrapper()
		if !ok {
			return nil, err
		}
		// a wrapper may denote no items (empty <xrpc:element/>): then
		// keep scanning
		rs.qi = 0
		if rs.queue, err = rs.d.decodeSequenceItem(rs.queue[:0]); err != nil {
			return nil, err
		}
	}
	it := rs.queue[rs.qi]
	rs.queue[rs.qi] = nil
	rs.qi++
	return it, nil
}

// NextItemRaw is NextItem for a consumer that forwards: it returns the
// next item wrapper of the current sequence as the bytes it arrived in,
// start tag through end tag, or (nil, true, nil) at the sequence's end.
// The slice aliases the stream's read window and is valid until the next
// call on the stream. Between them the raw reads of a sequence deliver
// exactly the items NextItem would (one wrapper may denote several, or
// none); see the type's comment for what is validated on the way.
//
// The bytes borrow the namespace bindings of the envelope around them,
// so they are handed out only while that framing is byte for byte what
// Encoder writes — an Encoder-built envelope (BeginResponse,
// BeginSequence, RawSequence per wrapper, …) is then the same message.
// For any other framing, or with items of a decoded wrapper still
// undelivered, ok is false, nothing is consumed, and the caller decodes
// with NextItem.
func (rs *ResponseStream) NextItemRaw() (raw []byte, ok bool, err error) {
	if !rs.ours || rs.qi < len(rs.queue) {
		return nil, false, nil
	}
	if more, err := rs.nextWrapper(); !more {
		return nil, true, err
	}
	sc := &rs.d.sc
	if !isItemWrapper(localName(sc.Name)) {
		return nil, true, unknownItemWrapper(sc.Name)
	}
	sc.Pin()
	err = rs.d.sc.SkipElement()
	raw = sc.Unpin()
	if err != nil {
		return nil, true, err
	}
	return raw, true, nil
}

// Finish drains and validates the rest of the document — unread
// sequences, trailing Body and Envelope content, the epilogue — and
// returns the participating peers. A Fault elsewhere in the Body (which
// the buffered decoder gives precedence) surfaces here as a *Fault
// error; a request sibling makes the message not-a-response, matching
// DecodeResponse.
func (rs *ResponseStream) Finish() ([]string, error) {
	if rs.finished {
		return rs.peers, nil
	}
	for {
		ok, err := rs.NextSequence()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	// the rest of the Body: a second response is passed over, as the
	// buffered decoder passes it over
	for {
		ok, err := rs.bodyChild()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := rs.d.sc.SkipElement(); err != nil {
			return nil, err
		}
	}
	if err := rs.d.closeEnvelope(); err != nil {
		return nil, err
	}
	rs.finished = true
	return rs.peers, nil
}
