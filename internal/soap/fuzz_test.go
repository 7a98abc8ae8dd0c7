package soap

import (
	"bytes"
	"testing"

	"xrpc/internal/xdm"
)

// FuzzDecode feeds arbitrary bytes to the streaming decoder. Properties:
//
//  1. Decode never panics, whatever the input.
//  2. decode∘encode is a fixpoint on valid messages: anything that
//     decodes successfully re-encodes to a message that decodes again
//     and re-encodes byte-identically (the first round may normalize —
//     line endings, seqNr padding, atomic canonicalization — but the
//     encoded form is stable from then on).
//
// The corpus is seeded with every encoded fixture from the round-trip
// and differential tests. A short -fuzztime smoke run is part of
// `make ci`; run `go test -fuzz=FuzzDecode ./internal/soap` for a real
// session.
func FuzzDecode(f *testing.F) {
	for _, req := range fixtureRequests(f) {
		f.Add(EncodeRequest(req))
	}
	for _, resp := range fixtureResponses(f) {
		f.Add(EncodeResponse(resp))
	}
	f.Add(EncodeFault(&Fault{Code: "env:Sender", Reason: "could not load module!"}))
	f.Add(EncodeFault(&Fault{Code: "env:Receiver", Reason: " spaced \n reason "}))
	f.Add([]byte(`<?xml version="1.0"?><S:Envelope xmlns:S="e"><S:Body><x:request x:module='m' x:method='f' x:arity='1' x:location='l' xmlns:x="u"><x:call><x:sequence><x:atomic-value xsi:type="xs:integer" xmlns:xsi="i">7</x:atomic-value></x:sequence></x:call></x:request></S:Body></S:Envelope>`))
	f.Add([]byte(`<env:Envelope><env:Body><xrpc:response xrpc:module="m" xrpc:method="f"><xrpc:sequence><xrpc:element><a b="&#65;"><![CDATA[<raw>]]></a></xrpc:element></xrpc:sequence></xrpc:response></env:Body></env:Envelope>`))
	f.Add([]byte(`<!DOCTYPE x [<!ENTITY y "z">]><env:Envelope><env:Body/></env:Envelope>`))
	// traceID header attribute: hand-written form plus the empty-value
	// edge (decodes to "", re-encodes without the attribute — fixpoint
	// after one normalization round)
	f.Add([]byte(`<env:Envelope><env:Body><xrpc:request xrpc:module="m" xrpc:method="f" xrpc:arity="0" xrpc:location="l" xrpc:traceID="t-deadbeef00000000"><xrpc:call/></xrpc:request></env:Body></env:Envelope>`))
	f.Add([]byte(`<env:Envelope><env:Body><xrpc:request xrpc:module="m" xrpc:method="f" xrpc:arity="0" xrpc:location="l" xrpc:traceID=""><xrpc:call/></xrpc:request></env:Body></env:Envelope>`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data) // must not panic
		if err != nil {
			return
		}
		once := reencodeFuzz(t, m)
		m2, err := Decode(once)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v\noriginal: %q\nre-encoded: %q", err, data, once)
		}
		twice := reencodeFuzz(t, m2)
		if !bytes.Equal(once, twice) {
			t.Fatalf("decode∘encode is not a fixpoint\nfirst:  %q\nsecond: %q", once, twice)
		}
	})
}

// FuzzDecodeStream feeds the same corpus through the incremental
// decoder with an adversarial chunking derived from the input, and
// requires it to agree with the buffered decoder byte for byte: same
// accept/reject outcome, and identical re-encodings on success. This is
// the differential oracle for the refill paths (grow/compact/find) the
// buffered mode never exercises.
func FuzzDecodeStream(f *testing.F) {
	for _, req := range fixtureRequests(f) {
		f.Add(EncodeRequest(req), uint8(1))
	}
	for _, resp := range fixtureResponses(f) {
		f.Add(EncodeResponse(resp), uint8(3))
	}
	f.Add(EncodeFault(&Fault{Code: "env:Sender", Reason: "could not load module!"}), uint8(0))
	f.Add([]byte(`<?xml version="1.0"?><S:Envelope xmlns:S="e"><S:Body><x:request x:module='m' x:method='f' x:arity='1' x:location='l' xmlns:x="u"><x:call><x:sequence><x:atomic-value xsi:type="xs:integer" xmlns:xsi="i">7</x:atomic-value></x:sequence></x:call></x:request></S:Body></S:Envelope>`), uint8(2))
	f.Add([]byte(`<env:Envelope><env:Body><xrpc:response xrpc:module="m" xrpc:method="f"><xrpc:sequence><xrpc:element><a b="&#65;"><![CDATA[<raw>]]></a></xrpc:element></xrpc:sequence></xrpc:response></env:Body></env:Envelope>`), uint8(7))
	f.Add([]byte(`<!DOCTYPE x [<!ENTITY y "z">]><env:Envelope><env:Body/></env:Envelope>`), uint8(255))
	f.Add([]byte(`<env:Envelope><env:Body><xrpc:request xrpc:module="m" xrpc:method="f" xrpc:arity="0" xrpc:location="l" xrpc:traceID="t-deadbeef00000000"><xrpc:call/></xrpc:request></env:Body></env:Envelope>`), uint8(5))

	f.Fuzz(func(t *testing.T, data []byte, size uint8) {
		chunk := int(size)%64 + 1
		buffered, errBuf := Decode(data)
		streamed, errStream := DecodeStream(&chunkReader{data: data, size: chunk}) // must not panic
		if (errBuf == nil) != (errStream == nil) {
			t.Fatalf("decoder disagreement (chunk=%d): buffered err=%v, stream err=%v\ninput: %q",
				chunk, errBuf, errStream, data)
		}
		if errBuf != nil {
			return
		}
		if got, want := reencodeFuzz(t, streamed), reencodeFuzz(t, buffered); !bytes.Equal(got, want) {
			t.Fatalf("streamed decode differs (chunk=%d)\nstream: %q\nbuffered: %q\ninput: %q",
				chunk, got, want, data)
		}
	})
}

// FuzzResponseStreamRaw shakes the forwarding read (NextItemRaw) with
// arbitrary envelopes under adversarial chunking. Properties:
//
//  1. It never panics and never leaves the read window pinned.
//  2. The window stays bounded by the longest span the scanner had to
//     hold — a token, or a wrapper lent out — not by the message.
//  3. It rejects nothing the decoded walk accepts, and whenever both
//     accept, decoding the envelope a forwarder built from the raw reads
//     gives exactly the items NextItem delivered.
//
// The same input also drives the buffered decode whose node items are
// lazy (lazyAgainstEager): it accepts exactly what the eager decode
// accepts, and its items — unbuilt, copied, stepped into, built in full —
// encode and order as the eager items, node for node, ordinals included;
// so a span marked canonical writes itself.
func FuzzResponseStreamRaw(f *testing.F) {
	for _, resp := range fixtureResponses(f) {
		f.Add(EncodeResponse(resp), uint8(3))
	}
	for _, resp := range itemKindResponses(f) {
		f.Add(EncodeResponse(resp), uint8(0))
	}
	f.Add(oursFramed(`<xrpc:sequence><xrpc:attribute a="1" b='two'/><xrpc:element/><xrpc:element><p/> x <q>t</q></xrpc:element></xrpc:sequence><xrpc:sequence/><xrpc:sequence><xrpc:atomic-value xsi:type="xs:integer">abc</xrpc:atomic-value></xrpc:sequence>`), uint8(6))
	f.Add(oursFramed(`<xrpc:sequence><xrpc:text>cr&#13;lf&nope;</xrpc:text><xrpc:bogus/></xrpc:sequence>`), uint8(1))
	f.Add([]byte(`<env:Envelope><env:Body><xrpc:response xrpc:module="m" xrpc:method="f"><xrpc:sequence><xrpc:element><a b="&#65;"><![CDATA[<raw>]]></a></xrpc:element></xrpc:sequence></xrpc:response></env:Body></env:Envelope>`), uint8(7))
	f.Add(EncodeFault(&Fault{Code: "env:Sender", Reason: "could not load module!"}), uint8(0))
	for i, env := range lazyEnvelopes {
		f.Add(oursFramed(env), uint8(i))
	}

	f.Fuzz(func(t *testing.T, data []byte, size uint8) {
		if d := lazyAgainstEager(data); d != "" {
			t.Fatalf("%s\ninput: %q", d, data)
		}
		chunk := int(size)%64 + 1
		var want *Response
		rs, errDecoded := NewResponseStream(&chunkReader{data: data, size: chunk})
		if errDecoded == nil {
			want, errDecoded = collectStream(rs)
		}
		rs, err := NewResponseStream(&chunkReader{data: data, size: chunk}) // must not panic
		if err != nil {
			if errDecoded == nil {
				t.Fatalf("header rejected on the second read only: %v\ninput: %q", err, data)
			}
			return
		}
		got, err := forward(rs, true)
		if errDecoded == nil && err != nil {
			t.Fatalf("raw walk rejects what the decoded walk accepts (chunk=%d): %v\ninput: %q", chunk, err, data)
		}
		// the longest token of the input, found in byte mode (one that
		// does not end is looked for to the end of the input)
		span := 0
		for sc := xdm.NewScanner(data, nil, internTable); ; {
			tok, err := sc.Next()
			if err != nil {
				span = max(span, len(data)-sc.Offset())
			}
			if err != nil || tok == xdm.TokEOF {
				break
			}
			span = max(span, len(sc.Token()))
		}
		if got != nil {
			span = max(span, got.largest)
		}
		if bound := xdm.WindowBound(span, chunk); rs.d.sc.Window() > bound {
			t.Fatalf("read window grew to %d bytes, bound %d for a longest span of %d (chunk=%d)\ninput: %q",
				rs.d.sc.Window(), bound, span, chunk, data)
		}
		if err != nil || errDecoded != nil {
			return
		}
		fwd, err := DecodeResponse(got.env)
		if err != nil {
			t.Fatalf("forwarded envelope does not decode (chunk=%d): %v\nforwarded: %q\ninput: %q", chunk, err, got.env, data)
		}
		fwd.Module, fwd.Method = want.Module, want.Method
		if g, w := EncodeResponse(fwd), EncodeResponse(want); !bytes.Equal(g, w) {
			t.Fatalf("forwarded envelope decodes to other items (chunk=%d)\nforwarded: %q\nNextItem:  %q\ninput: %q",
				chunk, g, w, data)
		}
	})
}

func reencodeFuzz(t *testing.T, m *Message) []byte {
	t.Helper()
	switch {
	case m.Request != nil:
		return EncodeRequest(m.Request)
	case m.Response != nil:
		return EncodeResponse(m.Response)
	case m.Fault != nil:
		return EncodeFault(m.Fault)
	}
	t.Fatal("decoded message has no content")
	return nil
}
