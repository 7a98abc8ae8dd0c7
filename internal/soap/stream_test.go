package soap

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"

	"xrpc/internal/xdm"
)

// stream_test.go pins the incremental decoder (stream.go) to the
// buffered one under adversarial framing: whatever way the bytes are
// chopped up — one at a time, random chunks, splits inside tags, char
// refs and CDATA markers — DecodeStream must agree with Decode, and the
// item-at-a-time ResponseStream must reproduce DecodeResponse exactly.

// chunkReader yields data in fixed-size chunks, forcing the scanner
// through its refill paths at every possible alignment.
type chunkReader struct {
	data []byte
	size int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := c.size
	if n > len(c.data) {
		n = len(c.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// fixtureMessages returns every encoded fixture plus the hand-written
// foreign envelopes from the differential tests.
func fixtureMessages(t testing.TB) [][]byte {
	var msgs [][]byte
	for _, req := range fixtureRequests(t) {
		msgs = append(msgs, EncodeRequest(req))
	}
	for _, resp := range fixtureResponses(t) {
		msgs = append(msgs, EncodeResponse(resp))
	}
	msgs = append(msgs,
		EncodeFault(&Fault{Code: "env:Sender", Reason: " spaced \n reason "}),
		[]byte(`<?xml version="1.0"?><S:Envelope xmlns:S="e"><S:Body><x:request x:module='m' x:method='f' x:arity='1' x:location='l'><x:call><x:sequence><x:atomic-value xsi:type="xs:integer" xmlns:xsi="i">7</x:atomic-value></x:sequence></x:call></x:request></S:Body></S:Envelope>`),
		[]byte(`<env:Envelope><env:Body><xrpc:response xrpc:module="m" xrpc:method="f"><xrpc:sequence><xrpc:element><a b="&#65;&quot;x"><![CDATA[<raw>]]>tail</a></xrpc:element></xrpc:sequence><xrpc:participatingPeers><xrpc:peer uri="xrpc://p1"/></xrpc:participatingPeers></xrpc:response></env:Body></env:Envelope>`),
		[]byte(`<!DOCTYPE x [<!ENTITY y "z">]><env:Envelope><env:Body><env:Fault><env:Code><env:Value>env:Sender</env:Value></env:Code><env:Reason><env:Text xml:lang="en">boom</env:Text></env:Reason></env:Fault></env:Body></env:Envelope>`),
		// multi-byte runes and a comment straddling likely chunk sizes
		[]byte(`<env:Envelope><env:Body><xrpc:response xrpc:module="méthode💡" xrpc:method="f"><!-- commentaire éé --><xrpc:sequence><xrpc:atomic-value xsi:type="xs:string">héllo &amp; &#x1F4A1; wörld</xrpc:atomic-value></xrpc:sequence></xrpc:response></env:Body></env:Envelope>`),
	)
	return msgs
}

// assertStreamAgrees decodes msg both ways and requires identical
// outcomes: same error presence, and byte-identical re-encodings.
func assertStreamAgrees(t *testing.T, msg []byte, r io.Reader, label string) {
	t.Helper()
	buffered, errBuf := Decode(msg)
	streamed, errStream := DecodeStream(r)
	if (errBuf == nil) != (errStream == nil) {
		t.Fatalf("%s: decoder disagreement: buffered err=%v, stream err=%v\nmessage:\n%s",
			label, errBuf, errStream, msg)
	}
	if errBuf != nil {
		return
	}
	if got, want := reencode(t, streamed), reencode(t, buffered); !bytes.Equal(got, want) {
		t.Fatalf("%s: streamed decode differs from buffered\nstream: %s\nbuffered: %s", label, got, want)
	}
}

func TestDecodeStreamMatchesDecodeOnFixtures(t *testing.T) {
	for i, msg := range fixtureMessages(t) {
		assertStreamAgrees(t, msg, bytes.NewReader(msg), fmt.Sprintf("fixture %d whole", i))
		assertStreamAgrees(t, msg, iotest.OneByteReader(bytes.NewReader(msg)),
			fmt.Sprintf("fixture %d byte-at-a-time", i))
		for _, size := range []int{2, 3, 7, 16, 61, 4096} {
			assertStreamAgrees(t, msg, &chunkReader{data: msg, size: size},
				fmt.Sprintf("fixture %d chunk=%d", i, size))
		}
	}
}

// TestDecodeStreamEverySplitPoint cuts a small but token-rich envelope
// at every byte boundary: two reads, the seam landing inside tag names,
// attribute values, char refs, the CDATA opener and closer, and
// multi-byte runes.
func TestDecodeStreamEverySplitPoint(t *testing.T) {
	msg := []byte(`<env:Envelope><env:Body><xrpc:response xrpc:module="mé" xrpc:method="f"><xrpc:sequence><xrpc:element><a b="&#65;&amp;x"><![CDATA[<r]]&gt;aw>]]>t&#x1F4A1;l</a></xrpc:element></xrpc:sequence></xrpc:response></env:Body></env:Envelope>`)
	for cut := 1; cut < len(msg); cut++ {
		r := io.MultiReader(bytes.NewReader(msg[:cut]), bytes.NewReader(msg[cut:]))
		assertStreamAgrees(t, msg, r, fmt.Sprintf("split at %d", cut))
	}
}

// TestDecodeStreamTruncated feeds every prefix of an envelope: the
// stream decoder must fail exactly when the buffered decoder fails on
// the same bytes, and never panic.
func TestDecodeStreamTruncated(t *testing.T) {
	msg := fixtureMessages(t)[1] // request with queryID, seqNrs, two calls
	for cut := 0; cut < len(msg); cut++ {
		prefix := msg[:cut]
		_, errBuf := Decode(prefix)
		_, errStream := DecodeStream(&chunkReader{data: prefix, size: 5})
		if (errBuf == nil) != (errStream == nil) {
			t.Fatalf("truncated at %d: buffered err=%v, stream err=%v", cut, errBuf, errStream)
		}
	}
}

// TestDecodeStreamReadError: a transport error mid-envelope surfaces as
// a read error, not a malformed-envelope one.
func TestDecodeStreamReadError(t *testing.T) {
	msg := fixtureMessages(t)[0]
	boom := errors.New("conn reset")
	r := io.MultiReader(bytes.NewReader(msg[:len(msg)/2]), iotest.ErrReader(boom))
	_, err := DecodeStream(r)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("expected wrapped read error, got %v", err)
	}
}

// collectStream walks a ResponseStream to completion and rebuilds the
// equivalent *Response.
func collectStream(rs *ResponseStream) (*Response, error) {
	resp := &Response{Module: rs.Module(), Method: rs.Method()}
	for {
		ok, err := rs.NextSequence()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		var seq xdm.Sequence
		for {
			it, err := rs.NextItem()
			if err != nil {
				return nil, err
			}
			if it == nil {
				break
			}
			seq = append(seq, it)
		}
		resp.Results = append(resp.Results, seq)
	}
	peers, err := rs.Finish()
	if err != nil {
		return nil, err
	}
	resp.Peers = peers
	return resp, nil
}

func TestResponseStreamMatchesDecodeResponse(t *testing.T) {
	msgs := [][]byte{}
	for _, resp := range fixtureResponses(t) {
		msgs = append(msgs, EncodeResponse(resp))
	}
	msgs = append(msgs,
		[]byte(`<env:Envelope><env:Body><xrpc:response xrpc:module="m" xrpc:method="f"/></env:Body></env:Envelope>`),
		[]byte(`<env:Envelope><env:Body><xrpc:response xrpc:module="m" xrpc:method="f"><xrpc:sequence/><xrpc:sequence></xrpc:sequence></xrpc:response></env:Body></env:Envelope>`),
		[]byte(`<env:Envelope><env:Body><junk/><xrpc:response xrpc:module="m" xrpc:method="f"><xrpc:sequence><xrpc:element/><xrpc:atomic-value>u</xrpc:atomic-value></xrpc:sequence></xrpc:response><trailing/></env:Body><post/></env:Envelope>`),
	)
	r := rand.New(rand.NewSource(23))
	for iter := 0; iter < 100; iter++ {
		resp := &Response{Module: "m" + benignText(r), Method: "f"}
		for i := r.Intn(5); i > 0; i-- {
			resp.Results = append(resp.Results, randomSequence(r))
		}
		for i := r.Intn(3); i > 0; i-- {
			resp.Peers = append(resp.Peers, "xrpc://peer/"+benignText(r))
		}
		msgs = append(msgs, EncodeResponse(resp))
	}
	// the hand-written Body and Envelope shapes: the same outcome as
	// DecodeResponse down to the error text, except where the row itself
	// states the divergence
	shapes := map[int]envelopeShape{}
	for _, sh := range envelopeShapes() {
		shapes[len(msgs)] = sh
		msgs = append(msgs, []byte(sh.msg))
	}
	for i, msg := range msgs {
		want, errWant := DecodeResponse(msg)
		sh, isShape := shapes[i]
		if isShape && fmt.Sprint(errWant) != cmp.Or(sh.err, "<nil>") {
			t.Fatalf("%s: DecodeResponse error %v, want %q", sh.name, errWant, sh.err)
		}
		for _, size := range []int{1, 7, 64, len(msg)} {
			rs, err := NewResponseStream(&chunkReader{data: msg, size: size})
			if (err == nil) != (errWant == nil || sh.atFinish) {
				t.Fatalf("msg %d chunk=%d: buffered err=%v, stream header err=%v (error due at Finish: %v)", i, size, errWant, err, sh.atFinish)
			}
			var got *Response
			if err == nil {
				got, err = collectStream(rs)
			}
			if (errWant == nil) != (err == nil) || err != nil && err.Error() != cmp.Or(sh.streamErr, errWant.Error()) {
				t.Fatalf("msg %d chunk=%d: buffered err=%v, stream err=%v", i, size, errWant, err)
			}
			if errWant != nil {
				continue
			}
			if got.Module != want.Module || got.Method != want.Method {
				t.Fatalf("msg %d chunk=%d: header mismatch: got %q/%q want %q/%q",
					i, size, got.Module, got.Method, want.Module, want.Method)
			}
			if gb, wb := EncodeResponse(got), EncodeResponse(want); !bytes.Equal(gb, wb) {
				t.Fatalf("msg %d chunk=%d: streamed response differs\nstream: %s\nbuffered: %s", i, size, gb, wb)
			}
			if fmt.Sprint(got.Peers) != fmt.Sprint(want.Peers) {
				t.Fatalf("msg %d chunk=%d: peers differ: %v vs %v", i, size, got.Peers, want.Peers)
			}
		}
	}
}

// TestResponseStreamPartialConsumption: skipping items and sequences
// midway must not corrupt the walk — Finish still validates and returns
// the peers.
func TestResponseStreamPartialConsumption(t *testing.T) {
	resp := fixtureResponses(t)[0] // 3 results + 2 peers
	msg := EncodeResponse(resp)
	// read only the first sequence's first item, then Finish
	rs, err := NewResponseStream(bytes.NewReader(msg))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := rs.NextSequence(); err != nil || !ok {
		t.Fatalf("NextSequence: %v %v", ok, err)
	}
	if it, err := rs.NextItem(); err != nil || it == nil {
		t.Fatalf("NextItem: %v %v", it, err)
	}
	peers, err := rs.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(peers) != fmt.Sprint(resp.Peers) {
		t.Fatalf("peers after partial read: %v want %v", peers, resp.Peers)
	}
	// NextSequence with unread items auto-discards them
	rs, err = NewResponseStream(bytes.NewReader(msg))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		ok, err := rs.NextSequence()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != len(resp.Results) {
		t.Fatalf("skipping walk saw %d sequences, want %d", n, len(resp.Results))
	}
}

// failAfterWriter errors once n bytes have been written.
type failAfterWriter struct {
	n   int
	err error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.n -= len(p)
	if w.n < 0 {
		return 0, w.err
	}
	return len(p), nil
}

// TestStreamEncoderMatchesBuffered: the sink-writer encoder must emit
// byte-identical envelopes to the buffered one at any chunk size, both
// via Encode*To and via incremental Begin/End composition.
func TestStreamEncoderMatchesBuffered(t *testing.T) {
	reqs := fixtureRequests(t)
	resps := fixtureResponses(t)
	fault := &Fault{Code: "env:Sender", Reason: "r&<>\n"}
	for _, chunk := range []int{1, 7, 64, 32 << 10} {
		for i, req := range reqs {
			var buf bytes.Buffer
			e := NewStreamEncoder(&buf, chunk)
			e.EncodeRequest(req)
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			e.Release()
			if want := EncodeRequest(req); !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("request %d chunk=%d: streamed encode differs\nstream: %s\nbuffered: %s",
					i, chunk, buf.Bytes(), want)
			}
		}
		for i, resp := range resps {
			var buf bytes.Buffer
			if err := func() error {
				e := NewStreamEncoder(&buf, chunk)
				defer e.Release()
				e.EncodeResponse(resp)
				return e.Flush()
			}(); err != nil {
				t.Fatal(err)
			}
			if want := EncodeResponse(resp); !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("response %d chunk=%d: streamed encode differs", i, chunk)
			}
			// incremental composition: the path the scatter-gather merge
			// drives
			buf.Reset()
			e := NewStreamEncoder(&buf, chunk)
			e.BeginResponse(resp.Module, resp.Method)
			for _, seq := range resp.Results {
				e.BeginSequence()
				for _, it := range seq {
					e.EncodeItem(it)
				}
				e.EndSequence()
			}
			e.EndResponse(resp.Peers)
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			e.Release()
			if want := EncodeResponse(resp); !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("response %d chunk=%d: composed encode differs\ncomposed: %s\nbuffered: %s",
					i, chunk, buf.Bytes(), want)
			}
		}
		var buf bytes.Buffer
		e := NewStreamEncoder(&buf, chunk)
		e.EncodeFault(fault)
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		e.Release()
		if want := EncodeFault(fault); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("fault chunk=%d: streamed encode differs", chunk)
		}
	}
}

func TestStreamEncoderWriteError(t *testing.T) {
	boom := errors.New("sink full")
	w := &failAfterWriter{n: 50, err: boom}
	e := NewStreamEncoder(w, 16)
	e.EncodeResponse(fixtureResponses(t)[1])
	if err := e.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush: want sink error, got %v", err)
	}
	if err := e.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err: want sink error, got %v", err)
	}
	e.Release()
	// a released-and-reacquired encoder must not remember the sink
	e2 := NewEncoder()
	e2.EncodeFault(&Fault{Code: "c", Reason: "r"})
	if err := e2.Err(); err != nil {
		t.Fatalf("fresh encoder carries stale sink error: %v", err)
	}
	e2.Release()
}

func TestResponseStreamFaults(t *testing.T) {
	// a fault message surfaces at NewResponseStream
	msg := EncodeFault(&Fault{Code: "env:Sender", Reason: "nope"})
	_, err := NewResponseStream(bytes.NewReader(msg))
	var f *Fault
	if !errors.As(err, &f) || f.Reason != "nope" {
		t.Fatalf("fault header: got %v", err)
	}
	// a fault after the response element surfaces at Finish (buffered
	// Decode gives it precedence up front; see the ResponseStream doc)
	after := []byte(`<env:Envelope><env:Body><xrpc:response xrpc:module="m" xrpc:method="f"><xrpc:sequence/></xrpc:response><env:Fault><env:Code><env:Value>env:Receiver</env:Value></env:Code><env:Reason><env:Text>late</env:Text></env:Reason></env:Fault></env:Body></env:Envelope>`)
	if _, err := DecodeResponse(after); err == nil {
		t.Fatal("buffered decoder should also reject response+fault bodies")
	}
	rs, err := NewResponseStream(bytes.NewReader(after))
	if err != nil {
		t.Fatalf("header should pass (fault is later): %v", err)
	}
	_, err = rs.Finish()
	if !errors.As(err, &f) || f.Reason != "late" {
		t.Fatalf("late fault: got %v", err)
	}
	// a request message is rejected like DecodeResponse rejects it
	reqMsg := EncodeRequest(fixtureRequests(t)[0])
	if _, err := NewResponseStream(bytes.NewReader(reqMsg)); err == nil {
		t.Fatal("request accepted as response stream")
	}
	// truncated mid-stream: error, not a short success
	long := EncodeResponse(fixtureResponses(t)[1])
	rs, err = NewResponseStream(bytes.NewReader(long[:len(long)-30]))
	if err == nil {
		if _, err = collectStream(rs); err == nil {
			t.Fatal("truncated response stream completed without error")
		}
	}
}
