package soap

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"xrpc/internal/xdm"
)

// cutthrough_test.go pins ResponseStream.NextItemRaw — the read a
// forwarding consumer (cluster's writer sink) splices item bytes with —
// to the decoded read it replaces: on everything Encoder writes the
// spliced envelope is byte-equal to decode → EncodeItem (and to the
// input), on hand-written wrappers under Encoder's framing it decodes to
// the same items, and under any other framing nothing is lent out.

// forwarded is one walk of a response rebuilt as an Encoder-framed
// envelope: by splicing wrapper bytes where the stream lends them out
// (raw), item by decoded item otherwise — the merge loop of
// cluster.Coordinator with one part.
type forwarded struct {
	env              []byte
	spliced, decoded int // wrappers taken as bytes, items taken as trees
	largest          int // longest spliced wrapper
}

func forward(rs *ResponseStream, raw bool) (*forwarded, error) {
	f := &forwarded{}
	e := NewEncoder()
	defer e.Release()
	e.BeginResponse(rs.Module(), rs.Method())
	for {
		ok, err := rs.NextSequence()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		e.BeginSequence()
		for {
			var (
				b       []byte
				it      xdm.Item
				spliced bool
			)
			if raw {
				b, spliced, err = rs.NextItemRaw()
			}
			if !spliced && err == nil {
				it, err = rs.NextItem()
			}
			if err != nil {
				return nil, err
			}
			if rs.d.sc.Pinned() {
				return nil, fmt.Errorf("read window still pinned after an item read")
			}
			if b == nil && it == nil {
				break
			}
			if b != nil {
				f.spliced++
				if len(b) > f.largest {
					f.largest = len(b)
				}
				e.RawSequence(b)
			} else {
				f.decoded++
				e.EncodeItem(it)
			}
		}
		e.EndSequence()
	}
	peers, err := rs.Finish()
	if err != nil {
		return nil, err
	}
	e.EndResponse(peers)
	f.env = e.Copy()
	return f, nil
}

// byteModeStream is a ResponseStream over a whole message in memory
// (the scanner's byte mode, which never refills or compacts).
func byteModeStream(msg []byte) (*ResponseStream, error) {
	rs := &ResponseStream{d: decoder{sc: xdm.NewScanner(msg, nil, internTable)}}
	if err := rs.header(); err != nil {
		return nil, err
	}
	return rs, nil
}

// everyReader opens msg in byte mode, as one read, byte at a time, in
// small chunks and — when splits is set — cut in two at every offset.
func everyReader(t *testing.T, msg []byte, splits bool, visit func(label string, rs *ResponseStream)) {
	t.Helper()
	open := func(label string, r io.Reader) {
		rs, err := NewResponseStream(r)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		visit(label, rs)
	}
	rs, err := byteModeStream(msg)
	if err != nil {
		t.Fatalf("byte mode: %v", err)
	}
	visit("byte mode", rs)
	open("one read", bytes.NewReader(msg))
	open("byte at a time", iotest.OneByteReader(bytes.NewReader(msg)))
	for _, size := range []int{3, 61, 512} {
		open(fmt.Sprintf("chunk=%d", size), &chunkReader{data: msg, size: size})
	}
	if splits {
		for cut := 1; cut < len(msg); cut++ {
			open(fmt.Sprintf("split at %d", cut),
				io.MultiReader(bytes.NewReader(msg[:cut]), bytes.NewReader(msg[cut:])))
		}
	}
}

// itemKindResponses holds one response per kind of item Encoder writes,
// every atomic type, runs of the same kind, and empty sequences.
func itemKindResponses(t testing.TB) []*Response {
	el, err := xdm.ParseFragment(`<e a="1&lt;" b="&quot;q'&#10;">t &amp; &lt;u&gt;<sub x="y"/><!--c--><?pi d?><deep><er>é💡</er></deep></e>`)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xdm.ParseDocument("d.xml", `<?top pi?><!--lead--><root><x/>text</root>`)
	if err != nil {
		t.Fatal(err)
	}
	sealed := func(n *xdm.Node) *xdm.Node { n.Seal(); return n }
	attr := func(name, v string) xdm.Item { return sealed(xdm.NewAttribute(name, v)) }
	return []*Response{
		{Module: "m", Method: "element", Results: []xdm.Sequence{{el[0]}, {el[0], el[0]}}},
		{Module: "m", Method: "document", Results: []xdm.Sequence{{doc}}},
		{Module: "m", Method: "attribute", Results: []xdm.Sequence{
			{attr("k", "v"), attr("l", `<&"'>`), attr("m", "line\nbreak\ttab")}}},
		{Module: "m", Method: "text", Results: []xdm.Sequence{
			{sealed(xdm.NewText("some <text> & \"more\"")), sealed(xdm.NewText(""))}}},
		{Module: "m", Method: "comment", Results: []xdm.Sequence{{sealed(xdm.NewComment(" a > comment "))}}},
		{Module: "m", Method: "pi", Results: []xdm.Sequence{{sealed(xdm.NewPI("target", "some data"))}}},
		{Module: "m", Method: "atomics", Results: []xdm.Sequence{{
			xdm.String("s <&> \"q\""), xdm.String(""), xdm.Integer(-42), xdm.Decimal(3.25),
			xdm.Double(1e300), xdm.Double(0.1), xdm.Boolean(true), xdm.Boolean(false),
			xdm.Untyped("u & v"),
		}}},
		{Module: "m&<\"", Method: "é", Results: []xdm.Sequence{{}, {}, {xdm.Integer(1)}, {}},
			Peers: []string{"xrpc://p1", "xrpc://p&2"}},
		{Module: "m", Method: "none"},
	}
}

// oursFramed wraps sequences (written out by hand) in exactly the
// framing Encoder writes.
func oursFramed(sequences string) []byte {
	e := NewEncoder()
	defer e.Release()
	e.BeginResponse("m", "f")
	e.str(sequences)
	e.EndResponse(nil)
	return e.Copy()
}

func TestCutThroughEqualsReencode(t *testing.T) {
	// What Encoder writes: every wrapper is lent out, and the splice, the
	// decode → EncodeItem envelope and the input are the same bytes.
	var written [][]byte
	for _, resp := range append(fixtureResponses(t), itemKindResponses(t)...) {
		written = append(written, EncodeResponse(resp))
	}
	r := rand.New(rand.NewSource(29))
	for i := 0; i < 60; i++ {
		resp := &Response{Module: "m" + benignText(r), Method: "f"}
		for n := r.Intn(5); n > 0; n-- {
			resp.Results = append(resp.Results, randomSequence(r))
		}
		// randomTree builds what no parse does (empty and adjacent text
		// nodes): one decode makes it a value a peer could hold
		resp, err := DecodeResponse(EncodeResponse(resp))
		if err != nil {
			t.Fatal(err)
		}
		written = append(written, EncodeResponse(resp))
	}
	for i, msg := range written {
		rs, err := NewResponseStream(bytes.NewReader(msg))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := forward(rs, false)
		if err != nil || !bytes.Equal(ref.env, msg) {
			t.Fatalf("response %d: decode → EncodeItem is not the input (err %v)", i, err)
		}
		everyReader(t, msg, len(msg) < 2500, func(label string, rs *ResponseStream) {
			got, err := forward(rs, true)
			if err != nil {
				t.Fatalf("response %d, %s: %v", i, label, err)
			}
			if got.spliced != ref.decoded || got.decoded != 0 {
				t.Fatalf("response %d, %s: %d wrappers spliced and %d items decoded, want %d and 0",
					i, label, got.spliced, got.decoded, ref.decoded)
			}
			if !bytes.Equal(got.env, msg) {
				t.Fatalf("response %d, %s: spliced envelope differs from the input\nspliced: %s\ninput:   %s",
					i, label, got.env, msg)
			}
		})
	}

	// Encoder's framing around wrappers Encoder never writes: lent out as
	// they are, and a consumer decodes the same items from them. The
	// self-closed <xrpc:sequence/> is framing Encoder does not write, so
	// from there on the stream is decoded.
	hand := oursFramed(
		`<xrpc:sequence><xrpc:attribute a="1" b='two' c="&lt;3"/><xrpc:element/>` + "\n  " +
			`<xrpc:element><p/> between <q r='s'>t</q></xrpc:element>` +
			`<xrpc:element><a b="&#65;"><![CDATA[<raw>&amp;]]>tail</a ></xrpc:element>` +
			`<xrpc:atomic-value xsi:type="xs:integer"> 007 </xrpc:atomic-value>` +
			`<xrpc:atomic-value>untyped</xrpc:atomic-value><xrpc:text>cr&#13;lf</xrpc:text>` +
			`<xrpc:document><!--c--><r/></xrpc:document></xrpc:sequence>` + "\n" +
			`<xrpc:sequence></xrpc:sequence>` + "\n" +
			`<xrpc:sequence/>` +
			`<xrpc:sequence><xrpc:attribute x="1" y="2"/><xrpc:atomic-value xsi:type="xs:boolean">1</xrpc:atomic-value></xrpc:sequence>` + "\n")
	everyReader(t, hand, true, func(label string, rs *ResponseStream) {
		got, err := forward(rs, true)
		if err != nil {
			t.Fatalf("hand-written wrappers, %s: %v", label, err)
		}
		if got.spliced != 8 || got.decoded != 3 {
			t.Fatalf("hand-written wrappers, %s: %d wrappers spliced and %d items decoded, want 8 and 3",
				label, got.spliced, got.decoded)
		}
		assertSameItems(t, "hand-written wrappers, "+label, got.env, hand)
	})

	// Any other framing lends nothing out: the forwarder decodes, and its
	// envelope is the one it built before there was a raw read.
	foreign := [][]byte{
		[]byte(`<?xml version="1.0"?><S:Envelope xmlns:S="e" xmlns:x="u" xmlns:i="i"><S:Body><x:response x:module="m" x:method="f"><x:sequence><x:atomic-value i:type="xs:integer">7</x:atomic-value><x:element><a/></x:element></x:sequence></x:response></S:Body></S:Envelope>`),
		[]byte(`<env:Envelope><env:Body><xrpc:response xrpc:module="m" xrpc:method="f"><xrpc:sequence><xrpc:element><a b="&#65;"><![CDATA[<raw>]]></a></xrpc:element></xrpc:sequence></xrpc:response></env:Body></env:Envelope>`),
		[]byte(envelopeHeader + `<xrpc:response xmlns:xs="urn:other" xrpc:module="m" xrpc:method="f">` + "\n" +
			`<xrpc:sequence><xrpc:atomic-value xsi:type="xs:integer">7</xrpc:atomic-value></xrpc:sequence>` + "\n</xrpc:response>\n" + envelopeFooter),
		[]byte(envelopeHeader + `<xrpc:response xrpc:method="f" xrpc:module="m">` + "\n" +
			`<xrpc:sequence><xrpc:text>t</xrpc:text></xrpc:sequence>` + "\n</xrpc:response>\n" + envelopeFooter),
		[]byte(envelopeHeader + "<!-- before -->" + `<xrpc:response xrpc:module="m" xrpc:method="f">` + "\n" +
			`<xrpc:sequence><xrpc:text>t</xrpc:text></xrpc:sequence>` + "\n</xrpc:response>\n" + envelopeFooter),
		[]byte(strings.Replace(envelopeHeader, "\n", "\r\n", 1) + `<xrpc:response xrpc:module="m" xrpc:method="f">` + "\n" +
			`<xrpc:sequence><xrpc:comment>c</xrpc:comment></xrpc:sequence>` + "\n</xrpc:response>\n" + envelopeFooter),
	}
	for i, msg := range foreign {
		rs, err := NewResponseStream(bytes.NewReader(msg))
		if err != nil {
			t.Fatalf("foreign %d: %v", i, err)
		}
		ref, err := forward(rs, false)
		if err != nil {
			t.Fatalf("foreign %d: %v", i, err)
		}
		everyReader(t, msg, true, func(label string, rs *ResponseStream) {
			got, err := forward(rs, true)
			if err != nil {
				t.Fatalf("foreign %d, %s: %v", i, label, err)
			}
			if got.spliced != 0 || got.decoded == 0 {
				t.Fatalf("foreign %d, %s: %d wrappers spliced out of framing that is not Encoder's", i, label, got.spliced)
			}
			if !bytes.Equal(got.env, ref.env) {
				t.Fatalf("foreign %d, %s: forwarded envelope differs from decode → EncodeItem", i, label)
			}
		})
		assertSameItems(t, fmt.Sprintf("foreign %d", i), ref.env, msg)
	}
}

// assertSameItems requires two response envelopes to decode to the same
// results and peers.
func assertSameItems(t *testing.T, label string, got, want []byte) {
	t.Helper()
	g, err := DecodeResponse(got)
	if err != nil {
		t.Fatalf("%s: forwarded envelope does not decode: %v\n%s", label, err, got)
	}
	w, err := DecodeResponse(want)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	g.Module, g.Method = w.Module, w.Method
	if gb, wb := EncodeResponse(g), EncodeResponse(w); !bytes.Equal(gb, wb) {
		t.Fatalf("%s: forwarded envelope decodes to other items\nforwarded: %s\noriginal:  %s", label, gb, wb)
	}
}

// TestNextItemRawValidates is the forwarding read's side of the
// validation boundary (see ResponseStream): what breaks the walk is
// rejected by the raw read as by the decoded one; what only building the
// value checks passes through and fails at whoever decodes the splice.
func TestNextItemRawValidates(t *testing.T) {
	good := `<xrpc:atomic-value xsi:type="xs:string">ok</xrpc:atomic-value>`
	for _, c := range []struct {
		name, sequences string
		cut             int    // bytes dropped from the end of the message
		raw             string // error of the raw walk ("" = accepts)
		consumer        string // error of decoding what the raw walk forwarded
	}{
		{name: "well formed", sequences: `<xrpc:sequence>` + good + `</xrpc:sequence>`},
		{name: "truncated body", sequences: `<xrpc:sequence>` + good + `<xrpc:element><a>text</a></xrpc:element></xrpc:sequence>`,
			cut: len("</a></xrpc:element></xrpc:sequence>\n</xrpc:response>\n" + envelopeFooter), raw: "unclosed element"},
		{name: "unbalanced end tag", sequences: `<xrpc:sequence>` + good + `</xrpc:sequence></x></x></x></x></x>`,
			raw: "unbalanced end tag"},
		{name: "markup not well formed", sequences: `<xrpc:sequence><xrpc:element><a b=c/></xrpc:element></xrpc:sequence>`,
			raw: "unquoted value"},
		{name: "bad entity in an attribute", sequences: `<xrpc:sequence><xrpc:element><a b="&nope;"/></xrpc:element></xrpc:sequence>`,
			raw: "unknown entity"},
		{name: "unknown wrapper", sequences: `<xrpc:sequence>` + good + `<xrpc:bogus>1</xrpc:bogus></xrpc:sequence>`,
			raw: `unknown sequence item element "xrpc:bogus"`},
		{name: "lexically invalid atomic", sequences: `<xrpc:sequence>` + good + `<xrpc:atomic-value xsi:type="xs:integer">abc</xrpc:atomic-value></xrpc:sequence>`,
			consumer: `soap: bad atomic value "abc" as xs:integer`},
		{name: "bad entity in text", sequences: `<xrpc:sequence><xrpc:element><a>&nope;</a></xrpc:element></xrpc:sequence>`,
			consumer: "unknown entity"},
	} {
		t.Run(c.name, func(t *testing.T) {
			msg := oursFramed(c.sequences + "\n")
			msg = msg[:len(msg)-c.cut]
			wantErr := func(what string, err error, want string) {
				t.Helper()
				if want == "" && err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if want != "" && (err == nil || !strings.Contains(err.Error(), want)) {
					t.Fatalf("%s: err = %v, want one containing %q", what, err, want)
				}
			}
			for _, size := range []int{1, 64, len(msg)} {
				rs, err := NewResponseStream(&chunkReader{data: msg, size: size})
				if err != nil {
					t.Fatal(err)
				}
				got, err := forward(rs, true)
				wantErr("raw walk", err, c.raw)
				// the decoded walk rejects everything either side rejects
				rs, err = NewResponseStream(&chunkReader{data: msg, size: size})
				if err != nil {
					t.Fatal(err)
				}
				_, err = forward(rs, false)
				wantErr("decoded walk", err, c.raw+c.consumer)
				if c.raw != "" {
					continue
				}
				_, err = DecodeResponse(got.env)
				wantErr("consumer", err, c.consumer)
			}
		})
	}
}

// TestNextItemRawWindowBounded: pinning the read window for one wrapper
// must not let it grow with the response — after thousands of items it
// still holds about one wrapper and one read.
func TestNextItemRawWindowBounded(t *testing.T) {
	item := xdm.String(strings.Repeat("x", 1000))
	resp := &Response{Module: "m", Method: "f", Results: []xdm.Sequence{{}}}
	for i := 0; i < 4000; i++ {
		resp.Results[0] = append(resp.Results[0], item)
	}
	msg := EncodeResponse(resp)
	for _, size := range []int{1, 700, 32 << 10} {
		rs, err := NewResponseStream(&chunkReader{data: msg, size: size})
		if err != nil {
			t.Fatal(err)
		}
		got, err := forward(rs, true)
		if err != nil {
			t.Fatal(err)
		}
		if got.spliced != 4000 || !bytes.Equal(got.env, msg) {
			t.Fatalf("chunk=%d: %d wrappers spliced, envelope equal: %v", size, got.spliced, bytes.Equal(got.env, msg))
		}
		if bound := xdm.WindowBound(got.largest, size); rs.d.sc.Window() > bound {
			t.Fatalf("chunk=%d: read window grew to %d bytes for %d-byte wrappers in a %d-byte response (bound %d)",
				size, rs.d.sc.Window(), got.largest, len(msg), bound)
		}
	}
}
