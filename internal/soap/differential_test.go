package soap

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"xrpc/internal/xdm"
)

// differential_test.go pins the streaming wire path to the DOM-based
// reference implementations: the pooled Encoder must produce bytes
// identical to the strings.Builder reference encoder, and the
// pull-decoder must agree with DecodeDOM, on fixtures and on randomized
// messages covering ByFragment, QueryID, SeqNrs, node parameters of
// every kind, and Fault messages.

// fixtureRequests returns the request fixtures used across the
// round-trip, differential, benchmark and fuzz tests.
func fixtureRequests(t testing.TB) []*Request {
	frag := func(s string) *xdm.Node {
		ns, err := xdm.ParseFragment(s)
		if err != nil {
			t.Fatal(err)
		}
		return ns[0]
	}
	person := frag(`<person id="p7"><name>Kathy Blanton</name><emailaddress>mailto:kblanton@example.org</emailaddress></person>`)
	reqs := []*Request{
		{
			Module: "films", Method: "filmsByActor", Arity: 1,
			Location: "http://x.example.org/film.xq",
			Calls:    [][]xdm.Sequence{{{xdm.String("Sean Connery")}}},
		},
		{
			Module: "films", Method: "filmsByActor", Arity: 1,
			Location:   "http://x.example.org/film.xq",
			Updating:   true,
			TraceID:    "t-00c0ffee1badcafe",
			Projection: "annotation buyer/name",
			QueryID: &QueryID{
				ID:        "q-123",
				Host:      "xrpc://a.example.org",
				Timestamp: time.Date(2007, 9, 23, 12, 0, 0, 12345, time.UTC),
				Timeout:   30,
			},
			Calls: [][]xdm.Sequence{
				{{xdm.String("Julie Andrews")}},
				{{xdm.String("Sean Connery")}},
			},
			SeqNrs: []int64{4, 2},
		},
		{
			Module: "m", Method: "f", Arity: 1, Location: "l",
			Calls: [][]xdm.Sequence{{{xdm.Integer(2), xdm.Double(3.1), xdm.Boolean(true), xdm.Decimal(-0.5), xdm.Untyped("u"), xdm.String(`a<b>&"c`)}}},
		},
		{
			Module: "m", Method: "f", Arity: 2, Location: "l",
			Calls: [][]xdm.Sequence{{
				{person, xdm.String("x")},
				{frag(`<name>The Rock</name>`)},
			}},
		},
		{
			Module: "m", Method: "f", Arity: 0, Location: "l",
			Calls: [][]xdm.Sequence{{}, {}, {}},
		},
	}
	// call-by-fragment: the second parameter is a descendant of the first
	desc := person.Children()[0]
	reqs = append(reqs, &Request{
		Module: "m", Method: "f", Arity: 2, Location: "l",
		ByFragment: true,
		Calls:      [][]xdm.Sequence{{{person}, {desc}}},
	})
	return reqs
}

// fixtureResponses returns response/fault fixtures.
func fixtureResponses(t testing.TB) []*Response {
	el, err := xdm.ParseFragment(`<e a="1">t<sub x="y"/><!--c--><?pi d?></e>`)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xdm.ParseDocument("d.xml", `<root><x/>text</root>`)
	if err != nil {
		t.Fatal(err)
	}
	// benign attribute value: the reference encoder writes bare attribute
	// items with %q, which breaks on markup (hostile values are covered by
	// TestHostileAttributeValues)
	attr := xdm.NewAttribute("k", "v'benign")
	attr.Seal()
	text := xdm.NewText("some <text> & more")
	text.Seal()
	comment := xdm.NewComment("a comment")
	comment.Seal()
	pi := xdm.NewPI("target", "data")
	pi.Seal()
	return []*Response{
		{
			Module: "films", Method: "filmsByActor",
			Results: []xdm.Sequence{
				{xdm.String("one")},
				{},
				{xdm.Integer(42)},
			},
			Peers: []string{"xrpc://y.example.org", "xrpc://z.example.org"},
		},
		{
			Module: "m", Method: "f",
			Results: []xdm.Sequence{{el[0], doc, attr, text, comment, pi}},
		},
	}
}

// envelopeShapes are the Envelope and Body shapes the grammar walks
// (child, openBody/closeEnvelope, nextResult) decide, written by hand
// because no encoder of ours produces them. Every decoder must read each
// row the same way: Decode and DecodeDOM (TestDecoderAgreesWithDOMOnFixtures,
// which also feeds DecodeStream 1, 7 and 64 bytes at a time) and the
// ResponseStream drain (TestResponseStreamMatchesDecodeResponse).
type envelopeShape struct {
	name, msg string
	// want is the message Decode yields, nil when it fails; err is the
	// error of DecodeResponse, which is Decode's when that fails.
	want *Message
	err  string
	// atFinish and streamErr state the one divergence of the stream: it
	// commits to the first Fault, request or response in document order.
	// Behind a response, the error DecodeResponse raises then comes from
	// Finish, not from the header; behind a request, a Fault is not
	// reached, and the error is streamErr.
	atFinish  bool
	streamErr string
}

func envelopeShapes() []envelopeShape {
	const (
		open  = `<env:Envelope xmlns:env="e" xmlns:xrpc="x" xmlns:xsi="i">`
		resp1 = `<xrpc:response xrpc:module="m" xrpc:method="f"><xrpc:sequence><xrpc:atomic-value xsi:type="xs:integer">1</xrpc:atomic-value></xrpc:sequence></xrpc:response>`
		resp2 = `<xrpc:response xrpc:module="m2" xrpc:method="g"><xrpc:sequence><xrpc:atomic-value xsi:type="xs:integer">2</xrpc:atomic-value></xrpc:sequence></xrpc:response>`
		req   = `<xrpc:request xrpc:module="m" xrpc:method="f" xrpc:arity="1" xrpc:location="l"><xrpc:call><xrpc:sequence><xrpc:atomic-value xsi:type="xs:integer">3</xrpc:atomic-value></xrpc:sequence></xrpc:call></xrpc:request>`
		fault = `<env:Fault><env:Code><env:Value>env:Sender</env:Value></env:Code><env:Reason><env:Text xml:lang="en">boom</env:Text></env:Reason></env:Fault>`
		noise = ` t <!--c--><?p i?> `
	)
	one := &Message{Response: &Response{Module: "m", Method: "f", Results: []xdm.Sequence{{xdm.Integer(1)}}}}
	three := &Message{Request: &Request{Module: "m", Method: "f", Arity: 1, Location: "l", Calls: [][]xdm.Sequence{{{xdm.Integer(3)}}}}}
	boom := &Message{Fault: &Fault{Code: "env:Sender", Reason: "boom"}}
	const notResponse = "soap: message is not a response"
	return []envelopeShape{
		{name: "Header before Body", want: one,
			msg: open + `<env:Header><xrpc:response xrpc:module="h" xrpc:method="h"/><env:Body/></env:Header><env:Body>` + resp1 + `</env:Body></env:Envelope>`},
		{name: "two Bodies, first wins", want: one,
			msg: open + `<env:Body>` + resp1 + `</env:Body><env:Body>` + fault + `</env:Body></env:Envelope>`},
		{name: "empty first Body still wins", err: "soap: body contains no request, response or fault",
			msg: open + `<env:Body></env:Body><env:Body>` + resp1 + `</env:Body></env:Envelope>`},
		{name: "two responses, first wins", want: one,
			msg: open + `<env:Body>` + resp1 + resp2 + `</env:Body></env:Envelope>`},
		{name: "request after the response", want: three, err: notResponse, atFinish: true,
			msg: open + `<env:Body>` + resp1 + req + `</env:Body></env:Envelope>`},
		{name: "request before the response", want: three, err: notResponse,
			msg: open + `<env:Body>` + req + resp1 + `</env:Body></env:Envelope>`},
		{name: "Fault after the response", want: boom, err: boom.Fault.Error(), atFinish: true,
			msg: open + `<env:Body>` + resp1 + fault + `</env:Body></env:Envelope>`},
		{name: "Fault after a request", want: boom, err: boom.Fault.Error(), streamErr: notResponse,
			msg: open + `<env:Body>` + req + fault + `</env:Body></env:Envelope>`},
		{name: "self-closed Envelope", err: "soap: missing Body",
			msg: `<env:Envelope xmlns:env="e"/>`},
		{name: "Envelope without Body", err: "soap: missing Body",
			msg: open + `<env:Header/>` + resp1 + `</env:Envelope>`},
		{name: "no Envelope", err: "soap: missing Envelope",
			msg: `<?xml version="1.0"?><!--c--><other><env:Envelope><env:Body>` + resp1 + `</env:Body></env:Envelope></other>`},
		{name: "self-closed Body", err: "soap: body contains no request, response or fault",
			msg: open + `<env:Body/></env:Envelope>`},
		{name: "Body of strangers", err: "soap: body contains no request, response or fault",
			msg: open + `<env:Body><a>` + resp1 + `</a><b/></env:Body></env:Envelope>`},
		{name: "self-closed response", want: &Message{Response: &Response{Module: "m", Method: "f"}},
			msg: open + `<env:Body><xrpc:response xrpc:module="m" xrpc:method="f"/></env:Body></env:Envelope>`},
		{name: "self-closed Fault children and request", want: &Message{Fault: &Fault{Code: "env:Receiver"}}, err: (&Fault{Code: "env:Receiver"}).Error(),
			msg: open + `<env:Body><env:Fault><env:Code/><env:Reason/></env:Fault><xrpc:request/></env:Body></env:Envelope>`},
		{name: "text, comment and PI between the children of a response",
			want: &Message{Response: &Response{Module: "m", Method: "f", Results: []xdm.Sequence{{xdm.Integer(1), xdm.Integer(2)}, nil}, Peers: []string{"xrpc://p", "xrpc://q"}}},
			msg: `<?xml version="1.0"?> <!--c--><?p i?> ` + open + noise + `<env:Body>` + noise +
				`<xrpc:response xrpc:module="m" xrpc:method="f">` + noise +
				`<xrpc:sequence>` + noise + `<xrpc:atomic-value xsi:type="xs:integer">1</xrpc:atomic-value>` + noise +
				`<xrpc:atomic-value xsi:type="xs:integer">2</xrpc:atomic-value>` + noise + `</xrpc:sequence>` + noise +
				`<xrpc:participatingPeers>` + noise + `<xrpc:peer uri="xrpc://p"/>` + noise + `<xrpc:peer uri="xrpc://q">` + noise + `</xrpc:peer>` + noise + `</xrpc:participatingPeers>` + noise +
				`<xrpc:sequence>` + noise + `</xrpc:sequence>` + noise + `</xrpc:response>` + noise +
				`</env:Body>` + noise + `<after/>` + noise + `</env:Envelope> <!--c--><?p i?> `},
		{name: "text, comment and PI between the children of a request", want: three, err: notResponse,
			msg: open + noise + `<env:Body>` + noise +
				`<xrpc:request xrpc:module="m" xrpc:method="f" xrpc:arity="1" xrpc:location="l">` + noise +
				`<xrpc:call>` + noise + `<xrpc:sequence>` + noise + `<xrpc:atomic-value xsi:type="xs:integer">3</xrpc:atomic-value>` + noise + `</xrpc:sequence>` + noise + `</xrpc:call>` + noise +
				`</xrpc:request>` + noise + `</env:Body>` + noise + `</env:Envelope>`},
		{name: "text, comment and PI between the children of a Fault", want: boom, err: boom.Fault.Error(),
			msg: open + `<env:Body>` + noise + `<env:Fault>` + noise + `<env:Code>` + noise + `<env:Subcode/>` + noise +
				`<env:Value>env:Sender</env:Value>` + noise + `<env:Value>second</env:Value>` + noise + `</env:Code>` + noise +
				`<env:Reason><env:Text xml:lang="en">boom</env:Text></env:Reason>` + noise + `<env:Code><env:Value>late</env:Value></env:Code>` + noise +
				`</env:Fault>` + noise + `</env:Body></env:Envelope>`},
	}
}

func TestEncoderMatchesReferenceOnFixtures(t *testing.T) {
	for i, req := range fixtureRequests(t) {
		if got, want := EncodeRequest(req), EncodeRequestRef(req); !bytes.Equal(got, want) {
			t.Errorf("request fixture %d: streaming and reference encoders differ\nnew: %s\nref: %s", i, got, want)
		}
	}
	for i, resp := range fixtureResponses(t) {
		if got, want := EncodeResponse(resp), EncodeResponseRef(resp); !bytes.Equal(got, want) {
			t.Errorf("response fixture %d: streaming and reference encoders differ\nnew: %s\nref: %s", i, got, want)
		}
	}
	f := &Fault{Code: "env:Sender", Reason: "could not load module!"}
	if got, want := EncodeFault(f), EncodeFaultRef(f); !bytes.Equal(got, want) {
		t.Errorf("fault: streaming and reference encoders differ\nnew: %s\nref: %s", got, want)
	}
}

// reencode canonicalizes a decoded message for comparison: a decoded
// message re-encoded must be byte-identical regardless of which decoder
// produced it.
func reencode(t *testing.T, m *Message) []byte {
	t.Helper()
	switch {
	case m.Request != nil:
		return EncodeRequest(m.Request)
	case m.Response != nil:
		return EncodeResponse(m.Response)
	case m.Fault != nil:
		return EncodeFault(m.Fault)
	}
	t.Fatal("empty message")
	return nil
}

func decodeBoth(t *testing.T, msg []byte) (*Message, *Message) {
	t.Helper()
	pull, errPull := Decode(msg)
	dom, errDOM := DecodeDOM(msg)
	if (errPull == nil) != (errDOM == nil) {
		t.Fatalf("decoder disagreement: pull err=%v, dom err=%v\nmessage:\n%s", errPull, errDOM, msg)
	}
	if errPull != nil {
		return nil, nil
	}
	return pull, dom
}

// assertAgree checks the pull and DOM decoders produced equivalent
// messages: same headers, and byte-identical re-encodings.
func assertAgree(t *testing.T, msg []byte) {
	t.Helper()
	pull, dom := decodeBoth(t, msg)
	if pull == nil {
		return
	}
	if got, want := reencode(t, pull), reencode(t, dom); !bytes.Equal(got, want) {
		t.Fatalf("pull and DOM decoders disagree\npull: %s\ndom:  %s\noriginal: %s", got, want, msg)
	}
	if pr, dr := pull.Request, dom.Request; pr != nil {
		if pr.Module != dr.Module || pr.Method != dr.Method || pr.Arity != dr.Arity ||
			pr.Location != dr.Location || pr.Updating != dr.Updating ||
			pr.TraceID != dr.TraceID || pr.Projection != dr.Projection {
			t.Fatalf("request headers disagree: pull %+v, dom %+v", pr, dr)
		}
		if (pr.QueryID == nil) != (dr.QueryID == nil) {
			t.Fatalf("queryID presence disagrees")
		}
		if pr.QueryID != nil && *pr.QueryID != *dr.QueryID {
			t.Fatalf("queryID disagrees: pull %+v, dom %+v", pr.QueryID, dr.QueryID)
		}
		if fmt.Sprint(pr.SeqNrs) != fmt.Sprint(dr.SeqNrs) {
			t.Fatalf("seqNrs disagree: pull %v, dom %v", pr.SeqNrs, dr.SeqNrs)
		}
		if len(pr.Calls) != len(dr.Calls) {
			t.Fatalf("call counts disagree: pull %d, dom %d", len(pr.Calls), len(dr.Calls))
		}
		for ci := range pr.Calls {
			if len(pr.Calls[ci]) != len(dr.Calls[ci]) {
				t.Fatalf("call %d param counts disagree", ci)
			}
			for pi := range pr.Calls[ci] {
				if !xdm.DeepEqual(pr.Calls[ci][pi], dr.Calls[ci][pi]) {
					t.Fatalf("call %d param %d disagrees: pull %v, dom %v",
						ci, pi, pr.Calls[ci][pi], dr.Calls[ci][pi])
				}
			}
		}
	}
	if pr, dr := pull.Response, dom.Response; pr != nil {
		if pr.Module != dr.Module || pr.Method != dr.Method {
			t.Fatalf("response headers disagree")
		}
		if fmt.Sprint(pr.Peers) != fmt.Sprint(dr.Peers) {
			t.Fatalf("peers disagree: pull %v, dom %v", pr.Peers, dr.Peers)
		}
		if len(pr.Results) != len(dr.Results) {
			t.Fatalf("result counts disagree")
		}
		for i := range pr.Results {
			if !xdm.DeepEqual(pr.Results[i], dr.Results[i]) {
				t.Fatalf("result %d disagrees", i)
			}
		}
	}
	if pf, df := pull.Fault, dom.Fault; pf != nil && *pf != *df {
		t.Fatalf("faults disagree: pull %+v, dom %+v", pf, df)
	}
}

func TestDecoderAgreesWithDOMOnFixtures(t *testing.T) {
	for _, req := range fixtureRequests(t) {
		assertAgree(t, EncodeRequest(req))
	}
	for _, resp := range fixtureResponses(t) {
		assertAgree(t, EncodeResponse(resp))
	}
	assertAgree(t, EncodeFault(&Fault{Code: "env:Sender", Reason: " spaced \n reason "}))
	// foreign prefixes, single quotes, CDATA, entities, comments in odd
	// places — messages our encoder never produces but the DOM decoder
	// accepted
	hand := []string{
		`<?xml version="1.0"?>
<S:Envelope xmlns:S="http://www.w3.org/2003/05/soap-envelope" xmlns:x="http://monetdb.cwi.nl/XQuery">
<S:Body>
<x:request x:module='films' x:method='f' x:arity='1' x:location='loc'>
<!-- a comment --><x:call><x:sequence><x:atomic-value xsi:type="xs:string" xmlns:xsi="i">v<![CDATA[&raw<]]>w</x:atomic-value></x:sequence></x:call>
</x:request>
</S:Body>
</S:Envelope>`,
		`<env:Envelope xmlns:env="e" xmlns:xrpc="x"><env:Body><xrpc:response xrpc:module="m" xrpc:method="f">
<xrpc:sequence><xrpc:element><a b="&quot;&#65;&amp;">t&lt;u</a></xrpc:element></xrpc:sequence>
<xrpc:participatingPeers><xrpc:peer uri="xrpc://p1"/><other/><xrpc:peer uri='xrpc://p2'/></xrpc:participatingPeers>
</xrpc:response></env:Body></env:Envelope>`,
		`<env:Envelope xmlns:env="e"><env:Body><env:Fault>
<env:Code><env:Value>  env:Sender
</env:Value></env:Code><env:Reason><env:Text xml:lang="en">r1</env:Text></env:Reason></env:Fault></env:Body></env:Envelope>`,
	}
	for _, msg := range hand {
		assertAgree(t, []byte(msg))
	}
	for _, sh := range envelopeShapes() {
		msg := []byte(sh.msg)
		assertAgree(t, msg)
		for _, size := range []int{1, 7, 64} {
			assertStreamAgrees(t, msg, &chunkReader{data: msg, size: size}, fmt.Sprintf("%s chunk=%d", sh.name, size))
		}
		got, err := Decode(msg)
		switch {
		case sh.want == nil && (err == nil || err.Error() != sh.err):
			t.Errorf("%s: Decode error %v, want %q", sh.name, err, sh.err)
		case sh.want != nil && err != nil:
			t.Errorf("%s: Decode error %v", sh.name, err)
		case sh.want != nil && !bytes.Equal(reencode(t, got), reencode(t, sh.want)):
			t.Errorf("%s: decoded %s\nwant %s", sh.name, reencode(t, got), reencode(t, sh.want))
		}
	}
}

// randomItem generates an arbitrary XDM item (biased toward atomics).
func randomItem(r *rand.Rand, depth int) xdm.Item {
	switch r.Intn(10) {
	case 0:
		return xdm.Integer(r.Int63n(2000000) - 1000000)
	case 1:
		return xdm.Double(float64(r.Int63n(1000000)) / 997.0)
	case 2:
		return xdm.Boolean(r.Intn(2) == 0)
	case 3:
		return xdm.Decimal(float64(r.Int63n(100000)) / 100.0)
	case 4:
		return xdm.Untyped(randomText(r))
	case 5:
		n := randomTree(r, depth)
		n.Seal()
		return n
	case 6:
		switch r.Intn(4) {
		case 0:
			// benign: the reference encoder writes bare attribute items
			// with %q, which breaks on quotes/controls (covered by the
			// hostile-attribute test)
			a := xdm.NewAttribute("attr", benignText(r))
			a.Seal()
			return a
		case 1:
			tx := xdm.NewText(randomText(r))
			tx.Seal()
			return tx
		case 2:
			c := xdm.NewComment(strings.ReplaceAll(randomText(r), "-", "x"))
			c.Seal()
			return c
		default:
			pi := xdm.NewPI("tgt", strings.ReplaceAll(randomText(r), "?", "x"))
			pi.Seal()
			return pi
		}
	default:
		return xdm.String(randomText(r))
	}
}

// randomText produces strings exercising every escape path.
func randomText(r *rand.Rand) string {
	alphabet := []string{
		"a", "b", "Z", " ", "<", ">", "&", `"`, "'", "\n", "\t",
		"é", "💡", "]]>", "&amp;", "p7",
	}
	n := r.Intn(12)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(alphabet[r.Intn(len(alphabet))])
	}
	return b.String()
}

// benignText produces strings the reference encoder's %q quirk renders
// identically to proper escaping — used in header-attribute positions so
// the encoder byte-identity assertion holds (the hostile-attribute cases
// where %q breaks are covered by TestHostileAttributeValues).
func benignText(r *rand.Rand) string {
	alphabet := []string{"a", "b", "Z", " ", ">", "'", "é", "💡", "]]>", "p7"}
	n := r.Intn(10)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(alphabet[r.Intn(len(alphabet))])
	}
	return b.String()
}

func randomTree(r *rand.Rand, depth int) *xdm.Node {
	el := xdm.NewElement(fmt.Sprintf("el%d", r.Intn(4)))
	for i := r.Intn(3); i > 0; i-- {
		el.SetAttr(xdm.NewAttribute(fmt.Sprintf("a%d", i), randomText(r)))
	}
	kids := r.Intn(4)
	for i := 0; i < kids; i++ {
		switch {
		case depth > 0 && r.Intn(2) == 0:
			el.AppendChild(randomTree(r, depth-1))
		case r.Intn(5) == 0:
			el.AppendChild(xdm.NewComment("c"))
		default:
			el.AppendChild(xdm.NewText(randomText(r)))
		}
	}
	return el
}

func randomSequence(r *rand.Rand) xdm.Sequence {
	n := r.Intn(4)
	seq := make(xdm.Sequence, 0, n)
	for i := 0; i < n; i++ {
		seq = append(seq, randomItem(r, 2))
	}
	return seq
}

func TestDecoderAgreesWithDOMOnRandomRequests(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		arity := r.Intn(3)
		req := &Request{
			Module:   "m" + benignText(r),
			Method:   "f",
			Arity:    arity,
			Location: "http://x.example.org/m.xq?" + benignText(r),
			Updating: r.Intn(2) == 0,
		}
		if r.Intn(2) == 0 {
			req.TraceID = "t-" + benignText(r)
		}
		if r.Intn(2) == 0 {
			req.Projection = "a/" + benignText(r)
		}
		if r.Intn(2) == 0 {
			req.QueryID = &QueryID{
				ID:        "q-" + randomText(r),
				Host:      "xrpc://h.example.org/" + benignText(r),
				Timestamp: time.Unix(r.Int63n(1e9), r.Int63n(1e9)).UTC(),
				Timeout:   r.Intn(100),
			}
		}
		calls := r.Intn(4)
		for c := 0; c < calls; c++ {
			call := make([]xdm.Sequence, arity)
			for p := 0; p < arity; p++ {
				call[p] = randomSequence(r)
			}
			req.Calls = append(req.Calls, call)
		}
		if r.Intn(3) == 0 && calls > 0 {
			req.SeqNrs = make([]int64, calls)
			for i := range req.SeqNrs {
				req.SeqNrs[i] = r.Int63n(1000)
			}
		}
		if r.Intn(4) == 0 && arity >= 2 && calls > 0 {
			// force a by-fragment pair: param 1 is a descendant of param 0
			tree := randomTree(r, 2)
			tree.Seal()
			desc := tree
			for len(desc.Children()) > 0 && r.Intn(2) == 0 {
				desc = desc.Children()[r.Intn(len(desc.Children()))]
			}
			if desc.Kind == xdm.ElementNode {
				req.ByFragment = true
				req.Calls[0][0] = xdm.Sequence{tree}
				req.Calls[0][1] = xdm.Sequence{desc}
			}
		}
		msg := EncodeRequest(req)
		if ref := EncodeRequestRef(req); !bytes.Equal(msg, ref) {
			t.Fatalf("iter %d: encoders differ\nnew: %s\nref: %s", iter, msg, ref)
		}
		assertAgree(t, msg)
	}
}

func TestDecoderAgreesWithDOMOnRandomResponses(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		resp := &Response{
			Module: "m" + benignText(r),
			Method: "f",
		}
		results := r.Intn(5)
		for i := 0; i < results; i++ {
			resp.Results = append(resp.Results, randomSequence(r))
		}
		for i := r.Intn(3); i > 0; i-- {
			resp.Peers = append(resp.Peers, "xrpc://peer/"+benignText(r))
		}
		msg := EncodeResponse(resp)
		if ref := EncodeResponseRef(resp); !bytes.Equal(msg, ref) {
			t.Fatalf("iter %d: encoders differ\nnew: %s\nref: %s", iter, msg, ref)
		}
		assertAgree(t, msg)

		fault := &Fault{Code: "env:Receiver", Reason: randomText(r)}
		assertAgree(t, EncodeFault(fault))
	}
}

// TestHostileAttributeValues is the regression test for the %q escaping
// bug: module URIs, locations, queryID hosts/IDs and peer URIs
// containing quotes, newlines, tabs or markup must produce well-formed
// XML that round-trips exactly.
func TestHostileAttributeValues(t *testing.T) {
	hostile := []string{
		`plain`,
		`has "quotes" inside`,
		"new\nline",
		"tab\tand\rcr",
		`<markup>&entity;`,
		`both " and
newline`,
	}
	for _, h := range hostile {
		req := &Request{
			Module:   "mod-" + h,
			Method:   "f",
			Arity:    1,
			Location: "loc-" + h,
			TraceID:  "tr-" + h,
			QueryID: &QueryID{
				ID:      "id-" + h,
				Host:    "host-" + h,
				Timeout: 30,
			},
			Calls: [][]xdm.Sequence{{{xdm.String(h)}}},
		}
		back, err := DecodeRequest(EncodeRequest(req))
		if err != nil {
			t.Fatalf("hostile %q: decode failed: %v", h, err)
		}
		// Attribute values round-trip exactly: the encoder writes
		// tab/newline/CR as character references, which the XML
		// line-ending and attribute-normalization rules exempt. Text
		// content (the queryID ID) carries raw newlines, so a literal \r
		// normalizes to \n there.
		if back.Module != "mod-"+h {
			t.Errorf("hostile %q: module = %q", h, back.Module)
		}
		if back.Location != "loc-"+h {
			t.Errorf("hostile %q: location = %q", h, back.Location)
		}
		if back.TraceID != "tr-"+h {
			t.Errorf("hostile %q: traceID = %q", h, back.TraceID)
		}
		if back.QueryID == nil || back.QueryID.Host != "host-"+h {
			t.Errorf("hostile %q: queryID host = %+v", h, back.QueryID)
		}
		if norm := strings.ReplaceAll(h, "\r", "\n"); back.QueryID.ID != "id-"+norm {
			t.Errorf("hostile %q: queryID id = %q", h, back.QueryID.ID)
		}
		// the DOM decoder must accept the message too: proof the XML is
		// well-formed (its document reader is held to encoding/xml by
		// xdm's FuzzParseDocument)
		if _, err := DecodeDOM(EncodeRequest(req)); err != nil {
			t.Errorf("hostile %q: message is not well-formed XML: %v", h, err)
		}

		// hostile attribute item: its value is also written in attribute
		// position
		hAttr := xdm.NewAttribute("k", h)
		hAttr.Seal()
		backA, err := DecodeRequest(EncodeRequest(&Request{
			Module: "m", Method: "f", Arity: 1, Location: "l",
			Calls: [][]xdm.Sequence{{{hAttr}}},
		}))
		if err != nil {
			t.Fatalf("hostile attribute item %q: decode failed: %v", h, err)
		}
		if got := backA.Calls[0][0][0].(*xdm.Node); got.Kind != xdm.AttributeNode || got.Value != h {
			t.Errorf("hostile attribute item %q: got %+v", h, got)
		}

		resp := &Response{Module: "m", Method: "f", Peers: []string{"xrpc://p/" + h}, Results: []xdm.Sequence{{}}}
		backR, err := DecodeResponse(EncodeResponse(resp))
		if err != nil {
			t.Fatalf("hostile peer %q: decode failed: %v", h, err)
		}
		if backR.Peers[0] != "xrpc://p/"+h {
			t.Errorf("hostile peer %q: got %q", h, backR.Peers[0])
		}
	}
}

// TestDirectiveFloodDoesNotOverflowStack is the regression test for the
// scanner's directive handling: a run of millions of <!...> directives
// must be skipped iteratively (a recursive next() died with a fatal,
// unrecoverable stack overflow).
func TestDirectiveFloodDoesNotOverflowStack(t *testing.T) {
	flood := bytes.Repeat([]byte("<!>"), 2_000_000)
	if _, err := Decode(flood); err == nil {
		t.Fatal("directive flood decoded as a message")
	}
	// and a flood before a valid envelope still decodes
	msg := append(bytes.Repeat([]byte("<!x>"), 100_000), EncodeFault(&Fault{Code: "env:Sender", Reason: "r"})...)
	m, err := Decode(msg)
	if err != nil || m.Fault == nil {
		t.Fatalf("envelope after directive flood: %v, %+v", err, m)
	}
}

// TestReferenceEncoderBreaksOnHostileAttributes documents why the %q
// path had to go: it emits backslash escapes, which are not XML.
func TestReferenceEncoderBreaksOnHostileAttributes(t *testing.T) {
	req := &Request{
		Module: `has "quotes"`, Method: "f", Arity: 0, Location: "l",
	}
	if _, err := DecodeDOM(EncodeRequestRef(req)); err == nil {
		t.Skip("reference encoder unexpectedly produced well-formed XML; quirk fixed upstream?")
	}
	if _, err := DecodeRequest(EncodeRequest(req)); err != nil {
		t.Fatalf("streaming encoder must handle hostile attributes: %v", err)
	}
}
