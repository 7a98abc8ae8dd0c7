package soap

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

// benchRequest is a realistic bulk request: calls getPerson-style string
// parameters plus one node parameter, with a queryID.
func benchRequest(calls int) *Request {
	person, err := xdm.ParseFragment(`<person id="p7"><name>Kathy Blanton</name><emailaddress>mailto:kblanton@example.org</emailaddress></person>`)
	if err != nil {
		panic(err)
	}
	req := &Request{
		Module:   "functions",
		Method:   "getPerson",
		Arity:    2,
		Location: "http://example.org/functions.xq",
		QueryID: &QueryID{
			ID:        "q-bench",
			Host:      "xrpc://bench.example.org",
			Timestamp: time.Date(2007, 9, 23, 12, 0, 0, 0, time.UTC),
			Timeout:   30,
		},
	}
	for i := 0; i < calls; i++ {
		req.Calls = append(req.Calls, []xdm.Sequence{
			{xdm.String("xmark.xml")},
			{xdm.String(fmt.Sprintf("person%d", i)), person[0]},
		})
	}
	return req
}

func benchResponse(results int) *Response {
	item, err := xdm.ParseFragment(`<closed_auction><buyer person="p3"/><price>42.50</price></closed_auction>`)
	if err != nil {
		panic(err)
	}
	resp := &Response{Module: "functions", Method: "getPerson"}
	for i := 0; i < results; i++ {
		resp.Results = append(resp.Results, xdm.Sequence{item[0], xdm.Integer(int64(i))})
	}
	resp.Peers = []string{"xrpc://y.example.org"}
	return resp
}

// xmarkResponse is an answer with the shape pushdown_scan ships: every
// closed_auction of an XMark auctions document at scale 0.12, with its
// annotation, as the items of one sequence — about 0.6 MB encoded.
func xmarkResponse() *Response {
	doc, err := xdm.ParseDocument("auctions.xml", xmark.GenerateAuctions(xmark.PaperConfig(0.12)))
	if err != nil {
		panic(err)
	}
	var items xdm.Sequence
	for _, n := range doc.Children()[0].Children()[0].Children() {
		if n.Kind == xdm.ElementNode {
			items = append(items, n)
		}
	}
	return &Response{Module: "functions_b", Method: "Q_B1", Results: []xdm.Sequence{items}}
}

func BenchmarkSoapEncodeRequest(b *testing.B) {
	req := benchRequest(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := NewEncoder()
		enc.EncodeRequest(req)
		enc.Release()
	}
}

func BenchmarkSoapEncodeRequestRef(b *testing.B) {
	req := benchRequest(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeRequestRef(req)
	}
}

func BenchmarkSoapEncodeResponse(b *testing.B) {
	resp := benchResponse(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := NewEncoder()
		enc.EncodeResponse(resp)
		enc.Release()
	}
}

func BenchmarkSoapEncodeResponseRef(b *testing.B) {
	resp := benchResponse(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeResponseRef(resp)
	}
}

func BenchmarkSoapDecodeRequest(b *testing.B) {
	msg := EncodeRequest(benchRequest(64))
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRequest(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSoapDecodeRequestDOM(b *testing.B) {
	msg := EncodeRequest(benchRequest(64))
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeDOM(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSoapDecodeResponse(b *testing.B) {
	msg := EncodeResponse(benchResponse(64))
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeResponse(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSoapDecodeResponseXMark decodes what the query peer of
// pushdown_scan decodes per op: the whole shipped answer, every item
// read and checked, none built beyond its root's start tag.
func BenchmarkSoapDecodeResponseXMark(b *testing.B) {
	msg := EncodeResponse(xmarkResponse())
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeResponse(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSoapDecodeResponseXMarkQ71 is the query peer's share of
// Q7_1 on that answer, as far as it touches the decoded items: decode,
// read buyer/@person of every closed_auction, and write the annotation
// of six of them, copied into a result element as the return clause
// copies it.
func BenchmarkSoapDecodeResponseXMarkQ71(b *testing.B) {
	msg := EncodeResponse(xmarkResponse())
	buyer := xdm.NodeTest{Name: "buyer"}
	person := xdm.NodeTest{Name: "person"}
	annotation := xdm.NodeTest{Name: "annotation"}
	var out bytes.Buffer
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		resp, err := DecodeResponse(msg)
		if err != nil {
			b.Fatal(err)
		}
		items := resp.Results[0]
		keep := 0
		for j, it := range items {
			ca := it.(*xdm.Node)
			for _, by := range xdm.Step(ca, xdm.AxisChild, buyer) {
				for _, p := range xdm.Step(by, xdm.AxisAttribute, person) {
					if p.Value == "" {
						b.Fatal("buyer without a person")
					}
				}
			}
			if j%(len(items)/6+1) != 0 {
				continue
			}
			keep++
			res := xdm.NewElement("result")
			for _, a := range xdm.Step(ca, xdm.AxisChild, annotation) {
				res.AppendChild(a.Clone())
			}
			res.Seal()
			out.Reset()
			xdm.WriteNode(&out, res)
		}
		if keep != 6 {
			b.Fatalf("%d items kept, want 6", keep)
		}
	}
}

func BenchmarkSoapDecodeResponseDOM(b *testing.B) {
	msg := EncodeResponse(benchResponse(64))
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeDOM(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSoapDecodeResponseStream runs the same decode through the
// incremental reader path (refill scanner over an io.Reader), the
// configuration the streamed scatter-gather uses.
func BenchmarkSoapDecodeResponseStream(b *testing.B) {
	msg := EncodeResponse(benchResponse(64))
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeResponseStream(bytes.NewReader(msg)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSoapResponseStreamWalk measures item-at-a-time consumption:
// header, every sequence, every item, Finish — without retaining the
// response.
func BenchmarkSoapResponseStreamWalk(b *testing.B) {
	benchStreamWalk(b, EncodeResponse(benchResponse(64)), false)
}

// BenchmarkSoapResponseStreamWalkRaw is the same walk by a consumer that
// forwards: every item wrapper taken as bytes (NextItemRaw), none built.
func BenchmarkSoapResponseStreamWalkRaw(b *testing.B) {
	benchStreamWalk(b, EncodeResponse(benchResponse(64)), true)
}

// BenchmarkSoapResponseStreamWalkRawXMark is the proxy's forward of the
// pushdown_scan answer: every item taken as bytes, none built.
func BenchmarkSoapResponseStreamWalkRawXMark(b *testing.B) {
	benchStreamWalk(b, EncodeResponse(xmarkResponse()), true)
}

func benchStreamWalk(b *testing.B, msg []byte, raw bool) {
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rs, err := NewResponseStream(bytes.NewReader(msg))
		if err != nil {
			b.Fatal(err)
		}
		for {
			ok, err := rs.NextSequence()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			for {
				var (
					wrapper []byte
					it      xdm.Item
				)
				if raw {
					if wrapper, ok, err = rs.NextItemRaw(); !ok {
						b.Fatal("Encoder's own framing was not lent out")
					}
				} else {
					it, err = rs.NextItem()
				}
				if err != nil {
					b.Fatal(err)
				}
				if wrapper == nil && it == nil {
					break
				}
			}
		}
		if _, err := rs.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSoapEncodeResponseStream streams the encode to a sink in chunks
// instead of accumulating the envelope.
func BenchmarkSoapEncodeResponseStream(b *testing.B) {
	resp := benchResponse(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewStreamEncoder(io.Discard, 0)
		e.EncodeResponse(resp)
		if err := e.Flush(); err != nil {
			b.Fatal(err)
		}
		e.Release()
	}
}

// ------------------------------------------------------ allocation guards
//
// The alloc guards turn wire-path regressions into test failures instead
// of silent rot. Bounds are upper limits with headroom over the measured
// values (see CHANGES.md), not exact pins: crossing one means an
// allocation regression of 2x+, worth investigating.

// allocsPerRun measures steady-state allocations, warming the buffer
// pools first.
func allocsPerRun(f func()) float64 {
	for i := 0; i < 10; i++ {
		f()
	}
	return testing.AllocsPerRun(100, f)
}

func TestEncodeRequestAllocGuard(t *testing.T) {
	req := benchRequest(64)
	got := allocsPerRun(func() {
		enc := NewEncoder()
		enc.EncodeRequest(req)
		enc.Release()
	})
	// pooled steady state: the encoder itself allocates nothing; the
	// only allocations are CompressCall bookkeeping-free param walks (0)
	// — leave headroom for pool misses under GC pressure.
	if got > 8 {
		t.Fatalf("pooled request encoding allocates %.0f objects/op, want <= 8", got)
	}
}

func TestEncodeResponseAllocGuard(t *testing.T) {
	resp := benchResponse(64)
	got := allocsPerRun(func() {
		enc := NewEncoder()
		enc.EncodeResponse(resp)
		enc.Release()
	})
	if got > 8 {
		t.Fatalf("pooled response encoding allocates %.0f objects/op, want <= 8", got)
	}
}

func TestDecodeRequestAllocGuard(t *testing.T) {
	msg := EncodeRequest(benchRequest(64))
	got := allocsPerRun(func() {
		if _, err := DecodeRequest(msg); err != nil {
			t.Fatal(err)
		}
	})
	// 64 calls × (2 sequences + ~9 nodes of the person fragment + a
	// handful of strings): ~20 allocs per call. The DOM decoder over
	// encoding/xml sat at ~136 per call (8688 for this message); the
	// guard keeps the 5x gap to it from eroding. (DecodeDOM reads the
	// envelope with the same tokenizer, so it cannot be the yardstick.)
	perCall := got / 64
	if perCall > 136/5 {
		t.Fatalf("streaming request decode allocates %.1f objects per call, want <= %d (total %.0f)", perCall, 136/5, got)
	}
}

func TestDecodeResponseAllocGuard(t *testing.T) {
	msg := EncodeResponse(benchResponse(64))
	got := allocsPerRun(func() {
		if _, err := DecodeResponse(msg); err != nil {
			t.Fatal(err)
		}
	})
	perResult := got / 64
	if perResult > 40 {
		t.Fatalf("streaming response decode allocates %.1f objects per result, want <= 40 (total %.0f)", perResult, got)
	}
}
