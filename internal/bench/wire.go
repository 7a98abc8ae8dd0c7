package bench

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"strings"
	"time"

	"xrpc/internal/soap"
	"xrpc/internal/xdm"
)

// The wire experiment measures the SOAP message path in isolation:
// encode+decode round-trips across message shapes, streaming path
// (pooled Encoder + envelope pull-decoder) vs the seed's reference path
// (strings.Builder encoder + DOM decoder). Outputs are verified
// identical before any timing: the two encoders must produce the same
// bytes, and the two decoders must agree (their decodes re-encode to
// identical messages).

// WireRow is one message class of the wire experiment.
type WireRow struct {
	// Name identifies the message shape (e.g. "request 256x1 atomic").
	Name string
	// Bytes is the encoded message size.
	Bytes int
	// GzipBytes is the gzip content-coding size (0 when not measured).
	GzipBytes int
	// Durations are per-operation, best of reps, amortized over enough
	// iterations to total ≥ 2 ms.
	EncodeStream time.Duration
	EncodeRef    time.Duration
	DecodeStream time.Duration
	DecodeRef    time.Duration
}

// EncodeSpeedup is reference time over streaming time.
func (r *WireRow) EncodeSpeedup() float64 { return speedup(r.EncodeRef, r.EncodeStream) }

// DecodeSpeedup is reference time over streaming time.
func (r *WireRow) DecodeSpeedup() float64 { return speedup(r.DecodeRef, r.DecodeStream) }

func speedup(ref, new time.Duration) float64 {
	if new <= 0 {
		return 0
	}
	return float64(ref) / float64(new)
}

// wireMessage is one message shape under test.
type wireMessage struct {
	name string
	req  *soap.Request
	resp *soap.Response
}

func wireMessages() ([]wireMessage, error) {
	person, err := xdm.ParseFragment(`<person id="person7"><name>Kathy Blanton</name><emailaddress>mailto:kblanton@example.org</emailaddress><interest category="category33"/></person>`)
	if err != nil {
		return nil, err
	}
	auction, err := xdm.ParseFragment(`<closed_auction><seller person="person42"/><buyer person="person3"/><price>42.50</price><date>07/27/2026</date></closed_auction>`)
	if err != nil {
		return nil, err
	}
	mkReq := func(calls int, withNode bool) *soap.Request {
		r := &soap.Request{
			Module:   "functions",
			Method:   "getPerson",
			Arity:    2,
			Location: "http://example.org/functions.xq",
		}
		for i := 0; i < calls; i++ {
			param2 := xdm.Sequence{xdm.String(fmt.Sprintf("person%d", i))}
			if withNode {
				param2 = append(param2, person[0])
			}
			r.Calls = append(r.Calls, []xdm.Sequence{
				{xdm.String("xmark.xml")}, param2,
			})
		}
		return r
	}
	mkResp := func(results int, nodes int, atomics bool) *soap.Response {
		r := &soap.Response{Module: "functions", Method: "Q_B3",
			Peers: []string{"xrpc://y.example.org"}}
		for i := 0; i < results; i++ {
			var seq xdm.Sequence
			for j := 0; j < nodes; j++ {
				seq = append(seq, auction[0])
			}
			if atomics {
				seq = append(seq, xdm.Integer(int64(i)), xdm.String(fmt.Sprintf("person%d", i)))
			}
			r.Results = append(r.Results, seq)
		}
		return r
	}
	return []wireMessage{
		{name: "request 1x atomic", req: mkReq(1, false)},
		{name: "request 256x atomic", req: mkReq(256, false)},
		{name: "request 64x node", req: mkReq(64, true)},
		{name: "request 1024x node", req: mkReq(1024, true)},
		{name: "response 256x atomic", resp: mkResp(256, 0, true)},
		{name: "response 64x node", resp: mkResp(64, 2, false)},
	}, nil
}

// RunWireBench measures every wire message class, best of reps. With
// gzipSizes, the gzip content-coding size is recorded too.
func RunWireBench(reps int, gzipSizes bool) ([]WireRow, error) {
	if reps < 1 {
		reps = 3
	}
	msgs, err := wireMessages()
	if err != nil {
		return nil, err
	}
	var rows []WireRow
	for _, m := range msgs {
		row, err := runWireRow(m, reps, gzipSizes)
		if err != nil {
			return nil, fmt.Errorf("wire %s: %w", m.name, err)
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

func runWireRow(m wireMessage, reps int, gzipSizes bool) (*WireRow, error) {
	// the four operations under test
	encodeStream := func() []byte {
		enc := soap.NewEncoder()
		if m.req != nil {
			enc.EncodeRequest(m.req)
		} else {
			enc.EncodeResponse(m.resp)
		}
		out := enc.Bytes()
		enc.Release()
		return out
	}
	encodeRef := func() []byte {
		if m.req != nil {
			return soap.EncodeRequestRef(m.req)
		}
		return soap.EncodeResponseRef(m.resp)
	}

	// verification before timing: encoders byte-identical, decoders in
	// agreement (re-encoded decodes identical)
	var msg []byte
	if m.req != nil {
		msg = soap.EncodeRequest(m.req)
	} else {
		msg = soap.EncodeResponse(m.resp)
	}
	if !bytes.Equal(msg, encodeRef()) {
		return nil, fmt.Errorf("streaming and reference encoders produce different bytes")
	}
	pull, err := soap.Decode(msg)
	if err != nil {
		return nil, fmt.Errorf("pull decode: %w", err)
	}
	dom, err := soap.DecodeDOM(msg)
	if err != nil {
		return nil, fmt.Errorf("DOM decode: %w", err)
	}
	if !bytes.Equal(reencodeMessage(pull), reencodeMessage(dom)) {
		return nil, fmt.Errorf("pull and DOM decoders disagree")
	}

	row := &WireRow{Name: m.name, Bytes: len(msg)}
	if gzipSizes {
		var zbuf bytes.Buffer
		zw := gzip.NewWriter(&zbuf)
		zw.Write(msg)
		zw.Close()
		row.GzipBytes = zbuf.Len()
	}
	row.EncodeStream = bestOf(reps, func() { encodeStream() })
	row.EncodeRef = bestOf(reps, func() { encodeRef() })
	row.DecodeStream = bestOf(reps, func() { soap.Decode(msg) })
	row.DecodeRef = bestOf(reps, func() { soap.DecodeDOM(msg) })
	return row, nil
}

func reencodeMessage(m *soap.Message) []byte {
	switch {
	case m.Request != nil:
		return soap.EncodeRequest(m.Request)
	case m.Response != nil:
		return soap.EncodeResponse(m.Response)
	default:
		return soap.EncodeFault(m.Fault)
	}
}

// bestOf times f amortized over enough iterations to total ≥ 2 ms per
// sample (single invocations of the small messages run at µs scale,
// where one GC pause swamps the measurement), best of reps samples.
func bestOf(reps int, f func()) time.Duration {
	start := time.Now()
	f() // warm-up + calibration
	once := time.Since(start)
	iters := 1
	if once < 2*time.Millisecond {
		iters = int(2*time.Millisecond/(once+1)) + 1
	}
	var min time.Duration
	for s := 0; s < reps; s++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		d := time.Since(start) / time.Duration(iters)
		if s == 0 || d < min {
			min = d
		}
	}
	return min
}

// FormatWireBench renders the wire experiment rows.
func FormatWireBench(rows []WireRow) string {
	var b strings.Builder
	b.WriteString("SOAP wire path, streaming (pooled encoder + pull-decoder) vs reference (builder + DOM), best of runs\n")
	gz := len(rows) > 0 && rows[0].GzipBytes > 0
	fmt.Fprintf(&b, "%-22s %9s", "", "bytes")
	if gz {
		fmt.Fprintf(&b, " %9s", "gzip")
	}
	fmt.Fprintf(&b, " %11s %11s %8s %11s %11s %8s\n",
		"enc-stream", "enc-ref", "speedup", "dec-stream", "dec-ref", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %9d", r.Name, r.Bytes)
		if gz {
			fmt.Fprintf(&b, " %9d", r.GzipBytes)
		}
		fmt.Fprintf(&b, " %8.0f µs %8.0f µs %7.2fx %8.0f µs %8.0f µs %7.2fx\n",
			us(r.EncodeStream), us(r.EncodeRef), r.EncodeSpeedup(),
			us(r.DecodeStream), us(r.DecodeRef), r.DecodeSpeedup())
	}
	return b.String()
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1000.0 }
