package benchmark

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xrpc/internal/interp"
	"xrpc/internal/netsim"
	"xrpc/internal/server"
	"xrpc/internal/soap"
	"xrpc/internal/xdm"
)

// layer names the seam a span was recorded at. Spans are taken only here,
// in the benchmark's own code, around the interfaces the system already
// exposes; the order below is the nesting order of one request.
type layer uint8

const (
	layerOp        layer = iota // one benchmark op at Q (or the foreign client)
	layerQSend                  // Q's transport: Q → proxy
	layerProxy                  // http.Handler around cluster.Proxy
	layerProxySend              // the coordinator's transport: proxy → shard
	layerServer                 // http.Handler around a shard server.Server
	layerExec                   // server.Executor of a shard
	numLayers
)

var layerNames = [numLayers]string{"q.op", "q.send", "proxy.handle", "proxy.send", "shard.handle", "shard.exec"}

// sendKind classifies a downstream request by the module it addresses.
type sendKind uint8

const (
	sendCall  sendKind = iota // a user function call
	sendProbe                 // urn:xrpc-system (shardInfo fence probes)
	sendTxn                   // urn:wsat (2PC verbs)
)

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch. With one op in flight at a time, op is the trace id
// every span of the op shares.
type span struct {
	op         int32
	layer      layer
	shard      int8 // destination or serving shard, -1 when not applicable
	kind       sendKind
	start, end int64
	// first is when the first response byte arrived (streamed sends).
	first int64
	// calls, compile and exec are the executor's call count and the
	// interp.Stats phases it returned.
	calls         int32
	compile, exec int64
}

// tracer keeps spans in memory. It is off by default; the traced pass
// turns it on between ops, so all spans of an op are recorded or none.
type tracer struct {
	on    atomic.Bool
	op    atomic.Int32
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// capReq and capResp are the first request and response bodies seen
	// on the Q → proxy hop while tracing: the payloads the codec costs
	// are timed on in isolation.
	capReq, capResp []byte
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	s.op = t.op.Load()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// writeJSON dumps every span, one JSON object per line.
func (t *tracer) writeJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		rec := map[string]any{
			"trace": s.op, "name": layerNames[s.layer], "shard": s.shard,
			"start_ns": s.start, "end_ns": s.end,
		}
		if s.first != 0 {
			rec["first_byte_ns"] = s.first
		}
		if s.layer == layerExec {
			rec["calls"], rec["compile_ns"], rec["exec_ns"] = s.calls, s.compile, s.exec
		}
		if s.layer == layerProxySend {
			rec["kind"] = [...]string{"call", "probe", "txn"}[s.kind]
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// meteredTransport wraps a hop's transport: it always counts requests
// and body bytes (wire_bytes_per_op is an end-to-end metric) and, while
// tracing, records one span per send. It keeps the optional
// netsim.StreamTransport interface — a Send-only wrapper would silently
// turn the coordinator's streamed gather into a buffered one.
type meteredTransport struct {
	inner netsim.StreamTransport
	tr    *tracer
	layer layer

	requests, streams, bytes atomic.Int64
}

var _ netsim.StreamTransport = (*meteredTransport)(nil)

func shardOf(dest string) int8 {
	if n, err := strconv.Atoi(strings.TrimPrefix(dest, shardPrefix)); err == nil {
		return int8(n)
	}
	return -1
}

var systemModule, wsatModule = []byte(server.SystemModule), []byte(server.WSATModule)

func kindOf(body []byte) sendKind {
	head := body
	if len(head) > 1024 {
		head = head[:1024]
	}
	switch {
	case bytes.Contains(head, systemModule):
		return sendProbe
	case bytes.Contains(head, wsatModule):
		return sendTxn
	}
	return sendCall
}

// Send implements netsim.Transport.
func (m *meteredTransport) Send(dest, path string, body []byte) ([]byte, error) {
	m.requests.Add(1)
	m.bytes.Add(int64(len(body)))
	if !m.tr.on.Load() {
		resp, err := m.inner.Send(dest, path, body)
		m.bytes.Add(int64(len(resp)))
		return resp, err
	}
	s := span{layer: m.layer, shard: shardOf(dest), kind: kindOf(body), start: m.tr.now()}
	resp, err := m.inner.Send(dest, path, body)
	s.end = m.tr.now()
	m.bytes.Add(int64(len(resp)))
	m.tr.record(s)
	if m.layer == layerQSend && err == nil {
		m.tr.mu.Lock()
		if m.tr.capReq == nil {
			m.tr.capReq = append([]byte(nil), body...)
			m.tr.capResp = append([]byte(nil), resp...)
		}
		m.tr.mu.Unlock()
	}
	return resp, err
}

// SendStream implements netsim.StreamTransport. The span ends when the
// consumer closes the stream.
func (m *meteredTransport) SendStream(dest, path string, body []byte) (io.ReadCloser, error) {
	m.requests.Add(1)
	m.streams.Add(1)
	m.bytes.Add(int64(len(body)))
	mb := &meteredBody{m: m}
	if m.tr.on.Load() {
		mb.traced = true
		mb.s = span{layer: m.layer, shard: shardOf(dest), kind: kindOf(body), start: m.tr.now()}
	}
	rc, err := m.inner.SendStream(dest, path, body)
	if err != nil {
		return nil, err
	}
	mb.rc = rc
	return mb, nil
}

type meteredBody struct {
	rc     io.ReadCloser
	m      *meteredTransport
	traced bool
	closed bool
	s      span
}

func (b *meteredBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if n > 0 {
		b.m.bytes.Add(int64(n))
		if b.traced && b.s.first == 0 {
			b.s.first = b.m.tr.now()
		}
	}
	return n, err
}

func (b *meteredBody) Close() error {
	err := b.rc.Close()
	if b.traced && !b.closed {
		b.s.end = b.m.tr.now()
		b.m.tr.record(b.s)
	}
	b.closed = true
	return err
}

// tracedHandler records one span around an http.Handler. The response
// writer is passed through untouched, so http.Flusher — what makes the
// proxy's and the shards' responses chunked — is preserved.
type tracedHandler struct {
	inner http.Handler
	tr    *tracer
	layer layer
	shard int // -1 for the proxy
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.on.Load() {
		h.inner.ServeHTTP(w, r)
		return
	}
	s := span{layer: h.layer, shard: int8(h.shard), start: h.tr.now()}
	h.inner.ServeHTTP(w, r)
	s.end = h.tr.now()
	h.tr.record(s)
}

// tracedExecutor records one span per Execute together with the call
// count and the interp.Stats the executor returns. It forwards
// server.ParallelExecutor so Server.SetParallelism keeps working.
type tracedExecutor struct {
	inner server.Executor
	tr    *tracer
	shard int
}

var _ server.ParallelExecutor = (*tracedExecutor)(nil)

// Execute implements server.Executor.
func (x *tracedExecutor) Execute(req *soap.Request, raw []byte, docs interp.DocResolver, rpc interp.RPCCaller) ([]xdm.Sequence, *interp.UpdateList, *interp.Stats, error) {
	if !x.tr.on.Load() {
		return x.inner.Execute(req, raw, docs, rpc)
	}
	s := span{layer: layerExec, shard: int8(x.shard), calls: int32(len(req.Calls)), start: x.tr.now()}
	res, pul, st, err := x.inner.Execute(req, raw, docs, rpc)
	s.end = x.tr.now()
	if st != nil {
		s.compile, s.exec = int64(st.Compile), int64(st.Exec)
	}
	x.tr.record(s)
	return res, pul, st, err
}

// SetParallelism implements server.ParallelExecutor.
func (x *tracedExecutor) SetParallelism(n int) {
	if p, ok := x.inner.(server.ParallelExecutor); ok {
		p.SetParallelism(n)
	}
}

// opTree is the spans of one op arranged by layer.
type opTree struct {
	spans    []span
	children [][]int // children[i] are the indexes of span i's children, by start
	parent   []int   // parent[i] is the index of span i's parent, -1 for none
	root     int
}

// parentLayer is the layer whose span causes a span of layer l.
var parentLayer = [numLayers]layer{layerOp, layerOp, layerQSend, layerProxy, layerProxySend, layerServer}

// buildTree nests the spans of one op: a span's parent is the span of
// the parent layer (of the same shard, below the proxy) whose interval
// contains the span's start. With one op in flight this is unambiguous
// even when the two shard branches overlap in time.
func buildTree(spans []span) *opTree {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	t := &opTree{spans: spans, children: make([][]int, len(spans)), parent: make([]int, len(spans)), root: -1}
	for i, s := range spans {
		t.parent[i] = -1
		if s.layer == layerOp {
			t.root = i
			continue
		}
		for j, p := range spans {
			if p.layer != parentLayer[s.layer] || p.start > s.start || p.end < s.start {
				continue
			}
			if s.layer >= layerServer && p.shard != s.shard {
				continue
			}
			t.children[j] = append(t.children[j], i)
			t.parent[i] = j
			break
		}
	}
	return t
}

// executes reports whether a shard executor ran anywhere below span i.
func (t *opTree) executes(i int) bool {
	if t.spans[i].layer == layerExec {
		return true
	}
	for _, c := range t.children[i] {
		if t.executes(c) {
			return true
		}
	}
	return false
}

// selfTime is span i's duration minus the part its children cover.
func (t *opTree) selfTime(i int) int64 {
	s := t.spans[i]
	covered, cursor := int64(0), s.start
	for _, c := range t.children[i] { // sorted by start
		cs, ce := t.spans[c].start, t.spans[c].end
		if ce > s.end {
			ce = s.end
		}
		if cs < cursor {
			cs = cursor
		}
		if ce > cs {
			covered += ce - cs
			cursor = ce
		}
	}
	return s.end - s.start - covered
}

// blocking walks the blocking path of span i backwards from its end (or
// from hi, when the path left the span earlier): at every point the
// child that finished last is what the span was waiting for; children
// that ran entirely beside a child already on the path are not on it.
// Each layer's self time on the path is added to out; the parts sum to
// the length of the interval walked.
func (t *opTree) blocking(i int, hi int64, out *[numLayers]int64) {
	s := t.spans[i]
	cursor := s.end
	if hi < cursor {
		cursor = hi
	}
	kids := append([]int(nil), t.children[i]...)
	sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].end > t.spans[kids[b]].end })
	for _, c := range kids {
		k := t.spans[c]
		if k.start >= cursor {
			continue
		}
		ce := k.end
		if ce > cursor {
			ce = cursor
		}
		out[s.layer] += cursor - ce
		t.blocking(c, ce, out)
		cursor = k.start
		if cursor < s.start {
			cursor = s.start
		}
	}
	out[s.layer] += cursor - s.start
}
