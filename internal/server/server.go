// Package server implements the XRPC request handler of §3: an HTTP/SOAP
// endpoint that decodes Bulk RPC requests, executes the requested module
// function for every call, and returns the results. It contains the
// function cache (prepared query plans, §3.3), the isolation manager for
// repeatable-read queryIDs (§2.2), deferred pending-update-list handling
// (rule R'_Fu), and the WS-AtomicTransaction participant verbs
// Prepare/Commit/Abort (§2.3).
package server

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/docres"
	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/obs"
	"xrpc/internal/soap"
	"xrpc/internal/store"
	"xrpc/internal/wal"
	"xrpc/internal/xdm"
	"xrpc/internal/xquf"
)

// WSATModule is the reserved module URI for WS-AtomicTransaction verbs.
const WSATModule = "urn:wsat"

// SystemModule is the reserved module URI of XRPC-internal calls
// (client.SystemModule), answered by handleSystem.
const SystemModule = client.SystemModule

// DefaultMaxRequestBytes is the default cap on one decoded HTTP request
// body (see Server.MaxRequestBytes). Generous for XRPC's multi-megabyte
// document parameters, small enough to stop decompression bombs.
const DefaultMaxRequestBytes = 256 << 20

// Executor runs all calls of one decoded request against a document
// resolver, returning one result sequence per call, the merged pending
// update list, and phase timings.
type Executor interface {
	Execute(req *soap.Request, raw []byte, docs docres.DocResolver, rpc client.BulkCaller) ([]xdm.Sequence, *xquf.UpdateList, *interp.Stats, error)
}

// ParallelExecutor is implemented by executors whose bulk-call worker
// pool is tunable (NativeExecutor).
type ParallelExecutor interface {
	// SetParallelism bounds the number of calls of one bulk request
	// evaluated concurrently; n <= 1 means sequential.
	SetParallelism(n int)
}

// RPCFactory builds a per-request RPC caller for nested execute-at calls
// performed while serving a request; it also reports which peers were
// contacted (for the participating-peers piggyback). A nil factory
// disables nested calls.
type RPCFactory func(qid *soap.QueryID) (rpc client.BulkCaller, peers func() []string)

// Server is one XRPC peer endpoint.
type Server struct {
	Store    *store.Store
	Registry *modules.Registry
	Exec     Executor
	// NewRPC creates nested-call clients (may be nil).
	NewRPC RPCFactory
	// Self is this peer's URI, echoed in fault diagnostics.
	Self string
	// Shard and Shards describe this peer's slot in a sharded
	// deployment (0 ≤ Shard < Shards); Shards == 0 means unsharded.
	// Reported by the shardInfo system call so coordinators can verify
	// cluster membership.
	Shard, Shards int
	// ShardRanges describes what this shard *contains*: one descriptor
	// per partitioned container (cluster.KeyRange.String() format, which
	// cluster.ParseKeyRange round-trips). Appended to the shardInfo
	// response so a coordinator can rebuild range metadata from live
	// peers instead of trusting a static table.
	ShardRanges []string
	// Gzip enables gzip Content-Encoding on HTTP responses for clients
	// that advertise Accept-Encoding: gzip (off by default; gzip-encoded
	// request bodies are always accepted). The paper's §3.3 message-size
	// concern: SOAP envelopes compress well. The switch belongs to Reply,
	// so a cluster.Proxy with Gzip set compresses the same way.
	Gzip bool
	// MaxRequestBytes bounds the decoded size of one HTTP request body
	// (0 = DefaultMaxRequestBytes). It caps decompression-bomb
	// amplification: a small gzip body may expand ~1000x, and without a
	// bound the body read would materialize all of it.
	MaxRequestBytes int64
	// RespCache, when non-nil, serves repeat read-only traffic from the
	// per-shard response cache (see respcache.go). Only meaningful for
	// executors that ignore the raw request bytes (NativeExecutor):
	// cache-missing calls are re-executed as a sub-request whose body
	// no longer matches the original envelope.
	RespCache *RespCache
	// Now is the clock (replaceable in tests).
	Now func() time.Time
	// Metrics, when set, records the request path onto a registry
	// (counts, latency, sizes, faults). Nil disables recording.
	Metrics *Metrics
	// SlowLog, when set, emits a structured record for requests slower
	// than its threshold (trace ID, query hash, cache disposition).
	SlowLog *obs.SlowLog

	iso isoManager

	// durability (durability.go): nil until EnableWAL. Commits flow
	// through applyDurable; snapMu serializes the snapshot policy.
	wal        *wal.Log
	walMetrics *wal.Metrics
	snapBytes  int64
	snapMu     sync.Mutex

	mu sync.Mutex
	// ServedRequests counts handled XRPC requests (experiments).
	ServedRequests int64
	// ServedCalls counts executed function applications.
	ServedCalls int64
	// HandleTime accumulates wall-clock time spent inside the handler
	// (the per-peer time columns of Table 4).
	HandleTime time.Duration
	// LastStats holds the execution phases of the most recent request
	// (Table 3 instrumentation).
	LastStats interp.Stats
}

// ResetStats zeroes the request counters and timers.
func (s *Server) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ServedRequests, s.ServedCalls, s.HandleTime = 0, 0, 0
	s.LastStats = interp.Stats{}
}

// SetParallelism forwards the bulk-execution pool size to the executor
// when it is tunable (no-op otherwise). Configure before serving
// traffic.
func (s *Server) SetParallelism(n int) {
	if p, ok := s.Exec.(ParallelExecutor); ok {
		p.SetParallelism(n)
	}
}

// New creates a server over a store and module registry using the given
// executor.
func New(st *store.Store, reg *modules.Registry, exec Executor) *Server {
	s := &Server{Store: st, Registry: reg, Exec: exec, Now: time.Now}
	s.iso.now = func() time.Time { return s.Now() }
	return s
}

// HandleXRPC implements netsim.Handler: it decodes one message,
// executes it, and encodes the response; any error becomes a SOAP Fault
// ("any error will cause a run-time error at the site that originated
// the query"). The request runs on the caller's goroutine, and so does
// the encode of an answer that fits one encoder chunk, which is then
// read from the encoder's buffer. A longer answer, which for bulk
// results dwarfs everything else, is encoded again from its start into
// a pipe by a goroutine, in chunks while the caller reads, so it never
// materializes as one buffer.
func (s *Server) HandleXRPC(path string, body []byte) (io.ReadCloser, error) {
	var x exchange
	s.run(&x, body)
	streamed := false
	defer func() {
		if !streamed {
			s.finish(&x)
		}
	}()
	enc := soap.NewStreamEncoder(overflow{}, 0)
	x.write(enc)
	if enc.Err() == nil {
		return &encodedBody{enc: enc}, nil
	}
	enc.Release()
	streamed = true
	long := x
	pr, pw := io.Pipe()
	go func() {
		enc := soap.NewStreamEncoder(pw, 0)
		s.encode(&long, enc)
		err := enc.Flush()
		enc.Release()
		pw.CloseWithError(err)
	}()
	return pr, nil
}

// overflow is the sink of HandleXRPC's first encode: the encoder writes
// to it only once the answer outgrows one chunk, and the error it
// returns stops the encode.
type overflow struct{}

var errOverflow = errors.New("server: answer exceeds one encoder chunk")

func (overflow) Write([]byte) (int, error) { return 0, errOverflow }

// encodedBody serves an answer encoded whole from its pooled encoder,
// which Close returns to the pool.
type encodedBody struct {
	enc *soap.Encoder
	off int
}

func (b *encodedBody) Read(p []byte) (int, error) {
	if b.enc == nil || b.off == len(b.enc.Bytes()) {
		return 0, io.EOF
	}
	n := copy(p, b.enc.Bytes()[b.off:])
	b.off += n
	return n, nil
}

func (b *encodedBody) Close() error {
	if b.enc != nil {
		b.enc.Release()
		b.enc = nil
	}
	return nil
}

// handleInto runs one request and encodes the response (or fault) into
// enc.
func (s *Server) handleInto(enc *soap.Encoder, body []byte) {
	var x exchange
	s.run(&x, body)
	s.encode(&x, enc)
}

// exchange is one request between run, which executes it, and encode,
// which writes its answer and ends it.
type exchange struct {
	start time.Time
	body  []byte
	meta  reqMeta
	resp  *soap.Response
	fault *soap.Fault
}

// run executes body to its response or fault. The documents it pins
// stay pinned for encode; if handle panics they are released (and the
// request observed) before the panic goes on.
func (s *Server) run(x *exchange, body []byte) {
	x.start, x.body = s.Now(), body
	done := false
	defer func() {
		if !done {
			s.finish(x)
		}
	}()
	resp, err := s.handle(body, &x.meta)
	if err != nil {
		x.fault = FaultOf(err)
	}
	x.resp, done = resp, true
}

// encode writes x's answer into enc and ends the request.
func (s *Server) encode(x *exchange, enc *soap.Encoder) {
	defer s.finish(x)
	x.write(enc)
}

// write writes the answer: the fault, or the response.
func (x *exchange) write(enc *soap.Encoder) {
	if x.fault != nil {
		enc.EncodeFault(x.fault)
		return
	}
	enc.EncodeResponse(x.resp)
}

// finish ends a request: the documents it read are released (read until
// its response is encoded; unpinned, a commit may write them in place),
// and its time and outcome are recorded.
func (s *Server) finish(x *exchange) {
	x.meta.snap.Release()
	d := time.Since(x.start)
	s.mu.Lock()
	s.HandleTime += d
	s.mu.Unlock()
	s.observe(&x.meta, x.body, d, x.fault)
}

// ServeHTTP exposes the handler over real HTTP (POST /xrpc): the request
// comes in through ReadRequest and the answer goes out through Reply,
// the two halves every XRPC HTTP handler shares.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, status := ReadRequest(w, r, s.MaxRequestBytes)
	if status != 0 {
		if status == http.StatusRequestEntityTooLarge && s.Metrics != nil {
			s.Metrics.Rejections.Inc()
		}
		return
	}
	var n *obs.Counter
	if s.Metrics != nil {
		n = s.Metrics.ResponseBytes
	}
	rp := NewReply(w, r, s.Gzip, n)
	// the fault-or-response decision is made before the first byte; what
	// can fail after it is the socket (the client went away)
	rp.Finish(rp.Send(func(enc *soap.Encoder) { s.handleInto(enc, body) }))
}

// ReadRequest is the request intake every XRPC HTTP handler shares (a
// peer's and a cluster proxy's): POST only, a gzip Content-Encoding
// undone, the decoded body bounded by maxBytes (0 =
// DefaultMaxRequestBytes) and read by netsim.ReadBody, presized from
// Content-Length. It returns the body and status 0, or, when
// it has already answered the request with an HTTP error (405, 400 or
// 413), that error's status.
func ReadRequest(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]byte, int) {
	if r.Method != http.MethodPost {
		http.Error(w, "XRPC requires POST", http.StatusMethodNotAllowed)
		return nil, http.StatusMethodNotAllowed
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxRequestBytes
	}
	var rd io.Reader = r.Body
	size := min(r.ContentLength, maxBytes+1)
	if r.Header.Get("Content-Encoding") == "gzip" {
		gz, err := gzip.NewReader(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return nil, http.StatusBadRequest
		}
		defer gz.Close()
		rd, size = gz, -1
	}
	body, err := netsim.ReadBody(io.LimitReader(rd, maxBytes+1), size)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, http.StatusBadRequest
	}
	if int64(len(body)) > maxBytes {
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", maxBytes),
			http.StatusRequestEntityTooLarge)
		return nil, http.StatusRequestEntityTooLarge
	}
	return body, 0
}

// Reply is the answer half every XRPC HTTP handler shares, ReadRequest's
// counterpart: the one response writer, with FaultOf and Finish the one
// fault rule and the one abort rule. Every encoder chunk written to it
// is pushed through to the socket: a sync-flush of the gzip stream (so
// compressed chunks are decodable as they arrive) followed by an
// http.Flusher flush (so the chunked transfer encoding emits the bytes
// instead of buffering them).
type Reply struct {
	w     io.Writer // the response, or the gzip stream over it
	gz    *gzip.Writer
	f     http.Flusher
	n     *obs.Counter // pre-compression response bytes (nil-safe)
	wrote int64
}

// NewReply starts the answer to r on w: a SOAP Content-Type, and gzip
// content-coding when gz is set and the client sent Accept-Encoding:
// gzip. n, when non-nil, counts the bytes written before compression.
func NewReply(w http.ResponseWriter, r *http.Request, gz bool, n *obs.Counter) *Reply {
	w.Header().Set("Content-Type", "application/soap+xml; charset=utf-8")
	rp := &Reply{w: w, n: n}
	if f, ok := w.(http.Flusher); ok {
		rp.f = f
	}
	if gz && strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
		w.Header().Set("Content-Encoding", "gzip")
		rp.gz = gzip.NewWriter(w)
		rp.w = rp.gz
	}
	return rp
}

func (rp *Reply) Write(p []byte) (int, error) {
	n, err := rp.w.Write(p)
	rp.wrote += int64(n)
	rp.n.Add(int64(n))
	if err != nil {
		return n, err
	}
	if rp.gz != nil {
		if err := rp.gz.Flush(); err != nil {
			return n, err
		}
	}
	if rp.f != nil {
		rp.f.Flush()
	}
	return n, nil
}

// Written reports how many bytes, before compression, have been written.
func (rp *Reply) Written() int64 { return rp.wrote }

// Send writes one envelope, which encode renders, through a stream
// encoder on the reply, and reports the first write error.
func (rp *Reply) Send(encode func(*soap.Encoder)) error {
	enc := soap.NewStreamEncoder(rp, 0)
	defer enc.Release()
	encode(enc)
	return enc.Flush()
}

// Finish ends the answer. With err nil it closes the gzip stream. A
// failure before the first byte is written is answered with its Fault
// envelope (FaultOf). A failure after it must not arrive looking
// complete, so the handler panics with http.ErrAbortHandler: the
// connection is cut, the client's decoder sees truncation, and the gzip
// stream is left unclosed, so no trailer vouches for a partial body.
func (rp *Reply) Finish(err error) {
	if err != nil {
		if rp.wrote > 0 {
			panic(http.ErrAbortHandler)
		}
		rp.Send(func(enc *soap.Encoder) { enc.EncodeFault(FaultOf(err)) })
	}
	// a write error from here on means the client went away; there is no
	// one left to report it to
	if rp.gz != nil {
		rp.gz.Close()
	}
}

// FaultOf is the fault rule every XRPC endpoint answers by: a
// *soap.Fault anywhere in err's chain (a remote peer's, passed on)
// keeps its code, an *xdm.Error — the query or the request is at fault —
// is env:Sender, and anything else is env:Receiver.
func FaultOf(err error) *soap.Fault {
	var f *soap.Fault
	if errors.As(err, &f) {
		return f
	}
	var xe *xdm.Error
	if errors.As(err, &xe) {
		return &soap.Fault{Code: "env:Sender", Reason: err.Error()}
	}
	return &soap.Fault{Code: "env:Receiver", Reason: err.Error()}
}

func (s *Server) handle(body []byte, meta *reqMeta) (*soap.Response, error) {
	req, err := soap.DecodeRequest(body)
	if err != nil {
		return nil, xdm.Errorf("XRPC0003", "malformed request: %v", err)
	}
	meta.req = req
	s.mu.Lock()
	s.ServedRequests++
	s.ServedCalls += int64(len(req.Calls))
	s.mu.Unlock()

	switch req.Module {
	case WSATModule:
		return s.handleWSAT(req)
	case SystemModule:
		return s.handleSystem(req, meta)
	}

	// call-by-projection: the caller reads only these paths of each
	// result item
	var proj *xdm.Projection
	if req.Projection != "" {
		if proj, err = xdm.ParseProjection(req.Projection); err != nil {
			return nil, xdm.Errorf("XRPC0003", "malformed request: %v", err)
		}
	}

	// pick the database state: the queryID's snapshot (rule R'_Fr), or
	// the latest (rule R_Fr), pinned in meta.snap for the whole request.
	// Requests outside an isolation scope are first looked up in the
	// version-fenced response cache; queryID'd requests bypass it (their
	// repeatable-read state is per-query, not per-version)
	var cached cachedCalls
	exec := req
	entry, err := s.pin(req, meta)
	if err != nil {
		return nil, err
	}
	if entry == nil && s.RespCache != nil {
		cached = s.lookupCached(req, meta)
		if len(cached.missing) == 0 {
			return &soap.Response{Module: req.Module, Method: req.Method, Raw: cached.raw}, nil
		}
		exec = cached.missingCalls(req)
	}

	var rpc client.BulkCaller
	peers := func() []string { return nil }
	if s.NewRPC != nil {
		rpc, peers = s.NewRPC(req.QueryID)
		rpc = cached.watch(rpc)
	}

	results, pul, stats, err := s.Exec.Execute(exec, body, meta.snap, rpc)
	if err != nil {
		return nil, err
	}
	if stats != nil {
		meta.exec = *stats
		s.mu.Lock()
		s.LastStats = *stats
		s.mu.Unlock()
	}
	if !pul.Empty() {
		if entry != nil {
			// deferred: accumulate ∆ per query, applied at Commit (R'_Fu)
			entry.addPUL(pul)
		} else if err := s.Apply(pul, meta.snap); err != nil {
			return nil, err
		}
	}
	resp := &soap.Response{
		Module:     req.Module,
		Method:     req.Method,
		Results:    results,
		Peers:      peers(),
		Projection: proj,
	}
	if cached.raw != nil {
		s.populateCached(&cached, req, resp, pul)
	}
	return resp, nil
}

// Apply commits pending updates immediately (rule R_Fu) — a served
// request's outside an isolation scope, or those of a query this peer
// originated: under the commit lock, and durable before it returns when
// a WAL is enabled. own is the snapshot the updates were computed
// against (nil if none; see xquf.ApplyUpdates).
func (s *Server) Apply(pul *xquf.UpdateList, own *store.Snapshot) error {
	_, err := s.applyDurable("", pul, own)
	return err
}

// pin gives the request its snapshot in meta.snap, released once the
// response is encoded: the queryID's (rule R'_Fr), whose entry it
// returns, or the latest (rule R_Fr).
func (s *Server) pin(req *soap.Request, meta *reqMeta) (*isoEntry, error) {
	if req.QueryID == nil {
		meta.snap = s.Store.Snapshot()
		return nil, nil
	}
	e, sn, err := s.iso.entryFor(req.QueryID, s.Store)
	meta.snap = sn
	return e, err
}

// handleSystem serves the reserved system calls (getDocument for data
// shipping).
func (s *Server) handleSystem(req *soap.Request, meta *reqMeta) (*soap.Response, error) {
	switch req.Method {
	case "getDocument":
		if _, err := s.pin(req, meta); err != nil {
			return nil, err
		}
		var results []xdm.Sequence
		for _, call := range req.Calls {
			if len(call) != 1 || len(call[0]) != 1 {
				return nil, xdm.NewError("XRPC0004", "getDocument takes one string")
			}
			doc, err := meta.snap.Doc(call[0][0].StringValue())
			if err != nil {
				return nil, err
			}
			results = append(results, xdm.Singleton(doc))
		}
		return &soap.Response{
			Module: req.Module, Method: req.Method, Results: results,
		}, nil
	case "shardInfo":
		seq := xdm.Sequence{xdm.Integer(int64(s.Shard)), xdm.Integer(int64(s.Shards))}
		for _, n := range s.Store.Names() {
			seq = append(seq, xdm.String(n))
		}
		for _, r := range s.ShardRanges {
			seq = append(seq, xdm.String(r))
		}
		// trailing metadata items (appended last so older consumers,
		// which parse only the leading slots and range descriptors,
		// skip them): the commit-fence version and registry generation
		// — together the coordinator's cheap revalidation probe — and
		// cache counters
		seq = append(seq, xdm.String(VersionItem(s.Store.Version())))
		var gen int64
		if s.Registry != nil {
			gen = s.Registry.Generation()
		}
		seq = append(seq, xdm.String(GenerationItem(gen)))
		if s.RespCache != nil {
			st := s.RespCache.Stats()
			seq = append(seq, xdm.String(fmt.Sprintf(
				"respcache=hits:%d misses:%d evictions:%d entries:%d bytes:%d",
				st.Hits, st.Misses, st.Evictions, st.Entries, st.Bytes)))
		}
		if x, ok := s.Exec.(*NativeExecutor); ok {
			st := x.PlanCacheStats()
			seq = append(seq, xdm.String(fmt.Sprintf(
				"plancache=hits:%d misses:%d evictions:%d entries:%d bytes:%d",
				st.Hits, st.Misses, st.Evictions, st.Entries, st.Bytes)))
		}
		return &soap.Response{
			Module: req.Module, Method: req.Method, Results: []xdm.Sequence{seq},
		}, nil
	default:
		return nil, xdm.Errorf("XRPC0004", "unknown system method %q", req.Method)
	}
}

// handleWSAT serves the WS-AtomicTransaction participant interface.
//
//   - Prepare brings the queryID's deferred state into prepared state and
//     piggybacks the serialized pending update list on the ack, so a
//     cluster coordinator can forward it to the shard's replicas without
//     an extra round trip.
//   - AdoptPUL (one node parameter) is the replica side of that
//     forwarding: the peer pins a snapshot for the queryID, resolves the
//     serialized primitives against it, and enters prepared state.
//   - Commit applies the pending updates and reports the post-commit
//     store.Version — the replication fence: a replica whose reported
//     version differs from its primary's diverged and must stop serving.
//     A re-sent Commit of a committed queryID reports that version
//     again and applies nothing.
func (s *Server) handleWSAT(req *soap.Request) (*soap.Response, error) {
	if req.QueryID == nil {
		return nil, xdm.NewError("XRPC0005", "WS-AT verb without queryID")
	}
	var result xdm.Sequence
	var err error
	switch req.Method {
	case "Prepare":
		var pul *xdm.Node
		pul, err = s.iso.prepare(req.QueryID.ID)
		if err == nil {
			// the prepare record is enqueued, not fsync'd, and recovery
			// replays only commit records: a participant that restarts
			// between this ack and the Commit has lost the prepared
			// PUL, and the Commit answers XRPC0006
			// (TestPreparedUpdateLostOnRestart)
			err = s.logPrepare(req.QueryID.ID, pul)
		}
		result = xdm.Singleton(xdm.String("prepared"))
		if pul != nil {
			result = append(result, pul)
		}
	case "AdoptPUL":
		if len(req.Calls) != 1 || len(req.Calls[0]) != 1 || len(req.Calls[0][0]) != 1 {
			return nil, xdm.NewError("XRPC0005", "AdoptPUL takes one pending-update-list node")
		}
		n, ok := req.Calls[0][0][0].(*xdm.Node)
		if !ok {
			return nil, xdm.NewError("XRPC0005", "AdoptPUL parameter is not a node")
		}
		err = s.iso.adopt(req.QueryID, n, s.Store)
		result = xdm.Singleton(xdm.String("adopted"))
	case "Commit":
		var version int64
		version, err = s.iso.commit(req.QueryID.ID, func(e *isoEntry) (int64, error) {
			return s.applyDurable(req.QueryID.ID, e.pul, e.snap)
		})
		result = xdm.Sequence{xdm.String("committed"), xdm.Integer(version)}
	case "Abort":
		s.iso.abort(req.QueryID.ID)
		s.logAbort(req.QueryID.ID)
		result = xdm.Singleton(xdm.String("aborted"))
	default:
		return nil, xdm.Errorf("XRPC0005", "unknown WS-AT method %q", req.Method)
	}
	if err != nil {
		return nil, err
	}
	return &soap.Response{
		Module: WSATModule, Method: req.Method,
		Results: []xdm.Sequence{result},
	}, nil
}

// IsolatedQueries reports how many queryIDs currently hold pinned
// snapshots (observability for tests/experiments).
func (s *Server) IsolatedQueries() int { return s.iso.count() }

// ------------------------------------------------------------ isolation

// isoEntry pins the database state db(t_q) and accumulates the pending
// update lists ∆_q for one queryID.
type isoEntry struct {
	qid      soap.QueryID
	snap     *store.Snapshot
	pul      *xquf.UpdateList
	expires  time.Time
	prepared bool

	mu sync.Mutex
}

func (e *isoEntry) addPUL(pul *xquf.UpdateList) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pul.Merge(pul)
}

// isoManager tracks active isolated queries and remembers expired
// queryIDs so late requests get errors (§2.2: "the local XRPC handler
// should still remember expired queryIDs"). Per host only the latest
// expired timestamp is retained.
type isoManager struct {
	mu            sync.Mutex
	entries       map[string]*isoEntry
	expiredByHost map[string]time.Time
	// committing holds the Commits being applied, and committed and
	// committedBefore remember the version each committed queryID
	// produced, so a re-sent Commit (its first reply was lost) is
	// answered, not applied again. The records rotate every keepCommitted,
	// the longest isolation timeout committed so far: a record lives at
	// least its queryID's timeout and at most twice the longest, and
	// expiring records costs no scan.
	committing                 map[string]*commitCall
	committed, committedBefore map[string]int64
	rotated                    time.Time
	keepCommitted              time.Duration
	now                        func() time.Time
	// commitMu serializes commit applies with their version reads (see
	// commit).
	commitMu sync.Mutex
}

// commitCall is a queryID's Commit while it applies: done is closed
// once version and err hold its outcome.
type commitCall struct {
	done    chan struct{}
	version int64
	err     error
}

// entryFor returns the queryID's entry, creating it (and pinning its
// snapshot) on first use, and a second pin on that snapshot for the
// caller, which releases it when done reading. Taken under m.mu, the
// caller's pin is either in place before a Commit takes the entry, so
// that commit clones, or it is a new entry's.
func (m *isoManager) entryFor(qid *soap.QueryID, st *store.Store) (*isoEntry, *store.Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries == nil {
		m.entries = map[string]*isoEntry{}
		m.expiredByHost = map[string]time.Time{}
	}
	m.gcLocked()
	if e, ok := m.entries[qid.ID]; ok {
		return e, e.snap.Retain(), nil
	}
	// a request whose originating timestamp is not newer than the last
	// expired timestamp from that host arrived too late
	if last, seen := m.expiredByHost[qid.Host]; seen && !qid.Timestamp.After(last) {
		return nil, nil, xdm.Errorf("XRPC0006", "queryID %s expired (host %s)", qid.ID, qid.Host)
	}
	e := &isoEntry{
		qid:     *qid,
		snap:    st.Snapshot(),
		pul:     &xquf.UpdateList{},
		expires: m.now().Add(isoTimeout(qid)),
	}
	m.entries[qid.ID] = e
	return e, e.snap.Retain(), nil
}

// isoTimeout is the queryID's isolation timeout (30 s if it names none).
func isoTimeout(qid *soap.QueryID) time.Duration {
	if qid.Timeout <= 0 {
		return 30 * time.Second
	}
	return time.Duration(qid.Timeout) * time.Second
}

func (m *isoManager) gcLocked() {
	now := m.now()
	if now.Sub(m.rotated) >= m.keepCommitted {
		m.committedBefore, m.committed, m.rotated = m.committed, nil, now
	}
	for id, e := range m.entries {
		limit := e.expires
		if e.prepared {
			// a prepared entry is in doubt: the coordinator may still
			// Commit it, so it outlives its plain expiry — but not
			// forever (a peer evicted from a cluster after a failed
			// commit would otherwise pin its snapshot for the process
			// lifetime). §2.2's "a timeout mechanism is inevitable" is
			// the pragmatic answer to 2PC's blocking window: grant ten
			// extra timeout periods, then presume abort.
			limit = limit.Add(10 * isoTimeout(&e.qid))
		}
		if !now.After(limit) {
			continue
		}
		if last, ok := m.expiredByHost[e.qid.Host]; !ok || e.qid.Timestamp.After(last) {
			m.expiredByHost[e.qid.Host] = e.qid.Timestamp
		}
		delete(m.entries, id)
		e.snap.Release()
	}
}

func (m *isoManager) get(id string) (*isoEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[id]
	return e, ok
}

// prepare brings the query into prepared state; with a WAL, handleWSAT
// then records it (logPrepare). The serialized pending update list is
// returned (nil when empty) for the Prepare-ack piggyback and that
// record.
func (m *isoManager) prepare(id string) (*xdm.Node, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[id]
	if !ok {
		return nil, xdm.Errorf("XRPC0006", "Prepare: unknown or expired queryID %s", id)
	}
	e.prepared = true
	if e.pul.Empty() {
		return nil, nil
	}
	return xquf.EncodePUL(e.pul), nil
}

// adopt is the replica side of PUL replication: pin a snapshot for the
// queryID, resolve the serialized pending update list against it, and
// enter prepared state so the coordinator's Commit applies it here too.
func (m *isoManager) adopt(qid *soap.QueryID, pulNode *xdm.Node, st *store.Store) error {
	e, sn, err := m.entryFor(qid, st)
	if err != nil {
		return err
	}
	defer sn.Release()
	m.mu.Lock()
	adopted := e.prepared
	m.mu.Unlock()
	if adopted {
		// a re-sent AdoptPUL (its first reply was lost) must not merge
		// the list twice: the coordinator forwards one per transaction
		return nil
	}
	ul, err := xquf.DecodePUL(pulNode, sn)
	if err != nil {
		return err
	}
	e.addPUL(ul)
	m.mu.Lock()
	e.prepared = true
	m.mu.Unlock()
	return nil
}

// commit applies the queryID's accumulated pending update lists once,
// through apply (the server's durable commit path, applyDurable),
// releases the entry's snapshot and returns the version the apply
// produced. applyDurable's commitMu serialization guarantees that
// version is the one this commit produced — concurrent transactions
// cannot slide a commit in between the apply and the version read,
// which would make the coordinator's replica version fence evict
// healthy replicas. A Commit is re-sent when its first reply was lost:
// one that arrives while the first applies waits for it and returns its
// outcome, one that arrives after it committed returns the recorded
// version, and neither applies again.
func (m *isoManager) commit(id string, apply func(*isoEntry) (int64, error)) (int64, error) {
	m.mu.Lock()
	if c := m.committing[id]; c != nil {
		m.mu.Unlock()
		<-c.done
		return c.version, c.err
	}
	for _, recs := range []map[string]int64{m.committed, m.committedBefore} {
		if v, ok := recs[id]; ok {
			m.mu.Unlock()
			return v, nil
		}
	}
	e, ok := m.entries[id]
	if !ok {
		m.mu.Unlock()
		return 0, xdm.Errorf("XRPC0006", "Commit: unknown queryID %s", id)
	}
	delete(m.entries, id)
	if m.committing == nil {
		m.committing = map[string]*commitCall{}
	}
	// the error stands if apply panics (net/http recovers the handler):
	// a waiter is answered, and nothing is recorded as committed
	c := &commitCall{done: make(chan struct{}), err: xdm.Errorf("XRPC0006", "Commit of queryID %s did not finish", id)}
	m.committing[id] = c
	m.mu.Unlock()
	defer func() {
		e.snap.Release()
		m.mu.Lock()
		delete(m.committing, id)
		if c.err == nil {
			if m.committed == nil {
				m.committed = map[string]int64{}
			}
			m.committed[id] = c.version
			m.keepCommitted = max(m.keepCommitted, isoTimeout(&e.qid))
		}
		m.mu.Unlock()
		close(c.done)
	}()
	c.version, c.err = apply(e)
	return c.version, c.err
}

func (m *isoManager) abort(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[id]; ok {
		delete(m.entries, id)
		e.snap.Release()
	}
}

func (m *isoManager) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}
