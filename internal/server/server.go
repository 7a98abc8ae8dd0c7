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
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/obs"
	"xrpc/internal/soap"
	"xrpc/internal/store"
	"xrpc/internal/wal"
	"xrpc/internal/xdm"
)

// WSATModule is the reserved module URI for WS-AtomicTransaction verbs.
const WSATModule = "urn:wsat"

// SystemModule mirrors client.SystemModule (kept separate to avoid an
// import cycle).
const SystemModule = "urn:xrpc-system"

// DefaultMaxRequestBytes is the default cap on one decoded HTTP request
// body (see Server.MaxRequestBytes). Generous for XRPC's multi-megabyte
// document parameters, small enough to stop decompression bombs.
const DefaultMaxRequestBytes = 256 << 20

// Executor runs all calls of one decoded request against a document
// resolver, returning one result sequence per call, the merged pending
// update list, and phase timings.
type Executor interface {
	Execute(req *soap.Request, raw []byte, docs interp.DocResolver, rpc interp.RPCCaller) ([]xdm.Sequence, *interp.UpdateList, *interp.Stats, error)
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
type RPCFactory func(qid *soap.QueryID) (rpc interp.RPCCaller, peers func() []string)

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
	// concern: SOAP envelopes compress well.
	Gzip bool
	// MaxRequestBytes bounds the decoded size of one HTTP request body
	// (0 = DefaultMaxRequestBytes). It caps decompression-bomb
	// amplification: a small gzip body may expand ~1000x, and without a
	// bound io.ReadAll would materialize all of it.
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

// HandleXRPC implements netsim.Handler: it decodes one message, executes
// it, and encodes the response; any error becomes a SOAP Fault ("any
// error will cause a run-time error at the site that originated the
// query"). The response is built in a pooled encoder; one copy hands it
// to the caller (the HTTP path in ServeHTTP skips even that copy).
func (s *Server) HandleXRPC(path string, body []byte) ([]byte, error) {
	enc := soap.NewEncoder()
	s.handleInto(enc, body)
	out := enc.Copy()
	enc.Release()
	return out, nil
}

// HandleXRPCStream implements netsim.StreamHandler: the response
// envelope is encoded into a pipe in chunks while the caller reads,
// so the serialized response never materializes as one buffer. The
// execution itself (and the fault-or-response decision) completes
// before the first byte is written; what streams is the envelope,
// which for bulk results dwarfs everything else.
func (s *Server) HandleXRPCStream(path string, body []byte) (io.ReadCloser, error) {
	pr, pw := io.Pipe()
	go func() {
		enc := soap.NewStreamEncoder(pw, 0)
		s.handleInto(enc, body)
		err := enc.Flush()
		enc.Release()
		pw.CloseWithError(err)
	}()
	return pr, nil
}

// handleInto runs one request and encodes the response (or fault) into
// enc.
func (s *Server) handleInto(enc *soap.Encoder, body []byte) {
	start := s.Now()
	var meta reqMeta
	var fault *soap.Fault
	defer func() {
		// the request's documents are read until its response is
		// encoded, here; unpinned, a commit may write them in place
		meta.snap.Release()
		d := time.Since(start)
		s.mu.Lock()
		s.HandleTime += d
		s.mu.Unlock()
		s.observe(&meta, body, d, fault)
	}()
	resp, err := s.handle(body, &meta)
	if err != nil {
		code := "env:Receiver"
		if _, isXQ := err.(*xdm.Error); isXQ {
			code = "env:Sender"
		}
		fault = &soap.Fault{Code: code, Reason: err.Error()}
		enc.EncodeFault(fault)
		return
	}
	enc.EncodeResponse(resp)
}

// ServeHTTP exposes the handler over real HTTP (POST /xrpc), writing the
// response straight from the pooled encoder's buffer. It accepts
// gzip-encoded request bodies unconditionally and gzips the response
// when s.Gzip is set and the client advertised Accept-Encoding: gzip.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "XRPC requires POST", http.StatusMethodNotAllowed)
		return
	}
	maxBytes := s.MaxRequestBytes
	if maxBytes <= 0 {
		maxBytes = DefaultMaxRequestBytes
	}
	var rd io.Reader = r.Body
	if r.Header.Get("Content-Encoding") == "gzip" {
		gz, err := gzip.NewReader(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		defer gz.Close()
		rd = gz
	}
	body, err := io.ReadAll(io.LimitReader(rd, maxBytes+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if int64(len(body)) > maxBytes {
		if s.Metrics != nil {
			s.Metrics.Rejections.Inc()
		}
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", maxBytes),
			http.StatusRequestEntityTooLarge)
		return
	}
	w.Header().Set("Content-Type", "application/soap+xml; charset=utf-8")
	// serve through the chunked stream encoder: each encoder chunk is
	// written and flushed to the wire immediately, so a client that
	// consumes the response as a stream sees the first results while the
	// rest of the envelope is still being rendered, and the response
	// bytes never accumulate server-side
	sink := &flushWriter{w: w}
	if f, ok := w.(http.Flusher); ok {
		sink.f = f
	}
	if s.Metrics != nil {
		sink.n = s.Metrics.ResponseBytes
	}
	if s.Gzip && strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
		w.Header().Set("Content-Encoding", "gzip")
		gz := gzip.NewWriter(w)
		defer gz.Close()
		sink.w, sink.gz = gz, gz
	}
	enc := soap.NewStreamEncoder(sink, 0)
	defer enc.Release()
	s.handleInto(enc, body)
	enc.Flush()
	// a late write error means the client went away mid-response;
	// there is no one left to report it to
}

// flushWriter pushes every encoder chunk through to the socket: a
// sync-flush of the gzip stream (so compressed chunks are decodable as
// they arrive) followed by an http.Flusher flush (so the chunked
// transfer encoding emits the bytes instead of buffering them).
type flushWriter struct {
	w  io.Writer
	gz *gzip.Writer
	f  http.Flusher
	n  *obs.Counter // pre-compression response bytes (nil-safe)
}

func (fw *flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	fw.n.Add(int64(n))
	if err != nil {
		return n, err
	}
	if fw.gz != nil {
		if err := fw.gz.Flush(); err != nil {
			return n, err
		}
	}
	if fw.f != nil {
		fw.f.Flush()
	}
	return n, nil
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

	var rpc interp.RPCCaller
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
		Module:  req.Module,
		Method:  req.Method,
		Results: results,
		Peers:   peers(),
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
// against (nil if none; see interp.ApplyUpdates).
func (s *Server) Apply(pul *interp.UpdateList, own *store.Snapshot) error {
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
	case "listDocuments":
		names := s.Store.Names()
		seq := make(xdm.Sequence, len(names))
		for i, n := range names {
			seq[i] = xdm.String(n)
		}
		return &soap.Response{
			Module: req.Module, Method: req.Method, Results: []xdm.Sequence{seq},
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
	case "syncFrom":
		// primary side of replica resync: ship commits after the
		// follower's version, or a full snapshot (see durability.go)
		if len(req.Calls) != 1 || len(req.Calls[0]) != 1 || len(req.Calls[0][0]) != 1 {
			return nil, xdm.NewError("XRPC0004", "syncFrom takes one integer (the follower's version)")
		}
		since, ok := itemInt(req.Calls[0][0][0])
		if !ok {
			return nil, xdm.Errorf("XRPC0004", "syncFrom: bad version %q", req.Calls[0][0][0].StringValue())
		}
		seq, err := s.serveSyncFrom(since)
		if err != nil {
			return nil, err
		}
		return &soap.Response{
			Module: req.Module, Method: req.Method, Results: []xdm.Sequence{seq},
		}, nil
	case "resyncFrom":
		// follower side: catch up from the named primary, then report the
		// caught-up version for the coordinator's rejoin probe
		if len(req.Calls) != 1 || len(req.Calls[0]) != 1 || len(req.Calls[0][0]) != 1 {
			return nil, xdm.NewError("XRPC0004", "resyncFrom takes one string (the primary URI)")
		}
		v, err := s.ResyncFrom(req.Calls[0][0][0].StringValue())
		if err != nil {
			return nil, err
		}
		seq := xdm.Sequence{xdm.String("resynced"), xdm.Integer(v)}
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
			// the prepared PUL hits disk before the ack leaves: the
			// participant's 2PC promise survives a crash
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
		var entry *isoEntry
		entry, err = s.iso.take(req.QueryID.ID)
		if err == nil {
			version, err = s.applyDurable(req.QueryID.ID, entry.pul, entry.snap)
			entry.snap.Release()
		}
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
	pul      *interp.UpdateList
	expires  time.Time
	prepared bool

	mu sync.Mutex
}

func (e *isoEntry) addPUL(pul *interp.UpdateList) {
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
	now           func() time.Time
	// commitMu serializes commit applies with their version reads (see
	// commit).
	commitMu sync.Mutex
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
	timeout := qid.Timeout
	if timeout <= 0 {
		timeout = 30
	}
	e := &isoEntry{
		qid:     *qid,
		snap:    st.Snapshot(),
		pul:     &interp.UpdateList{},
		expires: m.now().Add(time.Duration(timeout) * time.Second),
	}
	m.entries[qid.ID] = e
	return e, e.snap.Retain(), nil
}

func (m *isoManager) gcLocked() {
	now := m.now()
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
			timeout := e.qid.Timeout
			if timeout <= 0 {
				timeout = 30
			}
			limit = limit.Add(10 * time.Duration(timeout) * time.Second)
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
	return EncodePUL(e.pul), nil
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
	ul, err := DecodePUL(pulNode, sn)
	if err != nil {
		return err
	}
	e.addPUL(ul)
	m.mu.Lock()
	e.prepared = true
	m.mu.Unlock()
	return nil
}

// take removes and returns the entry for a committing queryID; the
// server applies its accumulated pending update lists through the
// durable commit path (applyDurable) and then releases the entry's
// snapshot. applyDurable's commitMu serialization
// guarantees the version it reports is the one this commit produced —
// concurrent transactions cannot slide a commit in between the apply
// and the version read, which would make the coordinator's replica
// version fence evict healthy replicas.
func (m *isoManager) take(id string) (*isoEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[id]
	if !ok {
		return nil, xdm.Errorf("XRPC0006", "Commit: unknown queryID %s", id)
	}
	delete(m.entries, id)
	return e, nil
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
