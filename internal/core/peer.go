// Package core assembles the paper's primary contribution into a usable
// system: an XRPC peer that stores documents, serves SOAP XRPC requests
// (with Bulk RPC, the function cache, and repeatable-read isolation),
// and executes distributed XQuery queries — choosing per query between
// the loop-lifting engine (Bulk RPC, the MonetDB/XQuery role) and the
// tree-walking interpreter (one-at-a-time RPC, the Saxon role), honoring
// the declare option xrpc:isolation / xrpc:timeout prolog options, and
// driving WS-AtomicTransaction 2PC for distributed updating queries.
//
// A query text has one compiled form, its interp.Compiled static context
// (parsed, imports resolved, classified), which both engines run from and
// which Peer.Plans caches; everything that belongs to one run — the
// client, its queryID, the document resolver — is made per query and
// handed to the evaluation, never stored in the cached form.
package core

import (
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/obs"
	"xrpc/internal/pathfinder"
	"xrpc/internal/server"
	"xrpc/internal/soap"
	"xrpc/internal/store"
	"xrpc/internal/txn"
	"xrpc/internal/wrapper"
	"xrpc/internal/xdm"
	"xrpc/internal/xq"
)

// EngineKind selects the local execution engine.
type EngineKind int

// Engine kinds.
const (
	// EngineLoopLifted compiles queries with the Pathfinder-style
	// loop-lifting compiler: execute-at in for-loops becomes Bulk RPC.
	EngineLoopLifted EngineKind = iota
	// EngineInterpreted evaluates queries with the tree-walking
	// interpreter: one RPC per function application.
	EngineInterpreted
)

// Peer is one XRPC peer: a document store, a module registry, an XRPC
// server endpoint, and a query processor.
type Peer struct {
	// Self is this peer's xrpc:// URI.
	Self string
	// Store holds the peer's documents.
	Store *store.Store
	// Registry holds the peer's XQuery modules.
	Registry *modules.Registry
	// Server answers incoming XRPC requests.
	Server *server.Server
	// Engine selects the default local execution engine.
	Engine EngineKind
	// Transport sends outgoing XRPC requests (nil = no remote calls).
	Transport netsim.Transport
	// DefaultTimeout is the isolation timeout (seconds) when the query
	// does not declare xrpc:timeout.
	DefaultTimeout int
	// Plans caches the static context of each query text, and with it
	// the loop-lifted plan, keyed on normalized query text (nil = compile
	// every query). NewPeer enables it.
	Plans *interp.PlanCache

	// eng compiles query texts against Registry; it holds no per-query
	// state (documents and the RPC caller are passed to each evaluation).
	eng  *interp.Engine
	exec *server.NativeExecutor

	// what the loop-lifted engine's join rule did, summed over this
	// peer's queries (pathfinder.JoinStats)
	joinsHashed, joinsFallback, joinPairs atomic.Int64
}

// NewPeer creates a peer with a native (function-cached) executor.
func NewPeer(self string, transport netsim.Transport) *Peer {
	st := store.New()
	reg := modules.NewRegistry()
	eng := interp.New(reg)
	exec := server.NewNativeExecutor(eng, reg)
	srv := server.New(st, reg, exec)
	srv.Self = self
	p := &Peer{
		Self:           self,
		Store:          st,
		Registry:       reg,
		Server:         srv,
		Transport:      transport,
		DefaultTimeout: 30,
		Plans:          interp.NewPlanCache(interp.DefaultPlanCacheBytes, interp.DefaultPlanCacheEntries),
		eng:            eng,
		exec:           exec,
	}
	srv.NewRPC = func(qid *soap.QueryID) (interp.RPCCaller, func() []string) {
		if transport == nil {
			return nil, func() []string { return nil }
		}
		cl := client.New(transport)
		cl.QueryID = qid
		return cl, cl.Peers
	}
	return p
}

// NewWrapperPeer creates a peer that answers XRPC via the §4 wrapper
// (the way an XRPC-incapable engine like Saxon participates). Documents
// are raw texts re-parsed per request.
func NewWrapperPeer(self string, transport netsim.Transport) (*Peer, *wrapper.Wrapper) {
	st := store.New()
	reg := modules.NewRegistry()
	w := wrapper.New(reg, nil)
	if transport != nil {
		w.Remote = &client.DocResolver{Client: client.New(transport)}
	}
	srv := server.New(st, reg, w)
	srv.Self = self
	p := &Peer{
		Self:           self,
		Store:          st,
		Registry:       reg,
		Server:         srv,
		Transport:      transport,
		DefaultTimeout: 30,
		eng:            interp.New(reg),
	}
	return p, w
}

// SetParallelism bounds the worker pool the peer's executor uses to
// evaluate the calls of one incoming bulk request concurrently (n <= 1
// = sequential, the paper's original behaviour). Read-only bulk
// requests gain CPU parallelism on top of Bulk RPC's network
// amortization; updating requests always execute sequentially to keep
// repeatable-read semantics. Configure before serving traffic.
func (p *Peer) SetParallelism(n int) { p.Server.SetParallelism(n) }

// SetFunctionCache enables or disables the server-side function cache
// (Table 2's "With/No Function Cache" switch). No-op for wrapper peers,
// which never cache.
func (p *Peer) SetFunctionCache(on bool) {
	if p.exec == nil {
		return
	}
	p.exec.CacheEnabled = on
	p.exec.InvalidateCache()
}

// LoadDocument parses and stores a document.
func (p *Peer) LoadDocument(name, xml string) error {
	return p.Store.LoadXML(name, xml)
}

// RegisterModule registers an XQuery library module under its namespace
// URI and optional location hints.
func (p *Peer) RegisterModule(src string, hints ...string) error {
	return p.Registry.Register(src, hints...)
}

// EnableObs attaches the observability layer to the peer: request-path
// metrics, the counters of every server-side cache tier, of the query
// plan cache and of the query engine's join rule registered on reg, and
// slow (may be nil) as the structured slow-query log. Labels — typically
// shard="N" — distinguish peers sharing one registry. Call before serving
// traffic; a peer without EnableObs runs exactly as before (the
// nil-instrument fast path).
func (p *Peer) EnableObs(reg *obs.Registry, slow *obs.SlowLog, labels ...obs.Label) {
	p.Server.Metrics = server.NewMetrics(reg, labels...)
	p.Server.RegisterCacheMetrics(reg, labels...)
	if p.Plans != nil {
		p.Plans.RegisterMetrics(reg, "query", labels...)
	}
	const joinsHelp = "Two-for equality joins in this peer's queries: hashed, or compared pair by pair because of a non-string key."
	kind := func(k string) []obs.Label {
		return append(labels[:len(labels):len(labels)], obs.Label{Key: "kind", Value: k})
	}
	reg.CounterFunc("xrpc_query_joins_total", joinsHelp, p.joinsHashed.Load, kind("hash")...)
	reg.CounterFunc("xrpc_query_joins_total", joinsHelp, p.joinsFallback.Load, kind("fallback")...)
	reg.CounterFunc("xrpc_query_join_pairs_total",
		"Matched pairs the hashed joins handed to their return clauses.", p.joinPairs.Load, labels...)
	p.Server.SlowLog = slow
}

// Ready reports whether the peer can usefully serve traffic: it must
// hold at least one document or one registered module. The /readyz
// debug endpoint surfaces the error.
func (p *Peer) Ready() error {
	if len(p.Store.Names()) > 0 || len(p.Registry.URIs()) > 0 {
		return nil
	}
	return fmt.Errorf("peer %s: no documents loaded and no modules registered", p.Self)
}

// Handler returns the peer's network handler for registration on a
// simulated network.
func (p *Peer) Handler() netsim.Handler { return p.Server }

// HTTPHandler returns the peer's endpoint as an http.Handler (POST
// /xrpc).
func (p *Peer) HTTPHandler() http.Handler { return p.Server }

// Result is the outcome of one query.
type Result struct {
	Sequence xdm.Sequence
	// Peers are the remote peers that participated.
	Peers []string
	// Requests is the number of XRPC requests this query sent.
	Requests int64
	// Updating reports whether the query was an updating query.
	Updating bool
}

// Serialize renders the result sequence as XML text.
func (r *Result) Serialize() string { return xdm.SerializeSequence(r.Sequence) }

// Query executes an XQuery query at this peer with default options.
func (p *Peer) Query(q string) (*Result, error) {
	return p.QueryWithVars(q, nil)
}

// QueryWithVars executes a query with external variable bindings. The
// full distributed semantics of §2.2/§2.3 apply:
//
//   - declare option xrpc:isolation "repeatable" pins a queryID, so all
//     requests of this query see one database state per peer (rule
//     R'_Fr) and updates are deferred (rule R'_Fu);
//   - updating queries always get a queryID and finish with
//     WS-AtomicTransaction 2PC across all participating peers;
//   - read-only queries without the option run at isolation "none"
//     (rules R_Fr / R_Fu).
//
// The text costs one cache lookup (compile); the client and the queryID
// are this run's own.
func (p *Peer) QueryWithVars(q string, vars map[string]xdm.Sequence) (*Result, error) {
	static, err := p.compile(q)
	if err != nil {
		return nil, err
	}
	updating := static.IsUpdating()
	cl := client.New(p.transportOrNoop())
	if static.Repeatable() || updating {
		timeout := static.Timeout()
		if timeout == 0 {
			timeout = p.DefaultTimeout
		}
		cl.QueryID = txn.NewQueryID(p.Self, timeout)
	}
	// the query reads one pinned version of the local documents
	snap := p.Store.Snapshot()
	defer snap.Release()
	docs := &client.DocResolver{Local: snap, Client: cl}

	var seq xdm.Sequence
	var pul *interp.UpdateList
	if p.Engine == EngineInterpreted || updating {
		// local update expressions need the interpreter, whichever engine
		// the peer runs
		seq, pul, err = static.Eval(&interp.EvalOptions{
			Vars:           vars,
			Docs:           docs,
			RPC:            cl,
			CollectUpdates: updating,
		})
	} else {
		var plan *pathfinder.Compiled
		if plan, err = pathfinder.Lift(static); err == nil {
			var joins pathfinder.JoinStats
			seq, err = plan.Eval(&pathfinder.ExecCtx{Docs: docs, Bulk: cl, Joins: &joins}, vars)
			p.joinsHashed.Add(int64(joins.Hashed))
			p.joinsFallback.Add(int64(joins.Fallback))
			p.joinPairs.Add(int64(joins.Pairs))
		}
	}
	if err != nil {
		return nil, err
	}

	res := &Result{Sequence: copyStored(seq, snap), Peers: cl.Peers(), Requests: cl.Requests.Load(), Updating: updating}
	if !updating {
		return res, nil
	}
	// distributed atomic commit: 2PC over the participating peers, then
	// local pending updates
	if cl.QueryID != nil && len(res.Peers) > 0 {
		co := &txn.Coordinator{Client: cl}
		if err := co.CommitAll(res.Peers); err != nil {
			return nil, err
		}
	}
	if err := p.Server.Apply(pul, snap); err != nil {
		return nil, err
	}
	return res, nil
}

// copyStored returns seq with every node of snap's stored documents
// replaced by a copy: a result outlives the query's pin, and a later
// commit may write those documents in place.
func copyStored(seq xdm.Sequence, snap *store.Snapshot) xdm.Sequence {
	var out xdm.Sequence
	for i, it := range seq {
		n, ok := it.(*xdm.Node)
		if ok {
			root := n.Root()
			doc, stored := snap.Get(root.DocURI())
			ok = stored && doc == root
		}
		if ok && out == nil {
			out = append(make(xdm.Sequence, 0, len(seq)), seq[:i]...)
		}
		switch {
		case ok:
			out = append(out, n.Clone())
		case out != nil:
			out = append(out, it)
		}
	}
	if out == nil {
		return seq
	}
	return out
}

// compile returns the static context of a query text: a hit in Plans
// costs the key's normalization and nothing else — no parse.
func (p *Peer) compile(q string) (*interp.Compiled, error) {
	if p.Plans == nil {
		return p.eng.Compile(q)
	}
	return p.Plans.Compile(p.eng, xq.Normalize(q), q)
}

func (p *Peer) transportOrNoop() netsim.Transport {
	if p.Transport != nil {
		return p.Transport
	}
	return noopTransport{}
}

type noopTransport struct{}

func (noopTransport) Send(dest, path string, body []byte) ([]byte, error) {
	return nil, fmt.Errorf("xrpc: peer has no transport; cannot reach %s", dest)
}

func (t noopTransport) SendStream(dest, path string, body []byte) (io.ReadCloser, error) {
	_, err := t.Send(dest, path, body)
	return nil, err
}

// Stats summarizes a peer's served traffic.
type Stats struct {
	ServedRequests int64
	ServedCalls    int64
	HandleTime     time.Duration
}

// ServerStats returns the peer's server counters.
func (p *Peer) ServerStats() Stats {
	return Stats{
		ServedRequests: p.Server.ServedRequests,
		ServedCalls:    p.Server.ServedCalls,
		HandleTime:     p.Server.HandleTime,
	}
}
