// Package core assembles the paper's primary contribution into a usable
// system: an XRPC peer that stores documents, serves SOAP XRPC requests
// (with Bulk RPC, the function cache, and repeatable-read isolation),
// and executes distributed XQuery queries — choosing per query between
// the loop-lifting engine (Bulk RPC, the MonetDB/XQuery role) and the
// tree-walking interpreter (one-at-a-time RPC, the Saxon role), honoring
// the declare option xrpc:isolation / xrpc:timeout prolog options, and
// driving WS-AtomicTransaction 2PC for distributed updating queries.
package core

import (
	"fmt"
	"net/http"
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
	// Plans caches loop-lifted query compilations keyed on normalized
	// query text (nil = compile every query). NewPeer enables it.
	Plans *pathfinder.PlanCache

	exec *server.NativeExecutor
}

// NewPeer creates a peer with a native (function-cached) executor.
func NewPeer(self string, transport netsim.Transport) *Peer {
	st := store.New()
	reg := modules.NewRegistry()
	eng := interp.New(st, reg, nil)
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
		Plans:          pathfinder.NewPlanCache(reg),
		exec:           exec,
	}
	// a module re-registration invalidates exactly the plans that
	// depend on it (the query plan cache fences itself on the registry
	// generation instead)
	reg.OnUpdate(exec.InvalidateModule)
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
// metrics and the counters of every server-side cache tier registered on
// reg, and slow (may be nil) as the structured slow-query log. Labels —
// typically shard="N" — distinguish peers sharing one registry. Call
// before serving traffic; a peer without EnableObs runs exactly as
// before (the nil-instrument fast path).
func (p *Peer) EnableObs(reg *obs.Registry, slow *obs.SlowLog, labels ...obs.Label) {
	p.Server.Metrics = server.NewMetrics(reg, labels...)
	p.Server.RegisterCacheMetrics(reg, labels...)
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
func (p *Peer) QueryWithVars(q string, vars map[string]xdm.Sequence) (*Result, error) {
	// classification pass: options + updating detection use the
	// interpreter's compiler (cheap, and shared by both engines)
	cl := client.New(p.transportOrNoop())
	eng := interp.New(&client.DocResolver{Local: p.Store, Client: cl}, p.Registry, cl)
	compiled, err := eng.Compile(q)
	if err != nil {
		return nil, err
	}
	isolation := compiled.Option("xrpc:isolation")
	updating := compiled.IsUpdating()
	timeout := p.DefaultTimeout
	if t := compiled.Option("xrpc:timeout"); t != "" {
		fmt.Sscanf(t, "%d", &timeout)
	}
	if isolation == "repeatable" || updating {
		cl.QueryID = txn.NewQueryID(p.Self, timeout)
	}

	var seq xdm.Sequence
	var pul *interp.UpdateList
	switch p.Engine {
	case EngineInterpreted:
		seq, pul, err = compiled.Eval(&interp.EvalOptions{
			Vars:           vars,
			CollectUpdates: updating,
		})
	default:
		// local update expressions need the interpreter; fall back
		// transparently for updating queries
		if updating {
			seq, pul, err = compiled.Eval(&interp.EvalOptions{
				Vars:           vars,
				CollectUpdates: true,
			})
		} else {
			var pfc *pathfinder.Compiled
			if p.Plans != nil {
				pfc, err = p.Plans.Compile(q)
			} else {
				pfc, err = pathfinder.Compile(q, p.Registry)
			}
			if err != nil {
				return nil, err
			}
			ec := &pathfinder.ExecCtx{
				Docs: &client.DocResolver{Local: p.Store, Client: cl},
				Bulk: cl,
			}
			seq, err = pfc.Eval(ec, vars)
		}
	}
	if err != nil {
		return nil, err
	}

	res := &Result{Sequence: seq, Peers: cl.Peers(), Requests: cl.Requests.Load(), Updating: updating}
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
	if err := p.Server.Apply(pul); err != nil {
		return nil, err
	}
	return res, nil
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
