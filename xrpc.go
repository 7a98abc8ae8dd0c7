// Package xrpc is a Go reproduction of "XRPC: Interoperable and
// Efficient Distributed XQuery" (Ying Zhang & Peter Boncz, VLDB 2007).
//
// XRPC extends XQuery with a single construct,
//
//	execute at { Expr } { FunApp(ParamList) }
//
// which applies an XQuery function at a remote peer over a SOAP-based
// network protocol. The protocol's key feature is Bulk RPC: all
// applications of the same function arising from a for-loop travel in
// one request/response exchange, amortizing network latency. The
// extension is orthogonal to the rest of XQuery — including the XQuery
// Update Facility, whose updating functions can be called remotely with
// repeatable-read isolation and atomic distributed commit
// (WS-AtomicTransaction-style 2PC).
//
// This library contains everything the paper's system needed, built
// from scratch: an XQuery parser and tree-walking interpreter (the
// "Saxon" role), a loop-lifting relational compiler over iter|pos|item
// tables (the "MonetDB/XQuery + Pathfinder" role), the SOAP XRPC
// wire protocol, client and server with function cache and isolation
// manager, the §4 XRPC wrapper that lets any XQuery engine answer XRPC
// calls, and the §5 distributed query strategies (predicate pushdown,
// execution relocation, distributed semi-join).
//
// Beyond the paper, the server can drain one bulk request across CPU
// cores: Peer.SetParallelism(n) bounds a worker pool that evaluates the
// calls of a read-only Bulk RPC concurrently, while responses stay
// byte-identical to sequential execution and updating requests keep the
// paper's strictly sequential, repeatable-read semantics. Bulk RPC
// amortizes network latency; the pool amortizes per-call CPU time.
//
// # Quickstart
//
//	net := xrpc.NewNetwork(500*time.Microsecond, 0)
//
//	remote := xrpc.NewPeer("xrpc://y.example.org", net)
//	remote.LoadDocument("filmDB.xml", filmXML)
//	remote.RegisterModule(filmModule, "http://x.example.org/film.xq")
//	net.Register("xrpc://y.example.org", remote.Handler())
//
//	local := xrpc.NewPeer("xrpc://local", net)
//	local.RegisterModule(filmModule, "http://x.example.org/film.xq")
//	res, err := local.Query(`
//	  import module namespace f="films" at "http://x.example.org/film.xq";
//	  execute at {"xrpc://y.example.org"} {f:filmsByActor("Sean Connery")}`)
//
// See the examples/ directory for runnable programs, and the
// "Paper-section map" in README.md for the code and the command behind
// every section, table and figure of the paper.
package xrpc

import (
	"time"

	"xrpc/internal/core"
	"xrpc/internal/netsim"
	"xrpc/internal/xdm"
)

// Peer is one XRPC peer: document store, module registry, server
// endpoint and query processor. See core.Peer for the full API.
type Peer = core.Peer

// Result is the outcome of one query.
type Result = core.Result

// EngineKind selects the local execution engine.
type EngineKind = core.EngineKind

// Engine kinds: the loop-lifting compiler (Bulk RPC) and the
// tree-walking interpreter (one-at-a-time RPC).
const (
	EngineLoopLifted  = core.EngineLoopLifted
	EngineInterpreted = core.EngineInterpreted
)

// Network is an in-process network with simulated latency and bandwidth,
// standing in for the paper's 1 Gb/s testbed.
type Network = netsim.Network

// Transport delivers XRPC messages to peers: SendStream returns the
// response as a stream, and Send is that stream read to its end.
type Transport = netsim.Transport

// Handler is a peer network endpoint; it answers with a stream.
type Handler = netsim.Handler

// Sequence is an XQuery Data Model sequence; Item is one of its items;
// Node is an XML node.
type (
	Sequence = xdm.Sequence
	Item     = xdm.Item
	Node     = xdm.Node
)

// Atomic value types of the XDM.
type (
	String  = xdm.String
	Integer = xdm.Integer
	Double  = xdm.Double
	Boolean = xdm.Boolean
)

// NewNetwork creates a simulated network with the given round-trip
// latency and bandwidth in bytes/second (0 = unlimited).
func NewNetwork(rtt time.Duration, bandwidth float64) *Network {
	return netsim.NewNetwork(rtt, bandwidth)
}

// NewPeer creates a native XRPC peer (function-cached executor, the
// MonetDB/XQuery role). Register its Handler on the network to make it
// reachable.
func NewPeer(self string, transport Transport) *Peer {
	return core.NewPeer(self, transport)
}

// NewWrapperPeer creates a peer that serves XRPC through the §4 wrapper
// (the way an XRPC-incapable engine like Saxon participates): no
// function cache, documents re-parsed per request. Load documents with
// the second return value's LoadText.
func NewWrapperPeer(self string, transport Transport) (*Peer, *WrapperHandle) {
	p, w := core.NewWrapperPeer(self, transport)
	return p, &WrapperHandle{w: w}
}

// WrapperHandle configures a wrapper peer's document texts.
type WrapperHandle struct {
	w interface{ LoadText(name, text string) }
}

// LoadText registers a raw XML document with the wrapped engine.
func (h *WrapperHandle) LoadText(name, text string) { h.w.LoadText(name, text) }

// ParseXML parses an XML document into a node tree.
func ParseXML(uri, text string) (*Node, error) { return xdm.ParseDocument(uri, text) }

// Serialize renders a sequence as XML text.
func Serialize(seq Sequence) string { return xdm.SerializeSequence(seq) }
