// Package netsim simulates the network between XRPC peers. The paper's
// experiments ran on two 2 GHz Athlon64 machines on 1 Gb/s Ethernet; this
// package substitutes that testbed with an in-process network whose
// round-trip latency and bandwidth are configurable, so the
// latency-amortization effect of Bulk RPC (Table 2) and the
// bandwidth-bound throughput regime (§3.3) are both observable on one
// machine.
//
// The same Transport interface is implemented by a real HTTP transport in
// the client package, so every experiment can also run over localhost
// TCP.
//
// An exchange has one shape: a peer's Handler answers with a stream, and
// a buffered Send is that stream read to its end, so fault injection,
// delay and stats live in SendStream alone.
package netsim

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xrpc/internal/obs"
)

// Handler is a peer endpoint: it receives an XRPC (or WS-AT) message
// body posted to a path and returns the response as a stream, so a
// consumer can start decoding before the peer has finished. The caller
// must Close the stream.
type Handler interface {
	HandleXRPC(path string, body []byte) (io.ReadCloser, error)
}

// Transport delivers a message to a destination peer URI. SendStream
// returns the response as a byte stream the caller must Close (after
// draining it, if the connection is to be reused); Send is SendStream
// read to its end. Implementations: *Network (simulated),
// client.HTTPTransport.
type Transport interface {
	Send(dest, path string, body []byte) ([]byte, error)
	SendStream(dest, path string, body []byte) (io.ReadCloser, error)
}

// StreamTransport is Transport under the name it had while streaming
// was optional.
type StreamTransport = Transport

// Stats counts traffic through a network.
type Stats struct {
	Requests      atomic.Int64
	BytesSent     atomic.Int64
	BytesReceived atomic.Int64
}

// Network is an in-process network connecting registered peers, with
// simulated latency and bandwidth.
type Network struct {
	mu      sync.RWMutex
	peers   map[string]Handler
	perPeer map[string]*Stats
	// faults, when armed, injects per-peer failures (see faults.go).
	faults *faultState

	// RTT is the per-request round-trip latency (paper LAN: ~0.1-1ms;
	// WAN: tens of ms). Applied once per Send.
	RTT time.Duration
	// Bandwidth in bytes/second; 0 means unlimited. Transfer time for
	// request+response bytes is added to the delay.
	Bandwidth float64
	// Sleep is the delay function (replaceable in tests). Defaults to
	// time.Sleep.
	Sleep func(time.Duration)

	Stats Stats
}

// NewNetwork creates a network with the given round-trip latency and
// bandwidth (bytes/sec, 0 = unlimited).
func NewNetwork(rtt time.Duration, bandwidth float64) *Network {
	return &Network{
		peers:     map[string]Handler{},
		RTT:       rtt,
		Bandwidth: bandwidth,
		Sleep:     time.Sleep,
	}
}

// Register attaches a peer handler under its URI (e.g.
// "xrpc://y.example.org").
func (n *Network) Register(uri string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[uri] = h
}

// Peer returns the handler registered under uri.
func (n *Network) Peer(uri string) (Handler, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	h, ok := n.peers[uri]
	return h, ok
}

// Send implements Transport: SendStream read to its end by ReadBody,
// and closed.
func (n *Network) Send(dest, path string, body []byte) ([]byte, error) {
	rc, err := n.SendStream(dest, path, body)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return ReadBody(rc, -1)
}

// bodyChunk is the size of the pooled chunks ReadBody reads a body of
// unknown length into.
const bodyChunk = 32 << 10

// maxPresize bounds the announced length ReadBody allocates up front: a
// peer that announces more is read in chunks like one that announces
// nothing, so a short message claiming a huge length cannot make its
// reader allocate that length.
const maxPresize = 16 << 20

var chunkPool = sync.Pool{New: func() any { return new([bodyChunk]byte) }}

// ReadBody reads r to its end: the one way a message body becomes one
// buffer (a buffered Send, a peer's request intake). size is the body's
// announced length (Content-Length), or -1 when unknown. A known size
// is read into one buffer of that size; otherwise the body is read into
// pooled fixed-size chunks and copied once into a buffer of its final
// size. Either way the bytes cost one allocation of their own size and
// are copied at most once; chunks go back to the pool, which the
// garbage collector empties.
func ReadBody(r io.Reader, size int64) ([]byte, error) {
	var buf []byte
	if size >= 0 && size < maxPresize {
		buf = make([]byte, size)
		for n := 0; n < len(buf); {
			m, err := r.Read(buf[n:])
			n += m
			if err == io.EOF {
				return buf[:n], nil
			}
			if err != nil {
				return nil, err
			}
		}
		// full, and the EOF not seen yet: the chunks read it, or what
		// follows if the body is longer than announced
	}
	var held [32]*[bodyChunk]byte
	chunks := held[:0]
	defer func() {
		for _, c := range chunks {
			chunkPool.Put(c)
		}
	}()
	total, fill := 0, bodyChunk
	for {
		if fill == bodyChunk {
			chunks = append(chunks, chunkPool.Get().(*[bodyChunk]byte))
			fill = 0
		}
		n, err := r.Read(chunks[len(chunks)-1][fill:])
		fill += n
		total += n
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if total == 0 && len(buf) > 0 {
		return buf, nil
	}
	out := make([]byte, len(buf)+total)
	at := copy(out, buf)
	for _, c := range chunks {
		at += copy(out[at:], c[:min(bodyChunk, len(out)-at)])
	}
	return out, nil
}

// SendStream implements Transport: it delivers the message to the
// registered peer, unless an injected fault fires first. The request's
// share of the simulated delay (RTT plus request transfer time) is paid
// when the stream opens; response bytes are then paced per Read at the
// configured bandwidth, so a consumer overlaps decode time with
// transfer time just as it would on a real socket. Stats are counted
// only for streams that open successfully, with received bytes metered
// as they are read.
func (n *Network) SendStream(dest, path string, body []byte) (io.ReadCloser, error) {
	n.mu.RLock()
	h, ok := n.peers[dest]
	n.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("netsim: no peer registered at %q", dest)
	}
	if err := n.injectFault(dest); err != nil {
		return nil, err
	}
	rc, err := h.HandleXRPC(path, body)
	if err != nil {
		return nil, err
	}
	delay := n.RTT
	if n.Bandwidth > 0 {
		delay += time.Duration(float64(len(body)) / n.Bandwidth * float64(time.Second))
	}
	if delay > 0 && n.Sleep != nil {
		n.Sleep(delay)
	}
	ps := n.peerStats(dest)
	n.Stats.Requests.Add(1)
	n.Stats.BytesSent.Add(int64(len(body)))
	ps.Requests.Add(1)
	ps.BytesSent.Add(int64(len(body)))
	return &meteredBody{rc: rc, net: n, ps: ps}, nil
}

// meteredBody paces and counts response bytes as the consumer reads
// them off a simulated stream.
type meteredBody struct {
	rc  io.ReadCloser
	net *Network
	ps  *Stats
}

func (m *meteredBody) Read(p []byte) (int, error) {
	n, err := m.rc.Read(p)
	if n > 0 {
		if m.net.Bandwidth > 0 && m.net.Sleep != nil {
			if d := time.Duration(float64(n) / m.net.Bandwidth * float64(time.Second)); d > 0 {
				m.net.Sleep(d)
			}
		}
		m.net.Stats.BytesReceived.Add(int64(n))
		m.ps.BytesReceived.Add(int64(n))
	}
	return n, err
}

func (m *meteredBody) Close() error { return m.rc.Close() }

func (n *Network) peerStats(dest string) *Stats {
	// fast path: steady-state sends only take the read lock, keeping
	// concurrent scatter traffic free of writer serialization
	n.mu.RLock()
	ps, ok := n.perPeer[dest]
	n.mu.RUnlock()
	if ok {
		return ps
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.perPeer == nil {
		n.perPeer = map[string]*Stats{}
	}
	if ps, ok = n.perPeer[dest]; !ok {
		ps = &Stats{}
		n.perPeer[dest] = ps
	}
	return ps
}

// PeerStats returns the per-destination traffic counters for dest
// (zeroes if the destination has seen no traffic). Experiments use this
// to show how scatter-gather splits bytes across shard peers.
func (n *Network) PeerStats(dest string) (requests, sent, received int64) {
	n.mu.RLock()
	ps, ok := n.perPeer[dest]
	n.mu.RUnlock()
	if !ok {
		return 0, 0, 0
	}
	return ps.Requests.Load(), ps.BytesSent.Load(), ps.BytesReceived.Load()
}

// RegisterMetrics promotes the network's traffic counters onto a
// registry: the aggregate counters plus one series per peer registered
// at call time. The counters stay the same atomics experiments read and
// ResetStats zeroes — the registry holds readers, not copies.
func (n *Network) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("xrpc_netsim_requests_total",
		"Requests through the simulated network.", n.Stats.Requests.Load)
	reg.CounterFunc("xrpc_netsim_sent_bytes_total",
		"Request bytes through the simulated network.", n.Stats.BytesSent.Load)
	reg.CounterFunc("xrpc_netsim_received_bytes_total",
		"Response bytes through the simulated network.", n.Stats.BytesReceived.Load)
	n.mu.RLock()
	uris := make([]string, 0, len(n.peers))
	for uri := range n.peers {
		uris = append(uris, uri)
	}
	n.mu.RUnlock()
	sort.Strings(uris)
	for _, uri := range uris {
		ps := n.peerStats(uri)
		reg.CounterFunc("xrpc_netsim_peer_requests_total",
			"Requests delivered to one peer.", ps.Requests.Load, obs.Label{Key: "peer", Value: uri})
		reg.CounterFunc("xrpc_netsim_peer_received_bytes_total",
			"Response bytes produced by one peer.", ps.BytesReceived.Load, obs.Label{Key: "peer", Value: uri})
	}
}

// ResetStats zeroes the aggregate and per-peer traffic counters.
func (n *Network) ResetStats() {
	n.Stats.Requests.Store(0)
	n.Stats.BytesSent.Store(0)
	n.Stats.BytesReceived.Store(0)
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, ps := range n.perPeer {
		ps.Requests.Store(0)
		ps.BytesSent.Store(0)
		ps.BytesReceived.Store(0)
	}
}

// HandlerFunc adapts a function that builds its whole response to the
// Handler interface.
type HandlerFunc func(path string, body []byte) ([]byte, error)

// HandleXRPC implements Handler.
func (f HandlerFunc) HandleXRPC(path string, body []byte) (io.ReadCloser, error) {
	resp, err := f(path, body)
	if err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(resp)), nil
}

// StreamHandlerFunc adapts a function that streams its response to the
// Handler interface.
type StreamHandlerFunc func(path string, body []byte) (io.ReadCloser, error)

// HandleXRPC implements Handler.
func (f StreamHandlerFunc) HandleXRPC(path string, body []byte) (io.ReadCloser, error) {
	return f(path, body)
}
