// Package client implements the XRPC message sender API of §3: it turns
// function applications into SOAP XRPC request messages, posts them to
// destination peers, and shreds response messages back into XDM
// sequences. It supports single calls (one-at-a-time RPC, used by the
// interpreter), Bulk RPC (used by the loop-lifting engine), the
// concurrent fan-out behind parallel multi-destination dispatch (§3.2
// "Parallel & Out-Of-Order") and every other send to many peers, and the
// getDocument system call used for data-shipping queries.
package client

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xrpc/internal/interp"
	"xrpc/internal/netsim"
	"xrpc/internal/obs"
	"xrpc/internal/soap"
	"xrpc/internal/xdm"
)

// XRPCPath is the HTTP path XRPC requests are posted to.
const XRPCPath = "/xrpc"

// SystemModule is the reserved module URI for XRPC-internal calls (the
// document fetch behind data shipping).
const SystemModule = "urn:xrpc-system"

// Client sends XRPC requests on behalf of one query. It implements
// interp.RPCCaller. A Client records every peer it contacts so the
// originator can register all participants with the WS-Coordination
// service (§2.3); peers piggybacked on responses are folded in too.
type Client struct {
	Transport netsim.Transport
	// QueryID, when set, is attached to every request (repeatable-read
	// isolation). Nil means isolation level "none".
	QueryID *soap.QueryID
	// Retry, when set, re-sends buffered requests in place on transient
	// transport failures (see RetryPolicy). Nil means a single attempt —
	// failover, if any, is the caller's concern.
	Retry *RetryPolicy

	mu    sync.Mutex
	peers map[string]bool

	// Stats for experiments (atomic: Fanout sends to multiple
	// destinations concurrently, and experiments may read while a
	// dispatch is in flight).
	Requests atomic.Int64
	Sent     atomic.Int64
	Received atomic.Int64
	// Encodes counts request-body encodings — with encode-once
	// scatter-many, strictly fewer than Requests when one body is reused
	// across shards and replica failover attempts.
	Encodes atomic.Int64
	// Retries counts in-place re-sends under the Retry policy.
	Retries atomic.Int64
}

// New creates a client over a transport.
func New(t netsim.Transport) *Client {
	return &Client{Transport: t, peers: map[string]bool{}}
}

// RegisterMetrics promotes the client's ad-hoc stat counters onto a
// registry — the /metrics view of the same atomics experiments read
// in-process, so there is one source of truth.
func (c *Client) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	reg.CounterFunc("xrpc_client_requests_total",
		"XRPC requests sent (including replica failover attempts).",
		c.Requests.Load, labels...)
	reg.CounterFunc("xrpc_client_sent_bytes_total",
		"Request body bytes sent.", c.Sent.Load, labels...)
	reg.CounterFunc("xrpc_client_received_bytes_total",
		"Response body bytes received.", c.Received.Load, labels...)
	reg.CounterFunc("xrpc_client_encodes_total",
		"Request bodies encoded (fewer than requests under encode-once scatter-many).",
		c.Encodes.Load, labels...)
	reg.CounterFunc("xrpc_client_retries_total",
		"In-place re-sends of transiently failed requests.",
		c.Retries.Load, labels...)
}

// Peers returns all destination peers this client has contacted,
// including peers piggybacked by nested calls.
func (c *Client) Peers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.peers))
	for p := range c.peers {
		out = append(out, p)
	}
	return out
}

func (c *Client) notePeers(dest string, piggyback []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.peers[dest] = true
	for _, p := range piggyback {
		c.peers[p] = true
	}
}

// Call implements interp.RPCCaller: a single (non-bulk) XRPC call.
func (c *Client) Call(dest string, req *interp.CallRequest) (xdm.Sequence, error) {
	results, err := c.CallBulk(dest, &BulkRequest{
		ModuleURI:  req.ModuleURI,
		AtHint:     req.AtHint,
		Func:       req.Func,
		Arity:      req.Arity,
		Updating:   req.Updating,
		ByFragment: req.ByFragment,
		Calls:      [][]xdm.Sequence{req.Args},
	})
	if err != nil {
		return nil, err
	}
	if len(results) != 1 {
		return nil, fmt.Errorf("xrpc: expected 1 result sequence, got %d", len(results))
	}
	return results[0], nil
}

// BulkRequest is a set of calls of one function at one destination.
type BulkRequest struct {
	ModuleURI string
	AtHint    string
	Func      string
	Arity     int
	Updating  bool
	Calls     [][]xdm.Sequence
	// ByFragment enables the call-by-fragment extension (descendant
	// node parameters travel as xrpc:nodeid references).
	ByFragment bool
	// SeqNrs tags calls with their original query positions for the
	// deterministic-update-order extension.
	SeqNrs []int64
	// TraceID, when set, rides the envelope header so the destination
	// peer's logs and metrics correlate with the originating request.
	TraceID string
	// Projection, when set, is the wire form of the xdm.Projection the
	// destination prunes each result item by (soap.Request.Projection).
	Projection string
}

// CallBulk performs a Bulk RPC: all calls in a single request/response
// network interaction, returning one result sequence per call. The
// request body is built in a pooled encoder and released after the send
// — zero copies of the request on the in-process transport.
func (c *Client) CallBulk(dest string, br *BulkRequest) ([]xdm.Sequence, error) {
	enc := c.EncodeBulk(br)
	defer enc.Release()
	return c.SendEncoded(dest, enc.Bytes(), len(br.Calls))
}

// EncodeBulk renders the SOAP request body for br once, into a pooled
// encoder the caller must Release. The body is destination-independent,
// so scatter-gather coordinators encode once and send the same bytes to
// every shard and replica (encode-once, scatter-many).
func (c *Client) EncodeBulk(br *BulkRequest) *soap.Encoder {
	req := &soap.Request{
		Module:     br.ModuleURI,
		Method:     br.Func,
		Arity:      br.Arity,
		Location:   br.AtHint,
		Updating:   br.Updating,
		QueryID:    c.QueryID,
		TraceID:    br.TraceID,
		Projection: br.Projection,
		Calls:      br.Calls,
		ByFragment: br.ByFragment,
		SeqNrs:     br.SeqNrs,
	}
	enc := soap.NewEncoder()
	enc.EncodeRequest(req)
	c.Encodes.Add(1)
	return enc
}

// SendEncoded posts a pre-encoded request body to dest and decodes the
// response, expecting one result sequence per call. Safe to call
// concurrently with the same body: the bytes are only read. With a
// Retry policy set, transient transport failures are re-sent in place
// with capped exponential backoff before the error surfaces.
func (c *Client) SendEncoded(dest string, body []byte, calls int) ([]xdm.Sequence, error) {
	respBody, err := c.sendRetried(dest, body)
	if err != nil {
		return nil, fmt.Errorf("xrpc: send to %s: %w", dest, err)
	}
	resp, err := soap.DecodeResponse(respBody)
	if err != nil {
		return nil, err // includes *soap.Fault
	}
	if len(resp.Results) != calls {
		return nil, fmt.Errorf("xrpc: %d results for %d calls", len(resp.Results), calls)
	}
	c.notePeers(dest, resp.Peers)
	return resp.Results, nil
}

// sendRetried is one buffered transport exchange under the retry
// policy. Streamed sends (SendStreamed) do not retry here: a stream
// that failed mid-body is not safely re-sendable without consumer
// cooperation, and the scatter path has replica failover instead.
func (c *Client) sendRetried(dest string, body []byte) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		respBody, err := c.Transport.Send(dest, XRPCPath, body)
		c.Requests.Add(1)
		c.Sent.Add(int64(len(body)))
		c.Received.Add(int64(len(respBody)))
		if err == nil {
			return respBody, nil
		}
		if c.Retry == nil || attempt >= c.Retry.Max || !Retriable(err) {
			return nil, err
		}
		c.Retries.Add(1)
		c.Retry.backoff(attempt)
	}
}

// Fanout is the one way to send to many peers at once (§3.2's parallel
// multi-destination Bulk RPC, a scatter's shard parts, §2.3's 2PC verbs):
// it runs f(0) … f(n-1) concurrently — f(0) on the caller's goroutine,
// so n == 1 starts no goroutine — and waits for every one of them, even
// after a failure. When several fail, the lowest failing index and its
// error are returned, deterministically; failed is -1 when none did.
// Each f writes only its own index's results; what to do about a
// failure (abort, close, carry on) stays with the caller.
func Fanout(n int, f func(i int) error) (failed int, err error) {
	if n <= 1 {
		if n == 1 {
			if err := f(0); err != nil {
				return 0, err
			}
		}
		return -1, nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 1; i < n; i++ {
		go func() {
			defer wg.Done()
			errs[i] = f(i)
		}()
	}
	errs[0] = f(0)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}

// FetchDocument retrieves a remote document by path from dest using the
// reserved getDocument system call — the mechanism behind data-shipping
// execution of fn:doc("xrpc://peer/path").
func (c *Client) FetchDocument(dest, path string) (*xdm.Node, error) {
	res, err := c.CallBulk(dest, &BulkRequest{
		ModuleURI: SystemModule,
		Func:      "getDocument",
		Arity:     1,
		Calls:     [][]xdm.Sequence{{{xdm.String(path)}}},
	})
	if err != nil {
		return nil, err
	}
	if len(res[0]) != 1 {
		return nil, fmt.Errorf("xrpc: getDocument(%q) returned %d items", path, len(res[0]))
	}
	n, ok := res[0][0].(*xdm.Node)
	if !ok {
		return nil, fmt.Errorf("xrpc: getDocument(%q) returned a non-node", path)
	}
	return n, nil
}

// DocResolver is a document resolver that sends fn:doc calls with
// xrpc:// URIs to the remote peer (data shipping) and delegates all other
// URIs to a local resolver. Fetched documents are cached: fn:doc is
// stable within a query (the same URI must yield the same node), and
// without the cache a doc() under a for-loop would re-ship the document
// once per iteration.
type DocResolver struct {
	Local  interp.DocResolver
	Client *Client

	mu      sync.Mutex
	fetched map[string]*xdm.Node
}

// Doc implements interp.DocResolver.
func (r *DocResolver) Doc(uri string) (*xdm.Node, error) {
	host, path := interp.SplitXrpcURL(uri)
	if host == "localhost" {
		if r.Local == nil {
			return nil, xdm.Errorf("FODC0002", "document %q not found (no local store)", uri)
		}
		return r.Local.Doc(uri)
	}
	r.mu.Lock()
	if doc, ok := r.fetched[uri]; ok {
		r.mu.Unlock()
		return doc, nil
	}
	r.mu.Unlock()
	doc, err := r.Client.FetchDocument(host, path)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.fetched == nil {
		r.fetched = map[string]*xdm.Node{}
	}
	r.fetched[uri] = doc
	r.mu.Unlock()
	return doc, nil
}

var _ interp.VersionedResolver = (*DocResolver)(nil)

// Names implements interp.VersionedResolver: the documents of Local's
// version, none when Local is not one.
func (r *DocResolver) Names() []string {
	if v, ok := r.Local.(interp.VersionedResolver); ok {
		return v.Names()
	}
	return nil
}

// Derived implements interp.VersionedResolver: the value derived from
// Local's version, nil when Local is not one. The documents fetched from
// other peers are not the version's; an evaluation keeps what it
// derives from them to itself.
func (r *DocResolver) Derived(build func() any) any {
	if v, ok := r.Local.(interp.VersionedResolver); ok {
		return v.Derived(build)
	}
	return nil
}
