package client

import (
	"fmt"
	"io"
	"sync/atomic"

	"xrpc/internal/soap"
	"xrpc/internal/xdm"
)

// stream.go is the one shape of a response on the client: instead of
// buffering the whole response envelope and shredding it in one go,
// SendStreamed hands back a pull-style view over the response as its
// bytes arrive, so a consumer (the scatter-gather merge, a result
// forwarder) holds one item at a time rather than one response at a
// time. Every transport streams; SendEncoded is the same exchange read
// to its end and decoded at once.

// StreamedResponse is an in-flight bulk response: result sequences and
// their items are decoded on demand as the peer produces them. The
// consumer must either walk it to Finish (which validates the result
// count against the call count, folds in piggybacked peers, and frees
// the connection) or Close it to abandon the rest.
type StreamedResponse struct {
	rs    *soap.ResponseStream
	body  io.ReadCloser
	c     *Client
	dest  string
	calls int
	seqs  int

	closed bool
}

// SendStreamed posts a pre-encoded request body to dest and returns the
// response as a stream. The decoder reads straight off the transport:
// the read-ahead is the transport's own (socket buffers over HTTP, a
// pipe on netsim), so a consumer that falls behind stalls the producer
// through it. Safe to call concurrently with the same body: the bytes
// are only read.
func (c *Client) SendStreamed(dest string, body []byte, calls int) (*StreamedResponse, error) {
	c.Requests.Add(1)
	c.Sent.Add(int64(len(body)))
	r, err := c.Transport.SendStream(dest, XRPCPath, body)
	if err != nil {
		return nil, fmt.Errorf("xrpc: send to %s: %w", dest, err)
	}
	rc := &countingBody{rc: r, n: &c.Received}
	rs, err := soap.NewResponseStream(rc)
	if err != nil {
		rc.Close()
		return nil, err
	}
	return &StreamedResponse{rs: rs, body: rc, c: c, dest: dest, calls: calls}, nil
}

// Module returns the xrpc:module attribute of the response.
func (sr *StreamedResponse) Module() string { return sr.rs.Module() }

// Method returns the xrpc:method attribute of the response.
func (sr *StreamedResponse) Method() string { return sr.rs.Method() }

// NextSequence advances to the next result sequence, discarding unread
// items of the current one. False means the response holds no further
// sequences.
func (sr *StreamedResponse) NextSequence() (bool, error) {
	ok, err := sr.rs.NextSequence()
	if ok {
		sr.seqs++
	}
	return ok, err
}

// NextItem returns the next item of the current sequence, or (nil, nil)
// at its end.
func (sr *StreamedResponse) NextItem() (xdm.Item, error) {
	return sr.rs.NextItem()
}

// NextItemRaw returns the next item wrapper of the current sequence as
// bytes for a consumer that forwards it, valid until the next call on
// the response; ok false means this response's framing cannot lend its
// items out and the caller reads NextItem instead (see
// soap.ResponseStream.NextItemRaw).
func (sr *StreamedResponse) NextItemRaw() (raw []byte, ok bool, err error) {
	return sr.rs.NextItemRaw()
}

// Finish drains the rest of the response, verifies one result sequence
// arrived per call, records piggybacked participating peers, and
// releases the connection. It returns the peers.
func (sr *StreamedResponse) Finish() ([]string, error) {
	for {
		ok, err := sr.NextSequence()
		if err != nil {
			sr.Close()
			return nil, err
		}
		if !ok {
			break
		}
	}
	peers, err := sr.rs.Finish()
	if err != nil {
		sr.Close()
		return nil, err
	}
	if sr.seqs != sr.calls {
		sr.Close()
		return nil, fmt.Errorf("xrpc: %d results for %d calls", sr.seqs, sr.calls)
	}
	sr.c.notePeers(sr.dest, peers)
	sr.Close()
	return peers, nil
}

// Close abandons the stream without validating the remainder. Safe to
// call more than once and after Finish.
func (sr *StreamedResponse) Close() error {
	if sr.closed {
		return nil
	}
	sr.closed = true
	return sr.body.Close()
}

// countingBody adds every byte read to a client stat counter.
type countingBody struct {
	rc io.ReadCloser
	n  *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if n > 0 {
		b.n.Add(int64(n))
	}
	return n, err
}

func (b *countingBody) Close() error { return b.rc.Close() }
