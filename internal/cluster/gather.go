package cluster

import (
	"fmt"
	"io"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/soap"
	"xrpc/internal/xdm"
)

// gather.go is the cluster's one read path. Scatter, ScatterStream, the
// proxy and the result cache's stale-shard refresh all run the same
// pipeline and differ only in the sink they hand it:
//
//	validate → plan → cache stage → open one response stream per shard
//	part (replica failover at open) → shard-order merge by call index → sink
//
// A plan is a list of shard parts, each a sub-request plus the original
// indices of its calls; a broadcast is simply the plan whose parts are
// every shard, all calls, one shared encoded body. The merge walks the
// open streams one result sequence at a time — shard k's items for call
// i are forwarded while shards k+1..N wait in their transports' own
// read-ahead (socket buffers over HTTP, a pipe on netsim), which stalls
// a shard the merge has not reached yet — so for every plan shape the
// coordinator holds one scanner window per shard, each at most
// xdm.WindowBound of the largest item wrapper: O(shards × scanner
// window + largest item), not O(result). The output is byte-identical
// to ScatterBuffered's collect-then-concat (the merge order is exactly
// the concatenation order).

// readOp is one read's state: the client its sends go through (the
// coordinator's own, or one pinned to a proxied request's queryID), the
// plan, and the request encodings held until the read ends.
type readOp struct {
	co   *Coordinator
	cl   *client.Client
	br   *client.BulkRequest
	dec  *planDecision
	encs map[*client.BulkRequest]*soap.Encoder
}

// newRead validates the request and plans it.
func (co *Coordinator) newRead(cl *client.Client, br *client.BulkRequest) (*readOp, error) {
	if br.Updating {
		return nil, xdm.NewError("XRPC0007",
			"cluster: updating bulk requests are routed, not scattered (use Update/CallBulk)")
	}
	if err := co.validTable(); err != nil {
		return nil, err
	}
	return co.plannedRead(cl, br, co.plan(br)), nil
}

func (co *Coordinator) plannedRead(cl *client.Client, br *client.BulkRequest, dec *planDecision) *readOp {
	return &readOp{co: co, cl: cl, br: br, dec: dec, encs: map[*client.BulkRequest]*soap.Encoder{}}
}

func (r *readOp) release() {
	for _, enc := range r.encs {
		enc.Release()
	}
}

// body is br's encoding, made at most once per read. A request body is
// destination-independent, so the parts of a broadcast — which all carry
// the request as it arrived — and every failover attempt post the same
// bytes, which also key the result cache; a pruned plan encodes one call
// subset per contacted shard instead, trading encodings for not sending
// (or executing) pruned calls at all.
func (r *readOp) body(br *client.BulkRequest) []byte {
	enc, ok := r.encs[br]
	if !ok {
		enc = r.cl.EncodeBulk(br)
		r.encs[br] = enc
	}
	return enc.Bytes()
}

// read is the pipeline. Results reach out incrementally, in call order
// and within a call in shard order (= document order); a call no part
// carries — its key is provably on no shard — yields the empty sequence
// every shard would have produced.
func (co *Coordinator) read(cl *client.Client, br *client.BulkRequest, out sink) error {
	r, err := co.newRead(cl, br)
	if err != nil {
		return err
	}
	defer r.release()
	// The one cache rule: the merged-result cache is consulted iff the
	// request is outside an isolation scope (a queryID'd request sees its
	// own pinned snapshots) and the plan sends requests to two or more
	// shards. A hit costs one fence probe per shard, so for a plan that
	// contacts at most one shard a hit can never send fewer requests than
	// executing — and that shard's own response cache (tier 1) already
	// answers under the same version fence.
	if co.ResultCache != nil && cl.QueryID == nil && len(r.dec.parts) >= 2 {
		return r.throughCache(out)
	}
	return r.run(r.dec.parts, out)
}

// run executes parts — the whole plan, or the stale shards' share of it
// — into out, and is where a scatter is observed: the strategy counter,
// fan-out, latency, the slow-scatter record.
func (r *readOp) run(parts []*shardPart, out sink) error {
	co := r.co
	co.Metrics.countScatter(r.dec.strategy)
	start := time.Now()
	streams, err := r.open(parts)
	if err != nil {
		return err
	}
	defer closeStreams(streams)
	if err := co.merge(streams, len(r.br.Calls), out); err != nil {
		return err
	}
	co.observeScatter(r.br, streams, time.Since(start), r.dec)
	return nil
}

// partStream is one part's open response during a merge.
type partStream struct {
	part    *shardPart
	sr      *client.StreamedResponse
	openDur time.Duration // send → response stream open
	next    int           // index into part.orig of the next sequence to pull
	decoded bool          // some item of it was pulled as a tree, not as bytes
}

// walkReplicas tries send at the shard's primary and walks the replica
// list on retriable failures. Definitive errors (SOAP faults, 4xx HTTP
// statuses) stop the walk: every replica holds the same shard, so a
// deterministic rejection would only repeat.
func (co *Coordinator) walkReplicas(shard int, send func(uri string) error) error {
	replicas := co.Table.Replicas(shard)
	var err error
	for a, uri := range replicas {
		if err = send(uri); err == nil || !client.Retriable(err) {
			co.Metrics.countFailovers(a)
			return err
		}
	}
	co.Metrics.countFailovers(len(replicas) - 1)
	return fmt.Errorf("all %d replica(s) unreachable: %w", len(replicas), err)
}

// open opens every part's response stream concurrently — at the shard's
// primary, failing over along its replicas with the same pre-encoded
// bytes, never re-encoding — and waits for the opens (header only: the
// responses themselves stream afterwards). Failover happens only here:
// once a stream is being merged its bytes are already part of the output
// and a mid-stream failure aborts the read. client.Fanout keeps error
// selection deterministic: parts are in ascending shard order, so when
// several fail to open the lowest shard index is reported, matching the
// buffered reference. On any failure every opened stream is closed. The
// open time is also the per-shard call timing the planner's cost model
// reads.
func (r *readOp) open(parts []*shardPart) ([]*partStream, error) {
	co := r.co
	streams := make([]*partStream, len(parts))
	backing := make([]partStream, len(parts))
	bodies := make([][]byte, len(parts))
	for i, p := range parts {
		backing[i].part = p
		streams[i] = &backing[i]
		bodies[i] = r.body(p.br) // r.body fills a map: not from the concurrent sends
	}
	failed, err := client.Fanout(len(parts), func(i int) error {
		ps, shard := streams[i], parts[i].shard
		t0 := time.Now()
		err := co.walkReplicas(shard, func(uri string) (err error) {
			ps.sr, err = r.cl.SendStreamed(uri, bodies[i], len(parts[i].br.Calls))
			return err
		})
		ps.openDur = time.Since(t0)
		if m := co.Metrics; m != nil && shard < len(m.Open) {
			m.Open[shard].ObserveDuration(ps.openDur)
		}
		if err == nil {
			co.notePlannerCall(shard, ps.openDur)
		}
		return err
	})
	if err != nil {
		closeStreams(streams)
		return nil, fmt.Errorf("cluster: shard %d: %w", parts[failed].shard, err)
	}
	return streams, nil
}

func closeStreams(streams []*partStream) {
	for _, ps := range streams {
		if ps.sr != nil {
			ps.sr.Close()
		}
	}
}

// merge is the shard-order merge over any plan. Each part's stream
// yields its sequences in ascending original-call order, so one forward
// walk suffices: for call i, visit the parts in ascending shard order
// and pull the next sequence from exactly those whose next call is i.
// Every stream is then Finished, which validates result counts and
// trailing envelope content. A rawSink is handed each item wrapper as the
// bytes the shard sent — tokenized on the way, so a malformed or
// truncated stream fails here exactly as it does decoded, but never
// built into a tree the coordinator would only serialize again; any
// other sink, and any stream that cannot lend its items out, gets them
// decoded. With metrics attached merge also records the merge wall
// clock, each shard's time to first merged item and which way each
// stream was forwarded; without, the item path makes no clock reads.
func (co *Coordinator) merge(streams []*partStream, calls int, out sink) error {
	splice, _ := out.(rawSink)
	var start time.Time
	var seen []bool
	if m := co.Metrics; m != nil {
		start = time.Now()
		seen = make([]bool, len(m.FirstItem))
		defer func() { m.Merge.ObserveDuration(time.Since(start)) }()
	}
	for i := 0; i < calls; i++ {
		if err := out.beginSeq(); err != nil {
			return err
		}
		for _, ps := range streams {
			orig, shard := ps.part.orig, ps.part.shard
			if ps.next == len(orig) || orig[ps.next] != i {
				continue
			}
			ok, err := ps.sr.NextSequence()
			if err != nil {
				return fmt.Errorf("cluster: shard %d: %w", shard, err)
			}
			if !ok {
				return fmt.Errorf("cluster: shard %d: %d results for %d calls", shard, ps.next, len(orig))
			}
			ps.next++
			for {
				var (
					raw     []byte
					it      xdm.Item
					spliced bool
				)
				if splice != nil {
					raw, spliced, err = ps.sr.NextItemRaw()
				}
				if !spliced && err == nil {
					ps.decoded = true
					it, err = ps.sr.NextItem()
				}
				if err != nil {
					return fmt.Errorf("cluster: shard %d: %w", shard, err)
				}
				if raw == nil && it == nil {
					break
				}
				if shard < len(seen) && !seen[shard] {
					seen[shard] = true
					co.Metrics.FirstItem[shard].ObserveDuration(time.Since(start))
				}
				if raw != nil {
					err = splice.raw(shard, raw)
				} else {
					err = out.item(shard, it)
				}
				if err != nil {
					return err
				}
			}
		}
		if err := out.endSeq(); err != nil {
			return err
		}
	}
	for _, ps := range streams {
		if _, err := ps.sr.Finish(); err != nil {
			return fmt.Errorf("cluster: shard %d: %w", ps.part.shard, err)
		}
		co.Metrics.countStream(splice != nil && !ps.decoded)
	}
	return nil
}

// Scatter sends the read-only bulk request to the shards and returns the
// merged response: result i is the concatenation, in shard order, of
// every contacted shard's result i — identical to ScatterBuffered (the
// executable reference) and to a single peer holding the whole document.
func (co *Coordinator) Scatter(br *client.BulkRequest) ([]xdm.Sequence, error) {
	var out sliceSink
	if err := co.read(co.Client, br, &out); err != nil {
		return nil, err
	}
	return out.merged, nil
}

// ScatterStream is Scatter with the merged response envelope written to
// w in chunks as it is assembled: shard k's item wrappers are appended
// to the output as the bytes they arrived in and gone before shard
// k+1's arrive — socket → tokenizer → merge → chunked writer end to end,
// for every plan shape, with no item built into a tree on the way. The
// envelope is byte-identical to encoding Scatter's result.
func (co *Coordinator) ScatterStream(br *client.BulkRequest, w io.Writer) error {
	return co.scatterStream(co.Client, br, w)
}

// scatterStream is ScatterStream through a per-request client (the
// proxy pins one to a request's queryID). Nothing reaches w before the
// part streams are open: the envelope header sits in the encoder's
// buffer, so a failure to open leaves w untouched.
func (co *Coordinator) scatterStream(cl *client.Client, br *client.BulkRequest, w io.Writer) error {
	out := newWriterSink(w, br)
	defer out.enc.Release()
	if err := co.read(cl, br, out); err != nil {
		return err
	}
	return out.finish()
}
