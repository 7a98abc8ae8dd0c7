package cluster

import (
	"io"

	"xrpc/internal/client"
	"xrpc/internal/soap"
	"xrpc/internal/xdm"
)

// sink is where the read pipeline's merge goes. There are three: a
// slice sink (Scatter), a writer sink (ScatterStream, the proxy), and a
// capturing tee around either for result-cache population. A sink takes
// items as trees; one that only passes them on says so by also being a
// rawSink, and the merge then hands it the shards' bytes instead.
type sink interface {
	// beginSeq, item and endSeq receive the merge incrementally, one
	// result sequence per call; item is told which shard produced it.
	beginSeq() error
	item(shard int, it xdm.Item) error
	endSeq() error
	// all delivers a result that already exists in memory (a cache hit
	// or refresh) in place of the incremental calls.
	all(res []xdm.Sequence) error
	// written is the encoded size of what the sink has taken so far; 0
	// for a sink that does not encode.
	written() int64
}

// rawSink is a sink that does not read the items it is given: where a
// part stream can lend an item wrapper out as bytes
// (client.StreamedResponse.NextItemRaw), the merge calls raw with them
// in place of item with the decoded tree. The bytes are only valid
// during the call.
type rawSink interface {
	sink
	raw(shard int, wrapper []byte) error
}

// sliceSink accumulates the merged result.
type sliceSink struct {
	merged []xdm.Sequence
	cur    xdm.Sequence
}

func (s *sliceSink) beginSeq() error { s.cur = nil; return nil }

func (s *sliceSink) item(_ int, it xdm.Item) error { s.cur = append(s.cur, it); return nil }

func (s *sliceSink) endSeq() error { s.merged = append(s.merged, s.cur); return nil }

func (s *sliceSink) all(res []xdm.Sequence) error { s.merged = res; return nil }

func (s *sliceSink) written() int64 { return 0 }

// writerSink writes the merged response envelope to w in chunks as it
// is assembled, so the merged result never exists in memory: the framing
// is encoded here, item wrappers are appended as the bytes the shards
// sent (raw), and only items that arrive as trees — a cached result, a
// shard whose framing is not ours — are encoded. It is the encoder's own
// io.Writer in order to count what has left the process.
type writerSink struct {
	enc     *soap.Encoder
	w       io.Writer
	flushed int64
}

func newWriterSink(w io.Writer, br *client.BulkRequest) *writerSink {
	s := &writerSink{w: w}
	s.enc = soap.NewStreamEncoder(s, 0)
	s.enc.BeginResponse(br.ModuleURI, br.Func)
	return s
}

func (s *writerSink) Write(p []byte) (int, error) {
	n, err := s.w.Write(p)
	s.flushed += int64(n)
	return n, err
}

func (s *writerSink) beginSeq() error { s.enc.BeginSequence(); return s.enc.Err() }

func (s *writerSink) item(_ int, it xdm.Item) error { s.enc.EncodeItem(it); return s.enc.Err() }

func (s *writerSink) raw(_ int, wrapper []byte) error {
	s.enc.RawSequence(wrapper)
	return s.enc.Err()
}

func (s *writerSink) endSeq() error { s.enc.EndSequence(); return s.enc.Err() }

func (s *writerSink) all(res []xdm.Sequence) error {
	for _, seq := range res {
		s.enc.BeginSequence()
		for _, it := range seq {
			s.enc.EncodeItem(it)
		}
		s.enc.EndSequence()
	}
	return s.enc.Err()
}

func (s *writerSink) written() int64 { return s.flushed + int64(len(s.enc.Bytes())) }

// finish closes the envelope and flushes the encoder's tail.
func (s *writerSink) finish() error {
	s.enc.EndResponse(nil)
	return s.enc.Flush()
}

// discard is the tee's inner sink during a stale-shard refresh, whose
// output is re-merged with the retained shards' before it is delivered.
type discard struct{}

func (discard) beginSeq() error              { return nil }
func (discard) item(int, xdm.Item) error     { return nil }
func (discard) endSeq() error                { return nil }
func (discard) all(res []xdm.Sequence) error { return nil }
func (discard) written() int64               { return 0 }

// tee forwards the merge to its inner sink and retains each (shard,
// call) sequence — the split the result cache stores, so that a later
// refresh re-queries only the shards that moved on. Retaining stops once
// the inner sink has written more than budget bytes (0 = unbounded): the
// cache refuses a value larger than its budget, so past that point a
// copy of the result would be held for nothing.
type tee struct {
	sink
	budget   int64
	perShard [][]xdm.Sequence // [shard][call]; nil once retaining stopped
	call     int              // index of the sequence being merged
}

func newTee(inner sink, shards, calls int, budget int64) *tee {
	t := &tee{sink: inner, budget: budget, perShard: make([][]xdm.Sequence, shards)}
	for s := range t.perShard {
		t.perShard[s] = make([]xdm.Sequence, calls)
	}
	return t
}

func (t *tee) item(shard int, it xdm.Item) error {
	if t.perShard != nil {
		if t.budget > 0 && t.written() > t.budget {
			t.perShard = nil
		} else {
			t.perShard[shard][t.call] = append(t.perShard[shard][t.call], it)
		}
	}
	return t.sink.item(shard, it)
}

func (t *tee) endSeq() error {
	t.call++
	return t.sink.endSeq()
}
