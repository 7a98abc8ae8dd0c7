package cluster

import (
	"slices"
	"sync/atomic"

	"xrpc/internal/cache"
	"xrpc/internal/client"
	"xrpc/internal/server"
	"xrpc/internal/soap"
	"xrpc/internal/xdm"
)

// DefaultResultCacheBytes bounds the coordinator's merged-result cache
// when enabled without an explicit size.
const DefaultResultCacheBytes = 64 << 20

// ResultCache is the Tier-2 coordinator cache: whole merged scatter
// results keyed on the request's encoded call set and fenced on a
// per-shard fence vector of (store version, registry generation).
// Revalidation is a shardInfo probe — one tiny system call per shard
// instead of re-executing the query — and an entry whose vector is
// partially stale refreshes only the stale shards, splicing their fresh
// results into the retained ones.
type ResultCache struct {
	lru    *cache.LRU
	budget int64 // the LRU's byte bound: a larger result is not worth retaining

	// Semantic counters (the LRU's own hit/miss counters track entry
	// presence; these track what presence *meant*):
	//   Hits          — entry present and every shard's version matched
	//   PartialHits   — entry present, only the stale shards re-queried
	//   Misses        — no entry (or an unrefreshable stale entry)
	//   Revalidations — version probes performed
	Hits, PartialHits, Misses, Revalidations atomic.Int64
}

// ResultCacheStats is a point-in-time snapshot of a ResultCache.
type ResultCacheStats struct {
	Hits, PartialHits, Misses, Revalidations int64
	// Evictions counts entries the byte bound pushed out.
	Evictions int64
	Entries   int
	Bytes     int64
}

// NewResultCache builds a merged-result cache bounded by maxBytes
// (0 = DefaultResultCacheBytes) of estimated result size.
func NewResultCache(maxBytes int64) *ResultCache {
	if maxBytes <= 0 {
		maxBytes = DefaultResultCacheBytes
	}
	return &ResultCache{lru: cache.New(maxBytes, 0), budget: maxBytes}
}

// Stats snapshots the counters and current size.
func (rc *ResultCache) Stats() ResultCacheStats {
	st := rc.lru.Stats()
	return ResultCacheStats{
		Hits:          rc.Hits.Load(),
		PartialHits:   rc.PartialHits.Load(),
		Misses:        rc.Misses.Load(),
		Revalidations: rc.Revalidations.Load(),
		Evictions:     st.Evictions,
		Entries:       st.Entries,
		Bytes:         st.Bytes,
	}
}

// shardFence is one shard's freshness coordinates: the store's
// commit-fence version (every committed write advances it by one step)
// and the module registry's generation (every Register advances it).
// Both must match for a cached result to be reused — module
// re-registration changes semantics with no store write, so a store
// version alone cannot see it (the Tier-1 respcache keys on
// Generation() for the same reason).
type shardFence struct {
	version    int64
	generation int64
}

// resultEntry is one cached merged result.
type resultEntry struct {
	// fences[s] is shard s's (version, generation) fence the entry is
	// valid at (probed around population, stored for every shard).
	fences []shardFence
	// perShard[s][i] is shard s's own result for call i (empty where the
	// plan did not send call i to shard s) — retained so a partially
	// stale entry can refresh just the stale shards.
	perShard [][]xdm.Sequence
	// merged is the full shard-order merge — what a hit returns.
	merged []xdm.Sequence
}

// clipped returns the merged result with every slice's capacity clipped
// to its length, so a caller appending to a returned sequence reallocates
// instead of scribbling over the cached backing array.
func (e *resultEntry) clipped() []xdm.Sequence {
	out := make([]xdm.Sequence, len(e.merged))
	for i, seq := range e.merged {
		out[i] = seq[:len(seq):len(seq)]
	}
	return out
}

// estimateSize prices a merged result for the byte bound: the encoded
// envelope size of each sequence, measured with the same pooled encoder
// the response path uses.
func estimateSize(key string, merged []xdm.Sequence) int64 {
	enc := soap.NewEncoder()
	defer enc.Release()
	for _, seq := range merged {
		enc.BeginSequence()
		for _, it := range seq {
			enc.EncodeItem(it)
		}
		enc.EndSequence()
	}
	return int64(len(key) + len(enc.Bytes()))
}

// probeFences asks every shard for its (version, generation) fence via
// the shardInfo system call, broadcast through the buffered fan-out
// (encode once, post to each shard with replica failover). An error —
// or a shard that does not report both fence items, e.g. a peer
// predating the fence — disables caching for this request.
func (co *Coordinator) probeFences() ([]shardFence, error) {
	br := &client.BulkRequest{
		ModuleURI: client.SystemModule,
		Func:      "shardInfo",
		Arity:     0,
		Calls:     [][]xdm.Sequence{{}},
	}
	r := co.plannedRead(co.Client, br, co.broadcastPlan(br))
	defer r.release()
	results, err := r.callBuffered()
	if err != nil {
		return nil, err
	}
	fences := make([]shardFence, len(results))
	for s, res := range results {
		var haveVer, haveGen bool
		for _, it := range res[0] {
			if v, ok := server.ParseVersionItem(it.StringValue()); ok {
				fences[s].version, haveVer = v, true
			}
			if g, ok := server.ParseGenerationItem(it.StringValue()); ok {
				fences[s].generation, haveGen = g, true
			}
		}
		if !haveVer || !haveGen {
			return nil, xdm.Errorf("XRPC0007", "shard %d reports no version/generation fence", s)
		}
	}
	return fences, nil
}

// throughCache is the pipeline's cache stage (see read for when it
// runs). The key is the request's destination-independent encoded body
// (encode-once makes this deterministic); freshness is the per-shard
// (version, generation) fence vector. A hit is delivered from memory
// after one probe round; a partially stale entry narrows the shard set —
// the same pipeline runs over only the stale shards' parts and the merge
// is rebuilt from retained + fresh per-shard sequences; a miss runs the
// whole plan through a capturing tee. Any probe failure falls back to
// plain execution with caching off — stale is never served.
func (r *readOp) throughCache(out sink) error {
	co, rc := r.co, r.co.ResultCache
	parts, calls, n := r.dec.parts, len(r.br.Calls), co.Table.NumShards()
	key := string(r.body(r.br))

	if v, _, ok := rc.lru.GetAny(key); ok {
		entry := v.(*resultEntry)
		rc.Revalidations.Add(1)
		probed, err := co.probeFences()
		switch {
		case err != nil:
			// a shard we can't probe is a shard we can't trust the
			// entry against: execute directly, don't populate
			rc.Misses.Add(1)
			return r.run(parts, out)
		case slices.Equal(entry.fences, probed):
			rc.Hits.Add(1)
			return out.all(entry.clipped())
		case len(entry.fences) == n:
			// some shards moved on: re-query only those and re-store
			// under the probed vector. A commit landing between probe
			// and refresh tags the fresher data with the older probed
			// fence — the safe direction (one extra refresh later,
			// never a stale serve).
			var stale []*shardPart
			for _, p := range parts {
				if probed[p.shard] != entry.fences[p.shard] {
					stale = append(stale, p)
				}
			}
			fresh := newTee(discard{}, n, calls, 0)
			if len(stale) > 0 { // else only shards the plan never contacts moved
				if err := r.run(stale, fresh); err != nil {
					return err
				}
			}
			perShard := slices.Clone(entry.perShard)
			for _, p := range stale {
				perShard[p.shard] = fresh.perShard[p.shard]
			}
			next := &resultEntry{fences: probed, perShard: perShard, merged: mergeShards(perShard, calls)}
			rc.PartialHits.Add(1)
			if err := out.all(next.clipped()); err != nil {
				return err
			}
			rc.put(key, next, out.written())
			return nil
		}
		// table resized since population: the entry's shard split no
		// longer lines up — re-execute, overwriting it
	}

	rc.Misses.Add(1)
	// populate guard: probe before and after execution and store only
	// when the fence vectors agree — a commit landing mid-scatter could
	// otherwise tag mixed-version results as clean
	pre, err := co.probeFences()
	if err != nil {
		return r.run(parts, out)
	}
	t := newTee(out, n, calls, rc.budget)
	if err := r.run(parts, t); err != nil {
		return err
	}
	if t.perShard == nil {
		return nil // outgrew what the cache could store: nothing was kept
	}
	if post, err := co.probeFences(); err == nil && slices.Equal(pre, post) {
		rc.put(key, &resultEntry{fences: pre, perShard: t.perShard,
			merged: mergeShards(t.perShard, calls)}, out.written())
	}
	return nil
}

// mergeShards concatenates per-shard results in shard order (= document
// order): the merge, rebuilt from its retained split.
func mergeShards(perShard [][]xdm.Sequence, calls int) []xdm.Sequence {
	merged := make([]xdm.Sequence, calls)
	for i := range merged {
		for _, seqs := range perShard {
			merged[i] = append(merged[i], seqs[i]...)
		}
	}
	return merged
}

// put prices and stores an entry: by the encoded bytes the output sink
// already counted where it encodes, by measuring otherwise.
func (rc *ResultCache) put(key string, e *resultEntry, written int64) {
	size := int64(len(key)) + written
	if written == 0 {
		size = estimateSize(key, e.merged)
	}
	rc.lru.Put(key, e, size, 0)
}
