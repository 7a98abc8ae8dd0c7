package server

import (
	"strconv"
	"strings"
	"sync/atomic"

	"xrpc/internal/cache"
	"xrpc/internal/client"
	"xrpc/internal/soap"
	"xrpc/internal/xdm"
	"xrpc/internal/xquf"
)

// versionPrefix tags the commit-fence version item appended to the
// shardInfo response. It deliberately does not parse as a KeyRange
// descriptor (those are quoted-prefix forms), so pre-existing shardInfo
// consumers skip it.
const versionPrefix = "version="

// VersionItem renders a store version as its shardInfo metadata item.
func VersionItem(v int64) string {
	return versionPrefix + strconv.FormatInt(v, 10)
}

// ParseVersionItem recognizes a shardInfo version item, returning the
// version it carries. The coordinator's merged-result cache uses this
// to revalidate a cached entry with one cheap shardInfo round instead
// of re-executing the query.
func ParseVersionItem(s string) (int64, bool) {
	if !strings.HasPrefix(s, versionPrefix) {
		return 0, false
	}
	v, err := strconv.ParseInt(s[len(versionPrefix):], 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// generationPrefix tags the registry-generation item appended to the
// shardInfo response next to the version item. Module re-registration
// changes semantics without any store write, so a coordinator fencing
// cached results on store versions alone would serve stale data across
// a Register; the generation closes that hole.
const generationPrefix = "generation="

// GenerationItem renders a module-registry generation as its shardInfo
// metadata item.
func GenerationItem(g int64) string {
	return generationPrefix + strconv.FormatInt(g, 10)
}

// ParseGenerationItem recognizes a shardInfo registry-generation item.
func ParseGenerationItem(s string) (int64, bool) {
	if !strings.HasPrefix(s, generationPrefix) {
		return 0, false
	}
	g, err := strconv.ParseInt(s[len(generationPrefix):], 10, 64)
	if err != nil {
		return 0, false
	}
	return g, true
}

// DefaultRespCacheBytes bounds the per-shard response cache when a
// caller enables it without choosing a size.
const DefaultRespCacheBytes = 32 << 20

// RespCache is the Tier-1 per-shard response cache: each call of a
// read-only bulk request maps to one entry whose key is
// (registry generation, moduleURI, method, projection, canonical
// argument bytes)
// and whose value is the call's result already serialized as the
// encoder's <xrpc:sequence> bytes — a warm hit skips execution AND
// re-serialization, splicing the stored bytes into the envelope via
// Response.Raw.
//
// The fence is the snapshot's store.Version: every commit (2PC apply,
// PUL adopt, direct R_Fu apply) advances it by exactly one step, so the
// first post-commit lookup evicts exactly the stale entries and
// repopulates from fresh execution. Entries are LRU-bounded by bytes.
type RespCache struct {
	lru *cache.LRU
}

// NewRespCache builds a response cache bounded by maxBytes (0 =
// DefaultRespCacheBytes).
func NewRespCache(maxBytes int64) *RespCache {
	if maxBytes <= 0 {
		maxBytes = DefaultRespCacheBytes
	}
	return &RespCache{lru: cache.New(maxBytes, 0)}
}

// Stats snapshots hit/miss/eviction counters and current size.
func (rc *RespCache) Stats() cache.Stats { return rc.lru.Stats() }

// respKey renders one call's cache key. The arguments are serialized
// with the same pooled encoder the response path uses, so two calls
// have equal keys exactly when the wire form of their arguments is
// identical. The registry generation is part of the key (module
// re-registration changes semantics without a store write), and so is
// the projection the result is pruned by, which changes the bytes the
// entry holds; the store version is the LRU's fence tag, not part of
// the key.
func respKey(gen int64, module, method, projection string, args []xdm.Sequence) string {
	enc := soap.NewEncoder()
	defer enc.Release()
	for _, seq := range args {
		enc.BeginSequence()
		for _, it := range seq {
			enc.EncodeItem(it)
		}
		enc.EndSequence()
	}
	key := make([]byte, 0, len(module)+len(method)+len(projection)+len(enc.Bytes())+24)
	key = strconv.AppendInt(key, gen, 10)
	key = append(key, 0)
	key = append(key, module...)
	key = append(key, 0)
	key = append(key, method...)
	key = append(key, 0)
	key = append(key, projection...)
	key = append(key, 0)
	key = append(key, enc.Bytes()...)
	return string(key)
}

// countingRPC wraps the per-request nested-call client so the cache can
// tell whether execution left this peer: results that depended on a
// nested RPC are not a pure function of local state and version, so
// they are never cached.
type countingRPC struct {
	rpc  client.BulkCaller
	used atomic.Bool
}

func (c *countingRPC) CallBulk(dest string, br *client.BulkRequest) ([]xdm.Sequence, error) {
	c.used.Store(true)
	return c.rpc.CallBulk(dest, br)
}

// cachedCalls is the response cache's view of one no-queryID request
// inside handle: which calls were answered from stored bytes and which
// are still to execute. The zero value means the cache was not
// consulted.
type cachedCalls struct {
	// ver is the version of the request's pinned snapshot, which the
	// served (and populated) results are valid at; a commit landing
	// mid-request steps the live version but not this snapshot, so
	// entries written under ver stay consistent with the data they were
	// computed from
	ver, gen int64
	raw      [][]byte // per call: the stored <xrpc:sequence> bytes, nil if missing
	missing  []int    // indices of the calls to execute
	counter  *countingRPC
}

// lookupCached looks every call of req up in the response cache, at
// the version of the request's snapshot (meta.snap).
func (s *Server) lookupCached(req *soap.Request, meta *reqMeta) cachedCalls {
	c := cachedCalls{ver: meta.snap.Version(), raw: make([][]byte, len(req.Calls))}
	if s.Registry != nil {
		c.gen = s.Registry.Generation()
	}
	for ci, call := range req.Calls {
		if v, ok := s.RespCache.lru.Get(respKey(c.gen, req.Module, req.Method, req.Projection, call), c.ver); ok {
			c.raw[ci] = v.([]byte)
		} else {
			c.missing = append(c.missing, ci)
		}
	}
	meta.usedCache = true
	meta.cacheHits = len(req.Calls) - len(c.missing)
	meta.cacheMiss = len(c.missing)
	return c
}

// missingCalls is req narrowed to the cache-missing calls, so a mixed
// request executes only those, as one sub-request.
func (c *cachedCalls) missingCalls(req *soap.Request) *soap.Request {
	if len(c.missing) == len(req.Calls) {
		return req
	}
	sub := *req
	sub.Calls = make([][]xdm.Sequence, len(c.missing))
	for i, ci := range c.missing {
		sub.Calls[i] = req.Calls[ci]
	}
	if req.SeqNrs != nil {
		sub.SeqNrs = make([]int64, len(c.missing))
		for i, ci := range c.missing {
			sub.SeqNrs[i] = req.SeqNrs[ci]
		}
	}
	return &sub
}

// watch wraps the nested-call client of a request whose results may be
// cached, so populateCached can tell whether execution left this peer.
func (c *cachedCalls) watch(rpc client.BulkCaller) client.BulkCaller {
	if c.raw == nil || rpc == nil {
		return rpc
	}
	c.counter = &countingRPC{rpc: rpc}
	return c.counter
}

// populateCached turns the executed calls' results into response bytes,
// merges them with the hits, and stores them. A result is cacheable
// only when it is a pure function of (module generation, local data at
// ver, arguments): no pending updates, no nested RPC, no
// participating-peers piggyback.
func (s *Server) populateCached(c *cachedCalls, req *soap.Request, resp *soap.Response, pul *xquf.UpdateList) {
	cacheable := pul.Empty() && (c.counter == nil || !c.counter.used.Load()) && len(resp.Peers) == 0
	for i, ci := range c.missing {
		b := encodeSequence(resp.Results[i], resp.Projection)
		c.raw[ci] = b
		if cacheable {
			key := respKey(c.gen, req.Module, req.Method, req.Projection, req.Calls[ci])
			s.RespCache.lru.Put(key, b, int64(len(key)+len(b)), c.ver)
		}
	}
	resp.Raw, resp.Results = c.raw, nil
}

// encodeSequence renders one result sequence exactly as the response
// encoder would under projection proj — the bytes RawSequence later
// splices back verbatim.
func encodeSequence(seq xdm.Sequence, proj *xdm.Projection) []byte {
	enc := soap.NewEncoder()
	defer enc.Release()
	enc.Project(proj)
	enc.BeginSequence()
	for _, it := range seq {
		enc.EncodeItem(it)
	}
	enc.EndSequence()
	return enc.Copy()
}
