package xqrt

import (
	"sync/atomic"

	"xrpc/internal/cache"
	"xrpc/internal/obs"
	"xrpc/internal/xq"
)

// Plan cache bounds: a static context is a graph of parsed modules, so
// the byte bound uses source length as the size proxy; the entry cap
// keeps churning texts or module URIs from growing memory forever.
const (
	DefaultPlanCacheBytes   = 16 << 20
	DefaultPlanCacheEntries = 1024
)

// PlanCache is the paper's §3.3 function cache, the one type in the tree
// that caches compiled XQuery text: translate a text once, keep its
// static context (and the plan lifted from it), drop it when a module it
// depends on changes. A query processor keys it on the normalized query
// text (xq.Normalize), a shard executor on the module URI.
//
// It needs no invalidation call. An entry records which *xq.Module the
// module resolver held for each module the text depends on, and a lookup
// is a hit only while the resolver still holds exactly those: registering
// a module again invalidates precisely the entries that import it (or
// were compiled from it) and leaves every other entry warm.
type PlanCache struct {
	lru atomic.Pointer[cache.LRU]
	// Hits counts lookups answered from the cache; Misses counts the
	// compilations its users ran instead (they add to it, cached or not:
	// with caching switched off every request is a miss).
	Hits, Misses atomic.Int64
}

// cachedPlan is one entry. self is the resolver's module the text of a
// library main module was read from (nil for a query): the parse inside
// c is a private one, so c's own dependency record cannot tell when its
// source is superseded.
type cachedPlan struct {
	c    *Compiled
	self *xq.Module
}

// NewPlanCache builds a cache bounded by maxBytes of source text and
// maxEntries entries (a non-positive bound is no bound on that axis).
func NewPlanCache(maxBytes int64, maxEntries int) *PlanCache {
	pc := &PlanCache{}
	pc.SetLimits(maxBytes, maxEntries)
	return pc
}

// SetLimits empties the cache and gives it new bounds (the hit and miss
// counters are preserved).
func (pc *PlanCache) SetLimits(maxBytes int64, maxEntries int) {
	pc.lru.Store(cache.New(maxBytes, maxEntries))
}

// Get returns the static context cached under key if every module it
// depends on is still the one its resolver holds. A stale entry
// is a miss; the Put that follows the recompilation replaces it.
func (pc *PlanCache) Get(key string) (*Compiled, bool) {
	v, _, ok := pc.lru.Load().GetAny(key)
	if !ok {
		return nil, false
	}
	e := v.(*cachedPlan)
	if !e.c.fresh(e.self) {
		return nil, false
	}
	pc.Hits.Add(1)
	return e.c, true
}

// Put caches c under key with size bytes of source. For a library module
// compiled from a resolver's source text, self is the module the resolver
// held under that URI, read BEFORE the source: should a registration land
// between the two reads, self is the older and the entry merely goes
// stale at its first lookup — the other order would pin a superseded plan.
func (pc *PlanCache) Put(key string, c *Compiled, size int64, self *xq.Module) {
	pc.lru.Load().Put(key, &cachedPlan{c: c, self: self}, size, 0)
}

// Compile is the query processor's whole use of the cache: the static
// context cached under key, else src compiled against modules and
// cached. (A shard executor uses Get and Put, because its miss reads the
// text from the registry and can be told not to cache.)
func (pc *PlanCache) Compile(modules ModuleResolver, key, src string) (*Compiled, error) {
	if c, ok := pc.Get(key); ok {
		return c, nil
	}
	c, err := Compile(src, modules)
	if err != nil {
		return nil, err
	}
	pc.Misses.Add(1)
	pc.Put(key, c, int64(len(src)), nil)
	return c, nil
}

// Clear drops every entry (counters are preserved).
func (pc *PlanCache) Clear() { pc.lru.Load().Clear() }

// Stats snapshots the cache: hits and misses as defined on the fields,
// entries, bytes and capacity evictions from the underlying LRU.
func (pc *PlanCache) Stats() cache.Stats {
	st := pc.lru.Load().Stats()
	st.Hits = pc.Hits.Load()
	st.Misses = pc.Misses.Load()
	return st
}

// RegisterMetrics exports the cache's counters as xrpc_plancache_*
// series labelled cache=which ("module" for a shard's function cache,
// "query" for a query processor's) on top of labels. The series are
// views over Stats read at scrape time; the lookup path is untouched.
func (pc *PlanCache) RegisterMetrics(reg *obs.Registry, which string, labels ...obs.Label) {
	if reg == nil {
		return
	}
	labels = append(labels[:len(labels):len(labels)], obs.Label{Key: "cache", Value: which})
	reg.CounterFunc("xrpc_plancache_hits_total",
		"Compiled-text cache hits.", pc.Hits.Load, labels...)
	reg.CounterFunc("xrpc_plancache_misses_total",
		"Compiled-text cache misses (compilations).", pc.Misses.Load, labels...)
	reg.CounterFunc("xrpc_plancache_evictions_total",
		"Compiled-text cache capacity evictions.",
		func() int64 { return pc.Stats().Evictions }, labels...)
	reg.GaugeFunc("xrpc_plancache_entries",
		"Compiled-text cache resident entries.",
		func() float64 { return float64(pc.Stats().Entries) }, labels...)
	reg.GaugeFunc("xrpc_plancache_bytes",
		"Compiled-text cache resident source bytes.",
		func() float64 { return float64(pc.Stats().Bytes) }, labels...)
}
