// Package cache provides the bounded, version-fenced LRU that backs the
// three caching tiers of the serving stack: the per-shard response cache
// (internal/server), the coordinator merged-result cache
// (internal/cluster), and the compiled-text cache (interp.PlanCache,
// which fences on module identity and so reads through GetAny). One
// implementation, three policies: entries are bounded both by total
// byte size and by entry count, evicted least-recently-used first, and
// optionally fenced on a version tag — a lookup carrying a different
// version treats the entry as stale, removes it, and reports a miss
// (exact invalidation: the store's commit fence advances the version by
// exactly one step per committed write).
package cache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// LRU is a mutex-guarded least-recently-used cache bounded by total
// byte size and entry count. The zero value is not usable; construct
// with New.
type LRU struct {
	mu         sync.Mutex
	maxBytes   int64
	maxEntries int
	bytes      int64
	ll         *list.List
	items      map[string]*list.Element

	// Hits / Misses / Evictions are cumulative counters (atomic:
	// experiments read them while concurrent requests cycle the cache).
	// Evictions counts capacity evictions and version-fence removals,
	// not explicit Remove/Clear calls.
	Hits      atomic.Int64
	Misses    atomic.Int64
	Evictions atomic.Int64
}

// lruEntry is one cached value with its accounting metadata.
type lruEntry struct {
	key  string
	val  any
	size int64
	ver  int64
}

// Stats is a point-in-time snapshot of a cache's counters and size.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Bytes     int64
}

// New builds an empty LRU bounded by maxBytes total entry size and
// maxEntries entries. A non-positive bound means "no bound on that
// axis" (but at least one should be set — that is the point).
func New(maxBytes int64, maxEntries int) *LRU {
	return &LRU{
		maxBytes:   maxBytes,
		maxEntries: maxEntries,
		ll:         list.New(),
		items:      map[string]*list.Element{},
	}
}

// Get returns the value stored under key if its version tag equals ver.
// A present entry with a different version is stale: it is removed,
// counted as an eviction, and the lookup reports a miss — this is the
// version fence (one committed write steps the store version, so the
// first post-commit lookup invalidates exactly the touched entries).
func (c *LRU) Get(key string, ver int64) (any, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		c.Misses.Add(1)
		return nil, false
	}
	e := el.Value.(*lruEntry)
	if e.ver != ver {
		c.removeLocked(el)
		c.mu.Unlock()
		c.Evictions.Add(1)
		c.Misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	val := e.val
	c.mu.Unlock()
	c.Hits.Add(1)
	return val, true
}

// GetAny returns the value and its stored version tag without fencing —
// for callers (the coordinator's merged-result cache) that validate
// freshness themselves against a per-shard version vector.
func (c *LRU) GetAny(key string) (any, int64, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		c.Misses.Add(1)
		return nil, 0, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*lruEntry)
	val, ver := e.val, e.ver
	c.mu.Unlock()
	c.Hits.Add(1)
	return val, ver, true
}

// Put stores val under key with the given size estimate and version
// tag, replacing any previous entry, then evicts LRU entries until both
// bounds hold. A single value larger than maxBytes is not stored.
func (c *LRU) Put(key string, val any, size, ver int64) {
	if size < 0 {
		size = 0
	}
	if c.maxBytes > 0 && size > c.maxBytes {
		return
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
	}
	el := c.ll.PushFront(&lruEntry{key: key, val: val, size: size, ver: ver})
	c.items[key] = el
	c.bytes += size
	evicted := 0
	for (c.maxBytes > 0 && c.bytes > c.maxBytes) ||
		(c.maxEntries > 0 && c.ll.Len() > c.maxEntries) {
		back := c.ll.Back()
		if back == nil || back == el {
			break
		}
		c.removeLocked(back)
		evicted++
	}
	c.mu.Unlock()
	if evicted > 0 {
		c.Evictions.Add(int64(evicted))
	}
}

// Remove deletes the entry under key (no eviction counted).
func (c *LRU) Remove(key string) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
	}
	c.mu.Unlock()
}

// Clear empties the cache (counters are preserved).
func (c *LRU) Clear() {
	c.mu.Lock()
	c.ll.Init()
	c.items = map[string]*list.Element{}
	c.bytes = 0
	c.mu.Unlock()
}

// Len returns the number of live entries.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the summed size of live entries.
func (c *LRU) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats snapshots the counters and current size.
func (c *LRU) Stats() Stats {
	c.mu.Lock()
	entries, bytes := c.ll.Len(), c.bytes
	c.mu.Unlock()
	return Stats{
		Hits:      c.Hits.Load(),
		Misses:    c.Misses.Load(),
		Evictions: c.Evictions.Load(),
		Entries:   entries,
		Bytes:     bytes,
	}
}

func (c *LRU) removeLocked(el *list.Element) {
	e := el.Value.(*lruEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.size
}
