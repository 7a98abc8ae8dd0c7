package server

import (
	"sync"
	"sync/atomic"
	"time"

	"xrpc/internal/cache"
	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/soap"
	"xrpc/internal/xdm"
	"xrpc/internal/xq"
)

// Function cache bounds: plans are closures over parsed modules, so the
// byte bound uses source length as the size proxy; the entry cap keeps
// hostile or churning module URIs from growing memory forever.
const (
	DefaultPlanCacheBytes   = 16 << 20
	DefaultPlanCacheEntries = 1024
)

// NativeExecutor executes XRPC requests the way MonetDB/XQuery does (§3):
// the requested module is compiled into a prepared plan, cached in the
// function cache, and the whole request — all calls of a Bulk RPC — is
// handed to the plan as one evaluation (interp.CallBulk): the function
// is resolved once, a document is scanned and a join-shaped selection
// hash-indexed once, and each call is answered by probe (§3.2). With the
// cache disabled every request pays module translation time — the "No
// Function Cache" column of Table 2.
//
// When Parallelism > 1 the calls of one read-only bulk request are
// drawn by that many workers over the same shared scans and indexes.
// Results keep their call-index order and the merged pending update list
// is byte-identical to sequential execution. Updating requests always
// run sequentially, preserving the paper's repeatable-read isolation
// semantics (§2.2).
type NativeExecutor struct {
	Engine   *interp.Engine
	Registry *modules.Registry
	// CacheEnabled turns the function cache on (the default in
	// MonetDB/XQuery).
	CacheEnabled bool
	// Parallelism is the number of workers that evaluate the calls of one
	// bulk request concurrently; values <= 1 mean sequential execution.
	// Configure before serving traffic.
	Parallelism int

	// plans is the function cache proper: compiled plans in a bounded
	// LRU keyed on normalized module source (xq.Normalize), so
	// textually-equivalent module texts — layout or comment variants —
	// share one compilation. byURI memoizes uri → (source, normalized
	// key) so the steady state costs one map probe and one string
	// compare, not a re-normalization per request.
	mu    sync.Mutex
	plans *cache.LRU
	byURI map[string]uriMemo
	// CacheHits / CacheMisses for experiments (atomic: experiments read
	// them while concurrent requests execute).
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
}

type uriMemo struct {
	src string // the registry source this memo was computed from
	key string // xq.Normalize(src)
}

// NewNativeExecutor builds an executor over an engine; the function
// cache starts enabled with the default bounds.
func NewNativeExecutor(e *interp.Engine, reg *modules.Registry) *NativeExecutor {
	return &NativeExecutor{
		Engine: e, Registry: reg, CacheEnabled: true,
		plans: cache.New(DefaultPlanCacheBytes, DefaultPlanCacheEntries),
		byURI: map[string]uriMemo{},
	}
}

// SetParallelism implements ParallelExecutor.
func (x *NativeExecutor) SetParallelism(n int) { x.Parallelism = n }

// SetPlanCacheLimits replaces the function cache with an empty one
// bounded by maxBytes of module source and maxEntries plans.
func (x *NativeExecutor) SetPlanCacheLimits(maxBytes int64, maxEntries int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.plans = cache.New(maxBytes, maxEntries)
	x.byURI = map[string]uriMemo{}
}

// PlanCacheStats snapshots the function cache (entries/bytes reflect
// live plans; hits/misses/evictions are cumulative).
func (x *NativeExecutor) PlanCacheStats() cache.Stats {
	x.mu.Lock()
	plans := x.plans
	x.mu.Unlock()
	st := plans.Stats()
	st.Hits = x.CacheHits.Load()
	st.Misses = x.CacheMisses.Load()
	return st
}

// InvalidateCache clears all cached plans.
func (x *NativeExecutor) InvalidateCache() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.plans.Clear()
	x.byURI = map[string]uriMemo{}
}

// InvalidateModule drops exactly the plans that depend on the given
// module URI — directly (compiled from it) or through an import — so a
// registry update to one module leaves every other module's plan warm.
func (x *NativeExecutor) InvalidateModule(uri string) {
	x.mu.Lock()
	delete(x.byURI, uri)
	plans := x.plans
	x.mu.Unlock()
	plans.RemoveFunc(func(_ string, val any) bool {
		for _, dep := range val.(*interp.Compiled).ModuleURIs() {
			if dep == uri {
				return true
			}
		}
		return false
	})
}

// planKey resolves a module URI to its cache key (normalized source),
// re-normalizing only when the registered source changed.
func (x *NativeExecutor) planKey(moduleURI, src string) string {
	x.mu.Lock()
	memo, ok := x.byURI[moduleURI]
	x.mu.Unlock()
	if ok && memo.src == src {
		return memo.key
	}
	key := xq.Normalize(src)
	x.mu.Lock()
	x.byURI[moduleURI] = uriMemo{src: src, key: key}
	x.mu.Unlock()
	return key
}

func (x *NativeExecutor) compiled(moduleURI string, atHint string) (*interp.Compiled, time.Duration, error) {
	src, ok := x.Registry.Source(moduleURI)
	if !ok {
		// the canonical paper error: "could not load module!"
		return nil, 0, xdm.Errorf("XRPC0007", "could not load module! (%s at %s)", moduleURI, atHint)
	}
	var key string
	if x.CacheEnabled {
		key = x.planKey(moduleURI, src)
		x.mu.Lock()
		plans := x.plans
		x.mu.Unlock()
		if c, ok := plans.Get(key, 0); ok {
			x.CacheHits.Add(1)
			return c.(*interp.Compiled), 0, nil
		}
	}
	start := time.Now()
	c, err := x.Engine.CompileModule(src)
	if err != nil {
		return nil, 0, err
	}
	compileTime := time.Since(start)
	x.CacheMisses.Add(1)
	if x.CacheEnabled {
		x.mu.Lock()
		plans := x.plans
		x.mu.Unlock()
		plans.Put(key, c, int64(len(src)), 0)
	}
	return c, compileTime, nil
}

// Execute implements Executor.
func (x *NativeExecutor) Execute(req *soap.Request, _ []byte, docs interp.DocResolver, rpc interp.RPCCaller) ([]xdm.Sequence, *interp.UpdateList, *interp.Stats, error) {
	c, compileTime, err := x.compiled(req.Module, req.Location)
	if err != nil {
		return nil, nil, nil, err
	}
	stats := &interp.Stats{Compile: compileTime}
	execStart := time.Now()

	workers := x.Parallelism
	if req.Updating {
		// a request may declare itself updating whatever its function is;
		// CallBulk serializes updating functions on its own
		workers = 1
	}
	results, pulByCall, err := c.CallBulk(req.Module, req.Method, req.Calls, &interp.EvalOptions{
		Docs:           docs,
		RPC:            rpc,
		CollectUpdates: true,
		Workers:        workers,
		Stats:          stats,
	})
	if err != nil {
		return nil, nil, nil, err
	}

	// merge pending updates in call-index order: identical to the
	// sequential merge regardless of which worker finished first
	pul := &interp.UpdateList{}
	for ci, callPUL := range pulByCall {
		if req.SeqNrs != nil {
			// deterministic update order: tag this call's pending
			// updates with the call's original query position
			callPUL.SetSeqBase(req.SeqNrs[ci])
		}
		pul.Merge(callPUL)
	}
	stats.Exec = time.Since(execStart)
	return results, pul, stats, nil
}
