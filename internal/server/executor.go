package server

import (
	"time"

	"xrpc/internal/cache"
	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/soap"
	"xrpc/internal/xdm"
)

// NativeExecutor executes XRPC requests the way MonetDB/XQuery does (§3):
// the requested module is compiled into a prepared plan, kept in the
// function cache (an interp.PlanCache keyed on the module URI, which
// drops a plan by itself once the registry holds a newer text of the
// module or of one it imports), and the whole request — all calls of a
// Bulk RPC — is handed to the plan as one evaluation (interp.CallBulk):
// the function is resolved once, a document is scanned and a join-shaped
// selection hash-indexed once, and each call is answered by probe (§3.2).
// With the cache disabled every request pays module translation time —
// the "No Function Cache" column of Table 2.
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

	plans *interp.PlanCache
}

// NewNativeExecutor builds an executor over an engine; the function
// cache starts enabled with the default bounds.
func NewNativeExecutor(e *interp.Engine, reg *modules.Registry) *NativeExecutor {
	return &NativeExecutor{
		Engine: e, Registry: reg, CacheEnabled: true,
		plans: interp.NewPlanCache(interp.DefaultPlanCacheBytes, interp.DefaultPlanCacheEntries),
	}
}

// SetParallelism implements ParallelExecutor.
func (x *NativeExecutor) SetParallelism(n int) { x.Parallelism = n }

// SetPlanCacheLimits replaces the function cache with an empty one
// bounded by maxBytes of module source and maxEntries plans.
func (x *NativeExecutor) SetPlanCacheLimits(maxBytes int64, maxEntries int) {
	x.plans.SetLimits(maxBytes, maxEntries)
}

// PlanCacheStats snapshots the function cache (entries/bytes reflect
// live plans; hits/misses/evictions are cumulative, a miss being one
// module translation).
func (x *NativeExecutor) PlanCacheStats() cache.Stats { return x.plans.Stats() }

// InvalidateCache clears all cached plans.
func (x *NativeExecutor) InvalidateCache() { x.plans.Clear() }

func (x *NativeExecutor) compiled(moduleURI string, atHint string) (*interp.Compiled, time.Duration, error) {
	if x.CacheEnabled {
		if c, ok := x.plans.Get(moduleURI); ok {
			return c, 0, nil
		}
	}
	// the registry's module before its source: PlanCache.Put says why
	self, err := x.Registry.ResolveModule(moduleURI, nil)
	src, ok := x.Registry.Source(moduleURI)
	if err != nil || !ok {
		// the canonical paper error: "could not load module!"
		return nil, 0, xdm.Errorf("XRPC0007", "could not load module! (%s at %s)", moduleURI, atHint)
	}
	c, err := x.Engine.CompileModule(src)
	if err != nil {
		return nil, 0, err
	}
	x.plans.Misses.Add(1)
	if x.CacheEnabled {
		x.plans.Put(moduleURI, c, int64(len(src)), self)
	}
	return c, c.CompileTime, nil
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
