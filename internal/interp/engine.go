// Package interp is a tree-walking XQuery interpreter. In the
// reproduction it plays the role of Saxon in the paper's experiments
// (§4, §5): an XQuery engine with no function cache, whose latency is
// dominated by per-query compile and tree-build time, wrapped by the
// XRPC wrapper to participate in distributed queries.
//
// It is also the reference semantics for the loop-lifting relational
// engine (internal/pathfinder): both must produce identical results on
// the supported subset. Both run from the runtime in internal/xqrt: a
// text's one static context (xqrt.Compiled), which this package
// evaluates and pathfinder lifts its plan from, the function library,
// the operators and PlanCache — the function cache Saxon lacks and
// MonetDB/XQuery has. What this package adds is the evaluator: eval.go,
// the predicate hash index (predindex.go), the update expressions that
// build a pending update list (update.go; internal/xquf applies it), and
// the three built-ins that read its dynamic context (builtins.go).
package interp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/docres"
	"xrpc/internal/xdm"
	"xrpc/internal/xqrt"
	"xrpc/internal/xquf"
)

// DocResolver is docres.DocResolver under the name benchmark/trace.go
// still uses; it stays only for benchmark/, until a change to the
// benchmark drops it.
type DocResolver = docres.DocResolver

// RPCCaller is client.BulkCaller under the name benchmark/trace.go still
// uses; it stays only for benchmark/, until a change to the benchmark
// drops it.
type RPCCaller = client.BulkCaller

// UpdateList is xquf.UpdateList under the name benchmark/trace.go still
// uses; it stays only for benchmark/, until a change to the benchmark
// drops it.
type UpdateList = xquf.UpdateList

// Stats records the three latency phases reported in Table 3 of the
// paper (Saxon latency: compile, treebuild, exec) and, for a CallBulk
// request, what the predicate hash index (predindex.go) did.
type Stats struct {
	Compile   time.Duration
	TreeBuild time.Duration
	Exec      time.Duration
	// IndexBuilds counts hash indexes built and IndexProbes the
	// predicate applications answered from one: builds < probes means a
	// bulk shared its scans. IndexFallbacks counts the calls that
	// evaluated at least one predicate row-at-a-time.
	IndexBuilds    int
	IndexProbes    int
	IndexFallbacks int
}

// ExtFunc is a host-provided extension function, looked up by its
// prefixed name when no user or built-in function matches. The XRPC
// wrapper uses this to supply the n2s/s2n marshaling functions of §2.2
// (which "do not need to exist in reality, as each XRPC system
// implementation may have its own internal mechanisms").
type ExtFunc func(args []xdm.Sequence) (xdm.Sequence, error)

// Engine compiles and evaluates XQuery; each evaluation names the
// documents it reads (EvalOptions.Docs).
type Engine struct {
	Modules xqrt.ModuleResolver
	// ExtFuncs maps prefixed names (e.g. "xrpcw:n2s") to host functions.
	ExtFuncs map[string]ExtFunc
	// ByFragment enables the call-by-fragment protocol extension for
	// outgoing execute-at calls (paper footnote 4).
	ByFragment bool
	// DisablePredIndex turns off the §4 predicate hash index (used by
	// the ablation benchmarks).
	DisablePredIndex bool
	// MaxRecursion bounds user-function recursion depth (default 4096).
	MaxRecursion int
}

// New creates an engine over the given module resolver.
func New(modules xqrt.ModuleResolver) *Engine {
	return &Engine{Modules: modules}
}

// Compile parses src, resolves its module imports and classifies it:
// the static context e.Eval and e.CallBulk evaluate.
func (e *Engine) Compile(src string) (*xqrt.Compiled, error) {
	return xqrt.Compile(src, e.Modules)
}

// CompileModule compiles a library module source for direct invocation
// (used by the XRPC server to execute requested functions).
func (e *Engine) CompileModule(src string) (*xqrt.Compiled, error) {
	c, err := e.Compile(src)
	if err != nil {
		return nil, err
	}
	if !c.Module().IsLibrary {
		return nil, fmt.Errorf("interp: not a library module")
	}
	return c, nil
}

// EvalOptions configure one evaluation.
type EvalOptions struct {
	// Vars binds external variables ($x etc.).
	Vars map[string]xdm.Sequence
	// Docs resolves fn:doc: a store.Snapshot on every server and peer
	// path, whose version then keeps the evaluation's steps and indexes
	// (docres.VersionedResolver). Nil means no documents.
	Docs docres.DocResolver
	// RPC performs the evaluation's execute-at calls, each a Bulk RPC of
	// one call (e.g. a per-query client carrying the queryID of the
	// request being served). Nil means execute at raises XRPC0001.
	RPC client.BulkCaller
	// CollectUpdates, when true, permits update expressions; their
	// pending update list is returned instead of applied.
	CollectUpdates bool
	// Workers carries the executor's Parallelism into CallBulk: the
	// calls of a non-updating bulk are evaluated by this many
	// goroutines; values <= 1 mean sequential evaluation.
	Workers int
	// Stats, when set, receives CallBulk's index counters.
	Stats *Stats
}

// Eval evaluates the main module body of c — compiled here, by another
// engine, or kept by an xqrt.PlanCache. For updating queries the pending
// update list is returned; it is the caller's responsibility to apply it
// (XQUF semantics: side effects happen after query evaluation).
func (e *Engine) Eval(c *xqrt.Compiled, opts *EvalOptions) (xdm.Sequence, *xquf.UpdateList, error) {
	if c.Module().Body == nil {
		return nil, nil, xqrt.ErrLibraryModule
	}
	if opts == nil {
		opts = &EvalOptions{}
	}
	ctx := e.newDynCtx(c, opts, newEvalMemo(opts.Docs), &indexCounters{})
	// prolog variables
	for _, v := range c.Globals() {
		if v.Val == nil {
			continue
		}
		val, err := ctx.eval(v.Val)
		if err != nil {
			return nil, nil, err
		}
		ctx.bind(v.Name, val)
	}
	seq, err := ctx.eval(c.Module().Body)
	if err != nil {
		return nil, nil, err
	}
	if len(ctx.pul.Prims) > 0 && !opts.CollectUpdates {
		return nil, nil, xdm.NewError("XUST0001", "updating expression in non-updating context")
	}
	return seq, ctx.pul, nil
}

// CallFunction invokes a declared function once: a CallBulk of one call.
func (e *Engine) CallFunction(c *xqrt.Compiled, uri, local string, args []xdm.Sequence, opts *EvalOptions) (xdm.Sequence, *xquf.UpdateList, error) {
	results, puls, err := e.CallBulk(c, uri, local, [][]xdm.Sequence{args}, opts)
	if err != nil {
		return nil, nil, err
	}
	return results[0], puls[0], nil
}

// CallBulk is the server-side entry point for an XRPC request: it applies
// one function of c (addressed by local name and arity within module
// uri, see xqrt.Compiled.ResolveFunc) to every argument tuple of calls and returns the results
// and pending update lists by call index. The error is the one the
// lowest failing call raises, whatever opts.Workers is.
//
// The function is resolved once and all calls share one evalMemo, so the
// request scans a document and builds a predicate hash index at most
// once and answers each call by probe (§3.2: a Bulk RPC lets the callee
// turn N selections into one join). Over a pinned store version (every
// server and peer request, see VersionedResolver) the scan and the index
// belong to the version, so a later request at the same version — a
// single call too — only probes. Sharing is sound because every tree
// the tables are keyed on is immutable while they can be read: the
// request pins its snapshot, pending updates are collected, not
// applied, and a commit that writes a tree in place drops the tables
// that held it. Each call keeps its own dynamic context, variable frame
// and UpdateList.
func (e *Engine) CallBulk(c *xqrt.Compiled, uri, local string, calls [][]xdm.Sequence, opts *EvalOptions) ([]xdm.Sequence, []*xquf.UpdateList, error) {
	if len(calls) == 0 {
		return nil, nil, nil
	}
	if opts == nil {
		opts = &EvalOptions{}
	}
	arity := len(calls[0])
	f := c.ResolveFunc(uri, local, arity)
	if f == nil {
		return nil, nil, xdm.Errorf("XPST0017", "function %s#%d not found in module %q", local, arity, uri)
	}
	for ci, args := range calls {
		if len(args) != arity {
			return nil, nil, xdm.Errorf("XPST0017", "call %d of %s passes %d arguments, call 0 passes %d", ci, local, len(args), arity)
		}
	}

	memo := newEvalMemo(opts.Docs)
	results := make([]xdm.Sequence, len(calls))
	puls := make([]*xquf.UpdateList, len(calls))
	counts := make([]indexCounters, len(calls))
	run := func(ci int) error {
		ctx := e.newDynCtx(c, opts, memo, &counts[ci])
		seq, err := ctx.callBound(f, calls[ci])
		results[ci], puls[ci] = seq, ctx.pul
		return err
	}

	workers := opts.Workers
	if workers > len(calls) {
		workers = len(calls)
	}
	// an updating function's pending updates are produced in call order:
	// the repeatable-read contract of §2.2
	var err error
	if workers <= 1 || f.Decl.Updating {
		for ci := range calls {
			if err = run(ci); err != nil {
				break
			}
		}
	} else {
		err = runPool(workers, len(calls), run)
	}
	if opts.Stats != nil {
		for _, n := range counts {
			opts.Stats.IndexBuilds += n.builds
			opts.Stats.IndexProbes += n.probes
			if n.fallbacks > 0 {
				opts.Stats.IndexFallbacks++
			}
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return results, puls, nil
}

// runPool has workers goroutines draw the indexes 0..n-1 from one
// counter and returns the error of the lowest failing index. Indexes
// above a failure are skipped — sequential execution would never reach
// them — while lower ones still run, so the error is exactly the one
// sequential execution returns.
func runPool(workers, n int, run func(i int) error) error {
	errs := make([]error, n)
	var next, firstFailed atomic.Int64
	firstFailed.Store(int64(n))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= firstFailed.Load() {
					return
				}
				if errs[i] = run(int(i)); errs[i] == nil {
					continue
				}
				for {
					cur := firstFailed.Load()
					if i >= cur || firstFailed.CompareAndSwap(cur, i) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if ff := firstFailed.Load(); ff < int64(n) {
		return errs[ff]
	}
	return nil
}

// newDynCtx starts one evaluation of c (the main module body, or one
// call of a bulk) over memo, counting its index use in cnt.
func (e *Engine) newDynCtx(c *xqrt.Compiled, opts *EvalOptions, memo *evalMemo, cnt *indexCounters) *dynCtx {
	maxRec := e.MaxRecursion
	if maxRec <= 0 {
		maxRec = 4096
	}
	ctx := &dynCtx{
		c:      c,
		eng:    e,
		module: c.Module(),
		rpc:    opts.RPC,
		pul:    &xquf.UpdateList{},
		cnt:    cnt,
		memo:   memo,
		maxRec: maxRec,
	}
	if memo.docs != nil {
		ctx.docs = memo // fn:doc goes through the memo, which notes the trees it may retain
	}
	for name, val := range opts.Vars {
		ctx.bind(name, val)
	}
	return ctx
}
