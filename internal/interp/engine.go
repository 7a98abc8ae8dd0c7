// Package interp is a tree-walking XQuery interpreter. In the
// reproduction it plays the role of Saxon in the paper's experiments
// (§4, §5): an XQuery engine with no function cache, whose latency is
// dominated by per-query compile and tree-build time, wrapped by the
// XRPC wrapper to participate in distributed queries.
//
// It is also the reference semantics for the loop-lifting relational
// engine (internal/pathfinder): both must produce identical results on
// the supported subset. They share this package's front end: Compile
// turns a text into its one static context (Compiled), pathfinder lifts
// its plan from that, and PlanCache — the function cache Saxon lacks and
// MonetDB/XQuery has — is how a peer keeps either.
package interp

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xrpc/internal/xdm"
	"xrpc/internal/xq"
)

// DocResolver resolves fn:doc URIs to document nodes. Implementations
// include store.Snapshot (one pinned version, see VersionedResolver)
// and client-side resolvers that fetch xrpc:// documents (data shipping).
type DocResolver interface {
	Doc(uri string) (*xdm.Node, error)
}

// ModuleResolver resolves "import module" URIs (with their at-hints) to
// parsed library modules.
type ModuleResolver interface {
	ResolveModule(uri string, atHints []string) (*xq.Module, error)
}

// CallRequest describes one remote function application for execute at.
type CallRequest struct {
	ModuleURI string
	AtHint    string
	Func      string // local function name
	Arity     int
	Args      []xdm.Sequence
	Updating  bool
	// ByFragment requests call-by-fragment parameter passing (nodeid
	// references for descendant parameters).
	ByFragment bool
}

// RPCCaller performs execute-at calls; implemented by the XRPC client.
// The interpreter performs one call per invocation (one-at-a-time RPC);
// bulk RPC arises from the loop-lifting engine.
type RPCCaller interface {
	Call(dest string, req *CallRequest) (xdm.Sequence, error)
}

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

// Total is the sum of the phases.
func (s Stats) Total() time.Duration { return s.Compile + s.TreeBuild + s.Exec }

// ExtFunc is a host-provided extension function, looked up by its
// prefixed name when no user or built-in function matches. The XRPC
// wrapper uses this to supply the n2s/s2n marshaling functions of §2.2
// (which "do not need to exist in reality, as each XRPC system
// implementation may have its own internal mechanisms").
type ExtFunc func(args []xdm.Sequence) (xdm.Sequence, error)

// Engine compiles and evaluates XQuery; each evaluation names the
// documents it reads (EvalOptions.Docs).
type Engine struct {
	Modules ModuleResolver
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
func New(modules ModuleResolver) *Engine {
	return &Engine{Modules: modules}
}

// funcKey identifies a function by namespace URI, local name and arity.
type funcKey struct {
	uri   string
	local string
	arity int
}

// boundFunc couples a declaration with the module whose static context
// its body must see.
type boundFunc struct {
	decl   *xq.FuncDecl
	module *xq.Module
	// importURI/atHint record how the *calling* module imported the
	// function's module — needed to address execute-at requests.
	atHint string
}

// Compiled is the static context of one XQuery text: the parsed main
// module, its transitively resolved imports, the function table both
// engines resolve calls in, and the text's classification. It holds
// nothing of any one evaluation — documents, the RPC caller and variables
// arrive through EvalOptions — so a Compiled is immutable, safe for
// concurrent Eval calls, and what a PlanCache stores.
type Compiled struct {
	engine *Engine
	main   *xq.Module
	// modules are the library modules of this context by namespace URI.
	// Every one but a library main module is the very *xq.Module the
	// resolver returned: the dependency record that fresh checks.
	modules map[string]*xq.Module
	funcs   map[funcKey]*boundFunc
	globals []*xq.VarDecl

	updating   bool
	repeatable bool
	timeout    int

	// lifted is the plan another engine derived from this context (see
	// Lifted), built at most once.
	liftOnce sync.Once
	lifted   any
	liftErr  error

	// CompileTime is how long parsing+resolution took (Table 3 "compile").
	CompileTime time.Duration
}

// Module returns the parsed main module.
func (c *Compiled) Module() *xq.Module { return c.main }

// IsUpdating reports whether the query body contains update expressions
// or calls to updating functions (a static property per XQUF).
func (c *Compiled) IsUpdating() bool { return c.updating }

// Repeatable reports whether the text declares option xrpc:isolation
// "repeatable" (§2.2; the default, and the only other value, is "none").
func (c *Compiled) Repeatable() bool { return c.repeatable }

// Timeout is the declared option xrpc:timeout in seconds, 0 when the
// text does not declare one.
func (c *Compiled) Timeout() int { return c.timeout }

// Lifted returns the plan lift derives from this static context, calling
// lift on first use only: a cached context carries its derived plan with
// it. One context has one derived form (internal/pathfinder's loop-lifted
// plan), so every caller must pass the same lift.
func (c *Compiled) Lifted(lift func(*Compiled) (any, error)) (any, error) {
	c.liftOnce.Do(func() { c.lifted, c.liftErr = lift(c) })
	return c.lifted, c.liftErr
}

// ErrLibraryModule is what either engine answers when asked to run a
// library module as a query.
var ErrLibraryModule = errors.New("xquery: a library module has no query body to evaluate")

// Compile parses src, resolves its module imports and classifies it.
func (e *Engine) Compile(src string) (*Compiled, error) {
	start := time.Now()
	m, err := xq.Parse(src)
	if err != nil {
		return nil, err
	}
	c := &Compiled{
		engine:  e,
		main:    m,
		modules: map[string]*xq.Module{},
		funcs:   map[funcKey]*boundFunc{},
	}
	if err := c.registerModule(m, ""); err != nil {
		return nil, err
	}
	if err := c.resolveImports(m); err != nil {
		return nil, err
	}
	if err := c.classify(); err != nil {
		return nil, err
	}
	c.CompileTime = time.Since(start)
	return c, nil
}

// classify reads what a query processor decides per text, not per run:
// whether the body is updating, and the two XRPC prolog options. A
// malformed option is a static error — silently running a misspelt
// "repeatable" at isolation none is the alternative.
func (c *Compiled) classify() error {
	c.updating = exprIsUpdating(c.main.Body, c)
	switch iso := c.main.Options["xrpc:isolation"]; iso {
	case "", "none":
	case "repeatable":
		c.repeatable = true
	default:
		return xdm.Errorf("XQST0013", `option xrpc:isolation must be "none" or "repeatable", not %q`, iso)
	}
	if t, declared := c.main.Options["xrpc:timeout"]; declared {
		n, err := strconv.Atoi(t)
		if err != nil || n <= 0 {
			return xdm.Errorf("XQST0013", "option xrpc:timeout must be a positive number of seconds, not %q", t)
		}
		c.timeout = n
	}
	return nil
}

// fresh reports whether every module this context depends on is still
// the one the resolver holds: the single invalidation rule of a
// PlanCache. self stands in for a library main module, whose own parse
// the resolver never held (see PlanCache.Put); nil skips it.
func (c *Compiled) fresh(self *xq.Module) bool {
	for uri, m := range c.modules {
		if m == c.main {
			if m = self; m == nil {
				continue
			}
		}
		if cur, err := c.engine.Modules.ResolveModule(uri, nil); err != nil || cur != m {
			return false
		}
	}
	return true
}

// CompileModule compiles a library module source for direct invocation
// (used by the XRPC server to execute requested functions).
func (e *Engine) CompileModule(src string) (*Compiled, error) {
	c, err := e.Compile(src)
	if err != nil {
		return nil, err
	}
	if !c.main.IsLibrary {
		return nil, fmt.Errorf("interp: not a library module")
	}
	return c, nil
}

func (c *Compiled) resolveImports(m *xq.Module) error {
	for _, imp := range m.Imports {
		if _, done := c.modules[imp.URI]; done {
			continue
		}
		if c.engine.Modules == nil {
			return xdm.Errorf("XQST0059", "no module resolver for %q", imp.URI)
		}
		lib, err := c.engine.Modules.ResolveModule(imp.URI, imp.AtHints)
		if err != nil {
			return xdm.Errorf("XQST0059", "could not load module %q: %v", imp.URI, err)
		}
		if !lib.IsLibrary || lib.ModuleURI != imp.URI {
			return xdm.Errorf("XQST0059", "module %q does not declare namespace %q", imp.URI, imp.URI)
		}
		hint := ""
		if len(imp.AtHints) > 0 {
			hint = imp.AtHints[0]
		}
		if err := c.registerModule(lib, hint); err != nil {
			return err
		}
		if err := c.resolveImports(lib); err != nil {
			return err
		}
	}
	return nil
}

func (c *Compiled) registerModule(m *xq.Module, atHint string) error {
	uri := m.ModuleURI
	if m.IsLibrary {
		c.modules[uri] = m
	}
	for _, f := range m.Functions {
		local := f.LocalName()
		fnURI := uri
		if !m.IsLibrary {
			// main-module functions live in their declared prefix's URI
			fnURI = m.Namespaces[prefixOf(f.Name)]
		}
		key := funcKey{uri: fnURI, local: local, arity: f.Arity()}
		if _, dup := c.funcs[key]; dup {
			return xdm.Errorf("XQST0034", "duplicate function %s#%d", f.Name, f.Arity())
		}
		c.funcs[key] = &boundFunc{decl: f, module: m, atHint: atHint}
	}
	c.globals = append(c.globals, m.Variables...)
	return nil
}

func prefixOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == ':' {
			return name[:i]
		}
	}
	return ""
}

// LookupFunc resolves a prefixed call name in the static context of
// module m for another engine compiling from c: the declaration, the
// module whose static context its body sees, and the at-hint its module
// was imported under (what an execute at of it is addressed with).
func (c *Compiled) LookupFunc(m *xq.Module, name string, arity int) (*xq.FuncDecl, *xq.Module, string, bool) {
	f, ok := c.lookupFunc(m, name, arity)
	if !ok {
		return nil, nil, "", false
	}
	return f.decl, f.module, f.atHint, true
}

// lookupFunc resolves a prefixed call name in the static context of
// module m.
func (c *Compiled) lookupFunc(m *xq.Module, name string, arity int) (*boundFunc, bool) {
	prefix := prefixOf(name)
	local := name
	if prefix != "" {
		local = name[len(prefix)+1:]
	}
	uri := m.Namespaces[prefix]
	if f, ok := c.funcs[funcKey{uri: uri, local: local, arity: arity}]; ok {
		return f, true
	}
	// main module: unprefixed user functions
	if f, ok := c.funcs[funcKey{uri: "", local: local, arity: arity}]; ok && prefix == "" {
		return f, true
	}
	return nil, false
}

// EvalOptions configure one evaluation.
type EvalOptions struct {
	// Vars binds external variables ($x etc.).
	Vars map[string]xdm.Sequence
	// Docs resolves fn:doc: a store.Snapshot on every server and peer
	// path, whose version then keeps the evaluation's steps and indexes
	// (VersionedResolver). Nil means no documents.
	Docs DocResolver
	// RPC performs the evaluation's execute-at calls (e.g. a per-query
	// client carrying the queryID of the request being served). Nil
	// means execute at raises XRPC0001.
	RPC RPCCaller
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

// Eval evaluates the main module body. For updating queries the pending
// update list is returned; it is the caller's responsibility to apply it
// (XQUF semantics: side effects happen after query evaluation).
func (c *Compiled) Eval(opts *EvalOptions) (xdm.Sequence, *UpdateList, error) {
	if c.main.Body == nil {
		return nil, nil, ErrLibraryModule
	}
	if opts == nil {
		opts = &EvalOptions{}
	}
	ctx := c.newDynCtx(opts, newEvalMemo(opts.Docs), &indexCounters{})
	// prolog variables
	for _, v := range c.globals {
		if v.Val == nil {
			continue
		}
		val, err := ctx.eval(v.Val)
		if err != nil {
			return nil, nil, err
		}
		ctx.bind(v.Name, val)
	}
	seq, err := ctx.eval(c.main.Body)
	if err != nil {
		return nil, nil, err
	}
	if len(ctx.pul.Prims) > 0 && !opts.CollectUpdates {
		return nil, nil, xdm.NewError("XUST0001", "updating expression in non-updating context")
	}
	return seq, ctx.pul, nil
}

// resolveFunc is the one answer to "which function does a request for
// (uri, local, arity) run": the exact match, else — a caller that names a
// module this compilation does not know — the same-named function of the
// lowest module URI, so the choice does not depend on map order.
func (c *Compiled) resolveFunc(uri, local string, arity int) *boundFunc {
	if f, ok := c.funcs[funcKey{uri: uri, local: local, arity: arity}]; ok {
		return f
	}
	var best *boundFunc
	var bestURI string
	for k, cand := range c.funcs {
		if k.local == local && k.arity == arity && (best == nil || k.uri < bestURI) {
			best, bestURI = cand, k.uri
		}
	}
	return best
}

// FunctionUpdating reports whether the function a request for (uri,
// local, arity) resolves to is an XQUF updating function; CallBulk
// evaluates the calls of such a request strictly in order.
func (c *Compiled) FunctionUpdating(uri, local string, arity int) bool {
	f := c.resolveFunc(uri, local, arity)
	return f != nil && f.decl.Updating
}

// CallFunction invokes a declared function once: a CallBulk of one call.
func (c *Compiled) CallFunction(uri, local string, args []xdm.Sequence, opts *EvalOptions) (xdm.Sequence, *UpdateList, error) {
	results, puls, err := c.CallBulk(uri, local, [][]xdm.Sequence{args}, opts)
	if err != nil {
		return nil, nil, err
	}
	return results[0], puls[0], nil
}

// CallBulk is the server-side entry point for an XRPC request: it applies
// one function (addressed by local name and arity within module uri, see
// resolveFunc) to every argument tuple of calls and returns the results
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
func (c *Compiled) CallBulk(uri, local string, calls [][]xdm.Sequence, opts *EvalOptions) ([]xdm.Sequence, []*UpdateList, error) {
	if len(calls) == 0 {
		return nil, nil, nil
	}
	if opts == nil {
		opts = &EvalOptions{}
	}
	arity := len(calls[0])
	f := c.resolveFunc(uri, local, arity)
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
	puls := make([]*UpdateList, len(calls))
	counts := make([]indexCounters, len(calls))
	run := func(ci int) error {
		ctx := c.newDynCtx(opts, memo, &counts[ci])
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
	if workers <= 1 || f.decl.Updating {
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

// newDynCtx starts one evaluation (the main module body, or one call of
// a bulk) over memo, counting its index use in cnt.
func (c *Compiled) newDynCtx(opts *EvalOptions, memo *evalMemo, cnt *indexCounters) *dynCtx {
	maxRec := c.engine.MaxRecursion
	if maxRec <= 0 {
		maxRec = 4096
	}
	ctx := &dynCtx{
		c:      c,
		module: c.main,
		rpc:    opts.RPC,
		pul:    &UpdateList{},
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
