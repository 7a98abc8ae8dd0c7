// Package xqrt is the XQuery runtime both engines share: the static
// context of a text (Compile: parse, imports, the function table, the
// text's classification, and the plan another engine lifts from it),
// the function library, the casts and operators, the function
// conversion rules, and PlanCache, the function cache that keeps static
// contexts. The tree-walking interpreter (internal/interp) evaluates a
// static context; the loop-lifting engine (internal/pathfinder) lifts a
// plan from one. Neither engine is imported here, so each links only
// what it runs.
package xqrt

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"time"

	"xrpc/internal/xdm"
	"xrpc/internal/xq"
)

// ModuleResolver resolves "import module" URIs (with their at-hints) to
// parsed library modules.
type ModuleResolver interface {
	ResolveModule(uri string, atHints []string) (*xq.Module, error)
}

// funcKey identifies a function by namespace URI, local name and arity.
type funcKey struct {
	uri   string
	local string
	arity int
}

// Func is a declared function as a static context binds it: its
// declaration, the module whose static context its body must see, and
// the at-hint under which the calling module imported that module —
// what an execute at of it is addressed with.
type Func struct {
	Decl   *xq.FuncDecl
	Module *xq.Module
	AtHint string
}

// Compiled is the static context of one XQuery text: the parsed main
// module, its transitively resolved imports, the function table both
// engines resolve calls in, and the text's classification. It holds
// nothing of any one evaluation — documents, the RPC caller and variables
// arrive with each run — so a Compiled is immutable, safe for concurrent
// evaluations, and what a PlanCache stores.
type Compiled struct {
	resolver ModuleResolver
	main     *xq.Module
	// modules are the library modules of this context by namespace URI.
	// Every one but a library main module is the very *xq.Module the
	// resolver returned: the dependency record that fresh checks.
	modules map[string]*xq.Module
	funcs   map[funcKey]*Func
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

// Globals returns the prolog variables of the main module and of every
// library module it imports, in declaration order.
func (c *Compiled) Globals() []*xq.VarDecl { return c.globals }

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

// Compile parses src, resolves its module imports through modules (nil:
// a text that imports fails) and classifies it.
func Compile(src string, modules ModuleResolver) (*Compiled, error) {
	start := time.Now()
	m, err := xq.Parse(src)
	if err != nil {
		return nil, err
	}
	c := &Compiled{
		resolver: modules,
		main:     m,
		modules:  map[string]*xq.Module{},
		funcs:    map[funcKey]*Func{},
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

// exprIsUpdating statically classifies expressions per the XQUF: an
// expression is updating if an update primitive, fn:put, or a call or
// execute at of an updating function occurs anywhere below it.
func exprIsUpdating(e xq.Expr, c *Compiled) bool {
	applies := func(call *xq.FuncCall) bool {
		f, ok := c.LookupFunc(c.main, call.Name, len(call.Args))
		return ok && f.Decl.Updating
	}
	updating := false
	xq.Walk(e, nil, func(x xq.Expr, _ map[string]bool) {
		switch n := x.(type) {
		case *xq.Insert, *xq.Delete, *xq.Replace, *xq.Rename:
			updating = true
		case *xq.FuncCall:
			updating = updating || strings.TrimPrefix(n.Name, "fn:") == "put" || applies(n)
		case *xq.ExecuteAt:
			updating = updating || applies(n.Call)
		}
	})
	return updating
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
		if cur, err := c.resolver.ResolveModule(uri, nil); err != nil || cur != m {
			return false
		}
	}
	return true
}

func (c *Compiled) resolveImports(m *xq.Module) error {
	for _, imp := range m.Imports {
		if _, done := c.modules[imp.URI]; done {
			continue
		}
		if c.resolver == nil {
			return xdm.Errorf("XQST0059", "no module resolver for %q", imp.URI)
		}
		lib, err := c.resolver.ResolveModule(imp.URI, imp.AtHints)
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
		c.funcs[key] = &Func{Decl: f, Module: m, AtHint: atHint}
	}
	c.globals = append(c.globals, m.Variables...)
	return nil
}

func prefixOf(name string) string {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i]
	}
	return ""
}

// LookupFunc resolves a prefixed call name in the static context of
// module m: the function a call of name with arity arguments written in
// m applies, the same for both engines.
func (c *Compiled) LookupFunc(m *xq.Module, name string, arity int) (*Func, bool) {
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

// ResolveFunc is the one answer to "which function does a request for
// (uri, local, arity) run": the exact match, else — a caller that names a
// module this compilation does not know — the same-named function of the
// lowest module URI, so the choice does not depend on map order. Nil
// when no function has that name and arity.
func (c *Compiled) ResolveFunc(uri, local string, arity int) *Func {
	if f, ok := c.funcs[funcKey{uri: uri, local: local, arity: arity}]; ok {
		return f
	}
	var best *Func
	var bestURI string
	for k, cand := range c.funcs {
		if k.local == local && k.arity == arity && (best == nil || k.uri < bestURI) {
			best, bestURI = cand, k.uri
		}
	}
	return best
}

// FunctionUpdating reports whether the function a request for (uri,
// local, arity) resolves to is an XQUF updating function; a callee
// evaluates the calls of such a request strictly in order.
func (c *Compiled) FunctionUpdating(uri, local string, arity int) bool {
	f := c.ResolveFunc(uri, local, arity)
	return f != nil && f.Decl.Updating
}
