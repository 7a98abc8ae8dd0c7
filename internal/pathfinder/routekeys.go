package pathfinder

import (
	"fmt"
	"strings"

	"xrpc/internal/xdm"
	"xrpc/internal/xq"
)

// RouteKey is the routing predicate derived from one function of a
// library module: parameter Param of every call is compared against the
// KeyAttr attribute of a container in Doc, and the function's result on
// a peer that does not hold a matching container row is provably empty
// (and its side effects touch only matching rows). It is the
// compiler-level half of a cluster.RouteSpec — the cluster layer still
// has to match (Doc, PathSuffix, KeyAttr) against the routing table's
// partitioned containers before the spec may prune anything.
type RouteKey struct {
	// Func is the function's local name; Param the key parameter index.
	Func  string
	Param int
	// Doc is the document literal the keyed access is rooted at.
	Doc string
	// PathSuffix locates the keyed container: when Rooted it is the full
	// rooted element path ("/site/people/person"), otherwise the step
	// suffix following the last descendant axis ("person",
	// "people/person") which must match the tail of a container path.
	PathSuffix string
	Rooted     bool
	// KeyAttr is the attribute compared; Op the comparison with the
	// attribute on the left ("=", "<", "<=", ">", ">=").
	KeyAttr string
	Op      string
}

func (k RouteKey) String() string {
	p := k.PathSuffix
	if !k.Rooted {
		p = "…/" + p
	}
	return fmt.Sprintf("%s($%d) via %s %s[@%s %s key]", k.Func, k.Param, k.Doc, p, k.KeyAttr, k.Op)
}

// RouteMiss records why a function could not be derived. Underivable
// functions are never misrouted — the coordinator falls back to
// broadcast, which is correct for any function.
type RouteMiss struct {
	Func   string
	Reason string
}

// DeriveRouteKeys statically analyses every function of a library
// module and derives a RouteKey for each function that provably routes:
// the body must contain exactly one keyed access pattern — a comparison
// between a container attribute and one parameter — and the whole body
// must be *empty-on-miss*: evaluated on a peer whose fragment has no
// container row matching the key, the result is the empty sequence and
// no update primitive targets a node. Anything the analysis cannot
// prove is reported as a RouteMiss instead of guessed at.
func DeriveRouteKeys(m *xq.Module) ([]RouteKey, []RouteMiss) {
	var keys []RouteKey
	var misses []RouteMiss
	for _, fn := range m.Functions {
		k, err := deriveFunc(m, fn)
		if err != nil {
			misses = append(misses, RouteMiss{Func: fn.LocalName(), Reason: err.Error()})
			continue
		}
		keys = append(keys, *k)
	}
	return keys, misses
}

// keySig is one observed keyed-access signature (phase A).
type keySig struct {
	doc, suffix string
	rooted      bool
	attr, op    string
	param       string
}

func deriveFunc(m *xq.Module, fn *xq.FuncDecl) (*RouteKey, error) {
	if fn.External || fn.Body == nil {
		return nil, fmt.Errorf("external function")
	}
	if len(fn.Params) == 0 {
		return nil, fmt.Errorf("no parameters to key on")
	}
	d := &deriver{m: m, fn: fn}
	// phase A: collect every keyed-access signature in the body; they
	// must agree on exactly one (doc, container, attribute, param, op).
	d.collect(fn.Body, nil)
	if len(d.sigs) == 0 {
		return nil, fmt.Errorf("no comparison between a container attribute and a parameter")
	}
	sig := d.sigs[0]
	for _, s := range d.sigs[1:] {
		if s != sig {
			return nil, fmt.Errorf("conflicting key comparisons (%s[@%s %s $%s] vs %s[@%s %s $%s])",
				sig.suffix, sig.attr, sig.op, sig.param, s.suffix, s.attr, s.op, s.param)
		}
	}
	// phase B: the body must be provably empty (and side-effect free)
	// when no container row matches the key.
	if !d.keyed(fn.Body, sig, nil) {
		return nil, fmt.Errorf("body is not provably empty when the key misses (result may be non-empty on non-owning peers)")
	}
	param := -1
	for i, p := range fn.Params {
		if p.Name == sig.param {
			param = i
		}
	}
	if param < 0 {
		return nil, fmt.Errorf("key variable $%s is not a parameter", sig.param)
	}
	return &RouteKey{
		Func: fn.LocalName(), Param: param,
		Doc: sig.doc, PathSuffix: sig.suffix, Rooted: sig.rooted,
		KeyAttr: sig.attr, Op: sig.op,
	}, nil
}

type deriver struct {
	m    *xq.Module
	fn   *xq.FuncDecl
	sigs []keySig
}

// isParam reports whether name is a function parameter not shadowed by
// an enclosing binding.
func (d *deriver) isParam(name string, shadow map[string]bool) bool {
	if shadow[name] {
		return false
	}
	for _, p := range d.fn.Params {
		if p.Name == name {
			return true
		}
	}
	return false
}

// docLit unwraps doc("literal") / fn:doc("literal") root calls.
func docLit(e xq.Expr) (string, bool) {
	c, ok := e.(*xq.FuncCall)
	if !ok || len(c.Args) != 1 {
		return "", false
	}
	if n := xq.LocalOf(c.Name); n != "doc" {
		return "", false
	}
	s, ok := c.Args[0].(*xq.StringLit)
	if !ok {
		return "", false
	}
	return s.Val, true
}

// paramRef unwraps the parameter side of a key comparison: a bare $p,
// data($p), or — for parameters already declared xs:string — the
// identity wrappers string($p)/xs:string($p).
func (d *deriver) paramRef(e xq.Expr, shadow map[string]bool) (string, bool) {
	switch x := e.(type) {
	case *xq.VarRef:
		if d.isParam(x.Name, shadow) {
			return x.Name, true
		}
	case *xq.FuncCall:
		if len(x.Args) != 1 {
			return "", false
		}
		v, ok := x.Args[0].(*xq.VarRef)
		if !ok || !d.isParam(v.Name, shadow) {
			return "", false
		}
		switch xq.LocalOf(x.Name) {
		case "data":
			return v.Name, true
		case "string":
			for _, p := range d.fn.Params {
				if p.Name == v.Name && p.Type.TypeName == "xs:string" {
					return v.Name, true
				}
			}
		}
	}
	return "", false
}

// attrName matches the attribute side: @a or ./@a (a single
// attribute-axis step with no predicates).
func attrName(e xq.Expr) (string, bool) {
	p, ok := e.(*xq.Path)
	if !ok || p.FromRoot || len(p.RootPreds) != 0 || len(p.Steps) != 1 {
		return "", false
	}
	if p.Root != nil {
		if _, isCtx := p.Root.(*xq.ContextItem); !isCtx {
			return "", false
		}
	}
	s := p.Steps[0]
	if s.Axis != xdm.AxisAttribute || s.Test.KindTest || s.Test.Name == "*" ||
		s.Test.Name == "" || len(s.Preds) != 0 {
		return "", false
	}
	return s.Test.Name, true
}

// flip mirrors a comparison operator when the operands are swapped.
var flip = map[string]string{"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// normOp maps value-comparison keywords onto the symbol forms.
var normOp = map[string]string{
	"=": "=", "eq": "=",
	"<": "<", "lt": "<", "<=": "<=", "le": "<=",
	">": ">", "gt": ">", ">=": ">=", "ge": ">=",
}

// stringParam reports whether the named parameter is declared
// xs:string. Key comparisons are derivable only for string-typed
// parameters: against an untyped or numeric parameter the general
// comparison is numeric, and numeric order disagrees with the orders
// shard key bounds are checked in — "90" < 100 numerically but
// "90" > "100" in codepoints, and @id = 7 matches a "007" row that
// natural-order bounds place below the key "7" — so pruning could drop
// a shard holding a matching row. A string-typed parameter pins the
// comparison to string semantics, which the shard bounds model exactly.
func (d *deriver) stringParam(name string) bool {
	for _, p := range d.fn.Params {
		if p.Name == name {
			return p.Type.TypeName == "xs:string"
		}
	}
	return false
}

// keyCompare matches one conjunct of a step predicate against the
// keyed-comparison shape @attr op $param (either operand order).
func (d *deriver) keyCompare(e xq.Expr, shadow map[string]bool) (attr, op, param string, ok bool) {
	c, isCmp := e.(*xq.Comparison)
	if !isCmp || c.Node {
		return "", "", "", false
	}
	sym, known := normOp[c.Op]
	if !known {
		return "", "", "", false
	}
	if a, aok := attrName(c.L); aok {
		if p, pok := d.paramRef(c.R, shadow); pok && d.stringParam(p) {
			return a, sym, p, true
		}
	}
	if a, aok := attrName(c.R); aok {
		if p, pok := d.paramRef(c.L, shadow); pok && d.stringParam(p) {
			return a, flip[sym], p, true
		}
	}
	return "", "", "", false
}

// conjuncts flattens an and-chain.
func conjuncts(e xq.Expr, out []xq.Expr) []xq.Expr {
	if l, ok := e.(*xq.Logic); ok && l.Op == "and" {
		return conjuncts(l.R, conjuncts(l.L, out))
	}
	return append(out, e)
}

// pathSig scans a doc-rooted path for a keyed step and returns its
// signature. The signature records where the keyed container sits: the
// rooted child-step chain when the path never used a descendant axis,
// or the step suffix since the last descendant step otherwise.
func (d *deriver) pathSig(p *xq.Path, shadow map[string]bool) (keySig, bool) {
	doc, ok := docLit(p.Root)
	if !ok {
		return keySig{}, false
	}
	var names []string // element-step names since the last descendant axis
	rooted := true
	for _, s := range p.Steps {
		switch s.Axis {
		case xdm.AxisChild:
			if s.Test.KindTest || s.Test.Name == "*" || s.Test.Name == "" {
				return keySig{}, false
			}
			names = append(names, s.Test.Name)
		case xdm.AxisDescendant, xdm.AxisDescendantOrSelf:
			rooted = false
			if s.Test.KindTest || s.Test.Name == "*" || s.Test.Name == "" {
				names = nil // bare // separator: container position resets
				continue
			}
			names = []string{s.Test.Name}
		default:
			return keySig{}, false
		}
		for _, pred := range s.Preds {
			for _, cj := range conjuncts(pred, nil) {
				if attr, op, param, ok := d.keyCompare(cj, shadow); ok {
					suffix := strings.Join(names, "/")
					if rooted {
						suffix = "/" + suffix
					}
					return keySig{doc: doc, suffix: suffix, rooted: rooted,
						attr: attr, op: op, param: param}, true
				}
			}
		}
	}
	return keySig{}, false
}

// collect gathers every keyed-access signature in the expression,
// tracking variable bindings that shadow parameters.
func (d *deriver) collect(e xq.Expr, shadow map[string]bool) {
	xq.Walk(e, shadow, func(x xq.Expr, shadow map[string]bool) {
		if p, ok := x.(*xq.Path); ok {
			if sig, ok := d.pathSig(p, shadow); ok {
				d.sigs = append(d.sigs, sig)
			}
		}
	})
}

// shadowOf views a keyedness environment as a shadow set: every bound
// variable, keyed or not, hides a same-named parameter.
func shadowOf(env map[string]bool) map[string]bool {
	if len(env) == 0 {
		return nil
	}
	sh := make(map[string]bool, len(env))
	for k := range env {
		sh[k] = true
	}
	return sh
}

func copyShadow(shadow map[string]bool) map[string]bool {
	sh := make(map[string]bool, len(shadow)+2)
	for k, v := range shadow {
		sh[k] = v
	}
	return sh
}

// emptyPreserving names the built-ins whose result is empty whenever
// their first argument is empty. Notably absent: fn:string (string(())
// is "", a non-empty singleton), fn:count, fn:exists, fn:empty,
// fn:exactly-one (raises instead of staying empty).
var emptyPreserving = map[string]bool{
	"data":            true,
	"distinct-values": true,
	"reverse":         true,
	"unordered":       true,
	"subsequence":     true,
	"zero-or-one":     true,
	"trace":           true,
}

// keyed is the phase-B emptiness proof: it reports whether the
// expression is provably empty — producing no items and performing no
// updates — on a peer whose fragment holds no container row matching
// the key signature. env carries the keyedness of enclosing FLWOR/let
// bindings; nil entries absent means unkeyed.
func (d *deriver) keyed(e xq.Expr, sig keySig, env map[string]bool) bool {
	if e == nil {
		return true
	}
	switch x := e.(type) {
	case *xq.EmptySeq:
		return true
	case *xq.Path:
		// a doc-rooted path is keyed iff it carries the key signature
		// itself; a path rooted elsewhere inherits its root's keyedness
		// (steps and predicates preserve emptiness).
		if _, isDoc := docLit(x.Root); isDoc {
			// every env entry is a locally-bound variable shadowing any
			// same-named parameter, so env doubles as the shadow set
			s, ok := d.pathSig(x, shadowOf(env))
			return ok && s == sig
		}
		if v, isVar := x.Root.(*xq.VarRef); isVar {
			return env[v.Name]
		}
		if x.Root == nil {
			return false // context-item or "/"-rooted: unknowable here
		}
		return d.keyed(x.Root, sig, env)
	case *xq.VarRef:
		return env[x.Name]
	case *xq.SeqExpr:
		for _, it := range x.Items {
			if !d.keyed(it, sig, env) {
				return false
			}
		}
		return true
	case *xq.UnionExpr:
		return d.keyed(x.L, sig, env) && d.keyed(x.R, sig, env)
	case *xq.If:
		return d.keyed(x.Then, sig, env) && d.keyed(x.Else, sig, env)
	case *xq.FLWOR:
		envc := copyShadow(env)
		forKeyed := false
		for _, cl := range x.Clauses {
			switch c := cl.(type) {
			case *xq.ForClause:
				kw := d.keyed(c.In, sig, envc)
				if kw {
					// iterating an empty binding sequence: the return
					// clause never runs, so the whole FLWOR is empty.
					forKeyed = true
				}
				envc[c.Var] = kw
				if c.PosVar != "" {
					envc[c.PosVar] = false
				}
			case *xq.LetClause:
				envc[c.Var] = d.keyed(c.Val, sig, envc)
			}
		}
		return forKeyed || d.keyed(x.Return, sig, envc)
	case *xq.FuncCall:
		if emptyPreserving[xq.LocalOf(x.Name)] && len(x.Args) >= 1 {
			return d.keyed(x.Args[0], sig, env)
		}
		return false
	case *xq.Typeswitch:
		for _, c := range x.Cases {
			envc := env
			if c.Var != "" {
				envc = copyShadow(env)
				envc[c.Var] = false
			}
			if !d.keyed(c.Ret, sig, envc) {
				return false
			}
		}
		envd := env
		if x.DefaultVar != "" {
			envd = copyShadow(env)
			envd[x.DefaultVar] = false
		}
		return d.keyed(x.Default, sig, envd)
	case *xq.Insert:
		return d.keyed(x.Target, sig, env)
	case *xq.Delete:
		return d.keyed(x.Target, sig, env)
	case *xq.Replace:
		return d.keyed(x.Target, sig, env)
	case *xq.Rename:
		return d.keyed(x.Target, sig, env)
	}
	// literals, constructors, comparisons, arithmetic, quantified
	// expressions, casts, execute-at, …: all may produce items (or reach
	// other peers) even when the key is absent.
	return false
}
