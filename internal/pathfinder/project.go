package pathfinder

import (
	"strings"

	"xrpc/internal/xdm"
	"xrpc/internal/xq"
)

// project.go is the caller's half of call-by-projection: for each
// execute at, the child paths the rest of the query applies to the
// call's result, which the call ships as xrpc:projection so the callee
// writes each result item's root with its attributes and, below it,
// only the elements on or below those paths (xdm.WriteProjected).
//
// A result — the execute at itself, or a for, let or some/every variable
// bound to it, or to such a variable — may be used only
//
//   - at the item level: as the argument of empty, exists, count, boolean
//     or not, or where its effective boolean value is taken (an if
//     condition, a where clause, an and/or operand, a satisfies clause);
//   - as the head of a path whose first steps are child steps with
//     unprefixed names and no predicate: each such prefix is a path kept
//     in full. After it the path may end in an unprefixed attribute step,
//     or go on downwards (child, descendant, attribute, self, any test or
//     predicate) inside what is kept in full.
//
// Any other use refuses, and the call ships everything with no
// attribute: a result returned, atomized, compared, serialized, passed
// to a function or to another execute at, put in a constructor or a
// sequence, filtered by a predicate, or reached by a wildcard, a kind
// test, a self or descendant axis. One fact of the whole query refuses
// every call: a way up from a node anywhere the query evaluates locally
// — an axis that leaves a node upwards or sideways (parent, ancestor,
// sibling, preceding, following), fn:root, or a path that starts with
// "/" or "//" (in a predicate, the root of the context node) — since a
// node kept in full could reach a pruned one through it. Names are
// compared as written, as the engines match them. Variables are tracked
// by name, so a reference to another variable of the same name counts as
// a use too: that can only refuse, or keep more.

// itemLevel are the built-ins whose result depends only on the items of
// their argument, not on what is below them.
var itemLevel = map[string]bool{"empty": true, "exists": true, "count": true, "boolean": true, "not": true}

// resultUse is what the query does with one execute at's result.
type resultUse struct {
	paths    [][]string
	seen, ok int // uses met, and uses that keep the projection
	updating bool
}

// projections derives the projection of every execute at the query
// evaluates locally, in its wire form; a call missing from the map ships
// everything.
func (env *staticEnv) projections(body xq.Expr) map[*xq.ExecuteAt]string {
	type scope struct {
		e   xq.Expr
		mod *xq.Module
	}
	todo := []scope{{body, env.module}}
	done := map[*xq.FuncDecl]bool{}
	uses := map[*xq.ExecuteAt]*resultUse{}
	for len(todo) > 0 {
		sc := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		refused := false
		// the variables bound to results in this body, by name
		vars := map[string][]*resultUse{}
		origin := func(e xq.Expr) []*resultUse {
			switch n := e.(type) {
			case *xq.ExecuteAt:
				u := uses[n]
				if u == nil {
					u = &resultUse{}
					if f, ok := env.static.LookupFunc(sc.mod, n.Call.Name, len(n.Call.Args)); ok && f.Decl.Updating {
						u.updating = true
					}
					uses[n] = u
				}
				return []*resultUse{u}
			case *xq.VarRef:
				return vars[n.Name]
			}
			return nil
		}
		// kept counts a use of e that keeps its projection, adding path
		keep := func(e xq.Expr, path []string) []*resultUse {
			us := origin(e)
			for _, u := range us {
				u.ok++
				if path != nil {
					u.paths = append(u.paths, path)
				}
			}
			return us
		}
		bind := func(name string, e xq.Expr) {
			vars[name] = append(vars[name], keep(e, nil)...)
		}
		xq.Walk(sc.e, nil, func(x xq.Expr, _ map[string]bool) {
			switch n := x.(type) {
			case *xq.ExecuteAt, *xq.VarRef:
				for _, u := range origin(n) {
					u.seen++
				}
			case *xq.Path:
				// "/" or "//" is fn:root of the context node
				if n.Root == nil && n.FromRoot {
					refused = true
				}
				for _, st := range n.Steps {
					if upward(st.Axis) {
						refused = true
					}
				}
				if path, ok := projectedPath(n); ok {
					keep(n.Root, path)
				}
			case *xq.FuncCall:
				fn, user := env.static.LookupFunc(sc.mod, n.Name, len(n.Args))
				name := strings.TrimPrefix(n.Name, "fn:")
				switch {
				case user:
					if f := fn.Decl; !done[f] && f.Body != nil {
						done[f] = true
						todo = append(todo, scope{f.Body, fn.Module})
					}
				case name == "root":
					refused = true
				case itemLevel[name] && len(n.Args) == 1:
					keep(n.Args[0], nil)
				}
			case *xq.If:
				keep(n.Cond, nil)
			case *xq.Logic:
				keep(n.L, nil)
				keep(n.R, nil)
			case *xq.FLWOR:
				for _, cl := range n.Clauses {
					switch c := cl.(type) {
					case *xq.ForClause:
						bind(c.Var, c.In)
					case *xq.LetClause:
						bind(c.Var, c.Val)
					}
				}
				keep(n.Where, nil)
			case *xq.Quantified:
				bind(n.Var, n.In)
				keep(n.Satisfies, nil)
			}
		})
		if refused {
			return nil
		}
	}
	out := map[*xq.ExecuteAt]string{}
	for ea, u := range uses {
		if !u.updating && u.seen == u.ok {
			out[ea] = xdm.NewProjection(u.paths).String()
		}
	}
	return out
}

// upward reports whether an axis can leave a node for one that is not
// below it.
func upward(a xdm.Axis) bool {
	switch a {
	case xdm.AxisChild, xdm.AxisDescendant, xdm.AxisDescendantOrSelf, xdm.AxisAttribute, xdm.AxisSelf:
		return false
	}
	return true
}

// projectedPath returns the element names of the child path p applies
// to its root expression's items, when p keeps a projection (see the
// file comment).
func projectedPath(p *xq.Path) ([]string, bool) {
	if p.Root == nil || len(p.RootPreds) > 0 {
		return nil, false
	}
	var names []string
	for i, st := range p.Steps {
		if plainName(st) && st.Axis == xdm.AxisChild {
			names = append(names, st.Test.Name)
			continue
		}
		rest := p.Steps[i:]
		if len(rest) == 1 && plainName(st) && st.Axis == xdm.AxisAttribute {
			return names, true
		}
		// below a kept element, any downward step stays in its subtree
		return names, len(names) > 0
	}
	return names, true
}

// plainName reports whether a step tests for one unprefixed name and has
// no predicate.
func plainName(st xq.Step) bool {
	return !st.Test.KindTest && st.Test.Name != "*" && !strings.Contains(st.Test.Name, ":") && len(st.Preds) == 0
}
