package interp

import (
	"sync"

	"xrpc/internal/xdm"
	"xrpc/internal/xq"
)

// Predicate hash indexing: §3.2 of the paper has the callee of a Bulk
// RPC turn N selections into one join, and §4 observes the same of the
// wrapper's generated query: "Saxon is able to detect the join condition
// and builds a hash-table such that performance remains linear". This
// file is that join for the tree-walking engine. The first predicate of
// an axis step, when it has one of the shapes
//
//	step[ <key path> = <probe> ]        step[ <probe> = <key path> ]
//
// with <key path> a predicate-free path over downward/attribute axes,
// relative or rooted at "." (@id, buyer/@person, ./buyer/@person), and
// <probe> an expression that never consults the context item (typically
// the function's parameter), hashes the step's candidates by the key
// path's string values once and answers every later application — every
// call of a CallBulk request, every iteration of a loop — by lookup.
//
// Everything else is evaluated row-at-a-time, and so is any application
// the index cannot answer exactly as "=" would: a probe value that is
// not a string or untypedAtomic (numeric comparison of "07" and 7), a
// probe expression that raises, fewer than minIndexedCandidates
// candidates, candidates outside the documents the evaluation's
// resolver handed out (constructed or parameter trees, which the memo
// must not retain), and second or later predicates and filter
// expressions (their candidate list depends on what was filtered
// before). Slow, never wrong: Engine.DisablePredIndex forces the
// row-at-a-time evaluation everywhere and is the reference the
// differential tests compare against.

// minIndexedCandidates is the candidate count below which a scan beats
// building a hash table.
const minIndexedCandidates = 16

// evalMemo is the state shared by every dynamic context of one Eval or
// one CallBulk request — for a bulk, by all its calls and workers. Trees
// do not change during an evaluation, so a step from a node and an index
// over that step's output are computed once. The memo retains them only
// for nodes of documents its resolver handed out: a bulk of a
// constructing function must not grow it by a tree per call. mu guards
// the maps and is held while a step is scanned, which is what makes
// concurrent calls wait for one scan instead of repeating it; an index
// is built under its own sync.Once and is read-only afterwards.
type evalMemo struct {
	docs DocResolver // where the evaluation reads documents from

	mu    sync.Mutex
	trees map[int64]bool // tree ids of the documents docs returned
	steps map[*xq.Step]map[*xdm.Node][]*xdm.Node
	preds map[predKey]*predIndex
}

// Doc implements DocResolver for the evaluation's contexts, noting the
// returned tree as one whose steps and indexes may be retained.
func (m *evalMemo) Doc(uri string) (*xdm.Node, error) {
	doc, err := m.docs.Doc(uri)
	if err != nil || doc == nil {
		return doc, err
	}
	if id := doc.TreeID(); id != 0 {
		m.mu.Lock()
		m.trees[id] = true
		m.mu.Unlock()
	}
	return doc, nil
}

// memoStep is xdm.Step memoized per (step AST node, context node): this
// is what keeps a bulk linear — //person is scanned once, not once per
// call. The returned slice is shared and must not be modified.
func (ctx *dynCtx) memoStep(st *xq.Step, n *xdm.Node) []*xdm.Node {
	m := ctx.memo
	m.mu.Lock()
	if !m.trees[n.TreeID()] {
		m.mu.Unlock()
		return xdm.Step(n, st.Axis, st.Test)
	}
	inner, ok := m.steps[st]
	if !ok {
		inner = map[*xdm.Node][]*xdm.Node{}
		m.steps[st] = inner
	}
	out, hit := inner[n]
	if !hit {
		out = xdm.Step(n, st.Axis, st.Test)
		inner[n] = out
	}
	m.mu.Unlock()
	return out
}

// predKey names a candidate list that cannot differ between two
// applications: the unfiltered output of the step that pred is the first
// predicate of, taken from node from.
type predKey struct {
	pred xq.Expr // predicate AST identity
	from *xdm.Node
}

// predIndex maps a key string value to the ascending, duplicate-free
// positions of the candidates that have it.
type predIndex struct {
	once    sync.Once
	byValue map[string][]int
}

// indexCounters is one call's share of Stats.Index*.
type indexCounters struct {
	builds, probes, fallbacks int
}

// tryIndexedPredicate filters cands — the output of the step pred is the
// first predicate of, taken from node from — by probing the hash index;
// ok is false when the application must be evaluated row-at-a-time.
func (ctx *dynCtx) tryIndexedPredicate(from *xdm.Node, cands []*xdm.Node, pred xq.Expr) (out []*xdm.Node, ok bool) {
	if len(cands) < minIndexedCandidates || ctx.c.engine.DisablePredIndex {
		return nil, false
	}
	keyPath, probe := indexableShape(pred)
	if keyPath == nil {
		return nil, false
	}
	m := ctx.memo
	m.mu.Lock()
	if !m.trees[from.TreeID()] {
		m.mu.Unlock()
		return nil, false
	}
	key := predKey{pred: pred, from: from}
	idx := m.preds[key]
	if idx == nil {
		idx = &predIndex{}
		m.preds[key] = idx
	}
	m.mu.Unlock()

	// the probe side does not depend on the candidate: evaluate it once
	pv, err := ctx.eval(probe)
	if err != nil {
		return nil, false // row-at-a-time raises it, if there is a row
	}
	pv = xdm.Atomize(pv)
	for _, it := range pv {
		switch it.(type) {
		case xdm.String, xdm.Untyped:
		default:
			return nil, false // only string-family probes compare as the index hashes
		}
	}
	idx.once.Do(func() {
		idx.byValue = buildPredIndex(cands, keyPath.Steps)
		ctx.cnt.builds++
	})
	ctx.cnt.probes++

	var rows []int
	for _, it := range pv {
		rows = mergeRows(rows, idx.byValue[it.StringValue()])
	}
	if len(rows) == 0 {
		return nil, true
	}
	out = make([]*xdm.Node, len(rows))
	for i, r := range rows {
		out[i] = cands[r]
	}
	return out, true
}

// indexableShape splits an indexable predicate into its key path and its
// probe expression; keyPath is nil for any other predicate.
func indexableShape(pred xq.Expr) (keyPath *xq.Path, probe xq.Expr) {
	cmp, isCmp := pred.(*xq.Comparison)
	if !isCmp || !cmp.General || cmp.Op != "=" {
		return nil, nil
	}
	if p, isPath := cmp.L.(*xq.Path); isPath && purePath(p) && contextFree(cmp.R) {
		return p, cmp.R
	}
	if p, isPath := cmp.R.(*xq.Path); isPath && purePath(p) && contextFree(cmp.L) {
		return p, cmp.L
	}
	return nil, nil
}

// buildPredIndex walks the key path's steps from every candidate and
// hashes the candidate's position by each key node's string value —
// what atomization yields for a node of an untyped document, and what
// "=" compares a string-family probe with.
func buildPredIndex(cands []*xdm.Node, steps []xq.Step) map[string][]int {
	byValue := make(map[string][]int, len(cands))
	var cur, next []*xdm.Node
	for i, cand := range cands {
		cur = append(cur[:0], cand)
		for si := range steps {
			next = next[:0]
			for _, n := range cur {
				next = append(next, xdm.Step(n, steps[si].Axis, steps[si].Test)...)
			}
			cur, next = next, cur
		}
		for _, k := range cur {
			v := k.StringValue()
			rows := byValue[v]
			if len(rows) == 0 || rows[len(rows)-1] != i {
				byValue[v] = append(rows, i)
			}
		}
	}
	return byValue
}

// mergeRows merges two ascending duplicate-free row lists into one. The
// inputs are shared index entries and are never modified; with one of
// them empty the other is returned as is.
func mergeRows(a, b []int) []int {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]int, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case a[0] > b[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// purePath reports whether p is a path from the candidate itself —
// relative, or rooted at "." — over downward/attribute axes with no
// predicates: safe to walk per candidate and index.
func purePath(p *xq.Path) bool {
	if _, dot := p.Root.(*xq.ContextItem); p.Root != nil && !dot {
		return false
	}
	if p.FromRoot || len(p.RootPreds) > 0 {
		return false
	}
	for _, st := range p.Steps {
		if len(st.Preds) > 0 {
			return false
		}
		switch st.Axis {
		case xdm.AxisChild, xdm.AxisDescendant, xdm.AxisDescendantOrSelf,
			xdm.AxisAttribute, xdm.AxisSelf:
		default:
			return false
		}
	}
	return true
}

// contextFree reports whether the expression never consults the context
// item, position or size — so it can be evaluated once per predicate
// application instead of per candidate. Only the node kinds listed are
// accepted, anywhere below e; whether a built-in reads the focus is the
// library table's answer (Builtin), whatever the call's prefix.
func contextFree(e xq.Expr) bool {
	free := true
	xq.Walk(e, nil, func(x xq.Expr, _ map[string]bool) {
		switch n := x.(type) {
		case *xq.VarRef, *xq.StringLit, *xq.IntLit, *xq.DecimalLit, *xq.DoubleLit, *xq.EmptySeq,
			*xq.Comparison, *xq.Arith, *xq.Logic, *xq.Unary, *xq.Cast, *xq.SeqExpr:
		case *xq.Path:
			free = free && n.Root != nil
		case *xq.FuncCall:
			// f is nil for exactly the built-ins that read the dynamic context
			if f, _, err := Builtin(n.Name, len(n.Args)); err == nil && f == nil {
				free = false
			}
		default:
			free = false
		}
	})
	return free
}
