package interp

import (
	"slices"
	"sync"

	"xrpc/internal/docres"
	"xrpc/internal/store"
	"xrpc/internal/xdm"
	"xrpc/internal/xq"
	"xrpc/internal/xqrt"
	"xrpc/internal/xquf"
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
// with <key path> a predicate-free path of at most maxKeySteps steps
// over downward/attribute axes, relative or rooted at "." (@id,
// buyer/@person, ./buyer/@person), and <probe> an expression that never
// consults the context item (typically the function's parameter),
// hashes the step's candidates by the key path's string values once and
// answers every later application by lookup: every call of a CallBulk
// request, every iteration of a loop and — when the evaluation reads a
// pinned store version (docres.VersionedResolver) — every later request that
// reads the same version, and the versions after it that value-only
// commits make (see memoTables for the carry rule and the bound).
//
// Everything else is evaluated row-at-a-time, and so is any application
// the index cannot answer exactly as "=" would: a probe value that is
// not a string or untypedAtomic (numeric comparison of "07" and 7), a
// probe expression that raises, fewer than minIndexedCandidates
// candidates, candidates outside the documents the evaluation's
// resolver handed out (constructed or parameter trees, which the tables
// must not retain), and second or later predicates and filter
// expressions (their candidate list depends on what was filtered
// before). Slow, never wrong: Engine.DisablePredIndex forces the
// row-at-a-time evaluation everywhere and is the reference the
// differential tests compare against.

// minIndexedCandidates is the candidate count below which a scan beats
// building a hash table.
const minIndexedCandidates = 16

// maxKeySteps bounds the steps of an indexed key path, so that a key
// path fits a comparable array and a probe builds no key.
const maxKeySteps = 4

var _ docres.VersionedResolver = (*store.Snapshot)(nil)

// memoTables are the steps and predicate indexes computed from one set
// of trees. A version's tables (see docres.VersionedResolver) hold the trees
// of its documents and are shared by every evaluation that reads the
// version; an evaluation's own tables hold the other trees its resolver
// hands out and live as long as it does.
//
// Sharing is sound because an evaluation collects its pending updates
// instead of applying them, and a commit writes a tree in place only
// when no snapshot but the committer's own pins it. Such a commit drops
// the tables of the versions that held the tree (store.Commit), with
// one exception: a commit whose every primitive is a `replace value of`
// that changes no structure hands the superseded version's tables to
// the next version (CarryValues). Structure and names are unchanged,
// and a node test reads only kind and name, so every step entry stays
// true; an index is dropped where a changed node lies at or below a key
// node of one of its candidates. The hand-over runs under the store's
// write lock while the committer's is the only pin, so no reader sees a
// table being edited, and no table is read after its nodes change.
//
// The tables are bounded by what a step costs to recompute (memoStep):
// steps from a document node and steps with at least
// minIndexedCandidates output nodes, which include every index's
// candidate step, are kept; any other step is recomputed. A lineage of
// carried versions so keeps what its readers' scans and indexes need,
// not a step from every row a request ever touched.
//
// Keys are structural, never AST nodes, so every query text or plan
// that spells the same step reuses the entry. mu guards the maps only;
// an entry is computed under its own sync.Once, so a request waits for
// the scan or build of the entry it needs and for no other.
type memoTables struct {
	mu    sync.Mutex
	trees map[int64]bool // the trees whose steps and indexes are kept
	steps map[stepKey]*stepEntry
	preds map[predKey]*predIndex
}

// stepKey names the output of one axis step from one node.
type stepKey struct {
	from *xdm.Node
	axis xdm.Axis
	test xdm.NodeTest
}

type stepEntry struct {
	once sync.Once
	out  []*xdm.Node
}

// predKey names an index: the candidates are the output of step, keyed
// by the string values of the nodes of keyPath's first keyLen steps.
type predKey struct {
	step    stepKey
	keyLen  int
	keyPath [maxKeySteps]keyStep
}

type keyStep struct {
	axis xdm.Axis
	test xdm.NodeTest
}

// predIndex maps a key string value to the ascending, duplicate-free
// positions of the candidates that have it.
type predIndex struct {
	once    sync.Once
	byValue map[string][]int
}

// versionTables builds the tables of r's version: empty, keeping the
// trees of the version's documents.
func versionTables(r docres.VersionedResolver) any {
	t := &memoTables{trees: map[int64]bool{}}
	for _, name := range r.Names() {
		if doc, err := r.Doc(name); err == nil && doc.TreeID() != 0 {
			t.trees[doc.TreeID()] = true
		}
	}
	return t
}

func (t *memoTables) holds(tree int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.trees[tree]
}

func (t *memoTables) note(tree int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.trees == nil {
		t.trees = map[int64]bool{}
	}
	t.trees[tree] = true
}

// entry returns the entry *m holds under k, adding an empty one if there
// is none; mu covers the map and nothing else.
func entry[K comparable, V any](mu *sync.Mutex, m *map[K]*V, k K) *V {
	mu.Lock()
	defer mu.Unlock()
	v := (*m)[k]
	if v == nil {
		if *m == nil {
			*m = map[K]*V{}
		}
		v = new(V)
		(*m)[k] = v
	}
	return v
}

// evalMemo is what the dynamic contexts of one Eval or one CallBulk
// request — for a bulk, all its calls and workers — read and keep their
// steps and indexes through.
type evalMemo struct {
	docs   docres.DocResolver // where the evaluation reads documents from
	shared *memoTables        // the tables of docs' version, or nil
	own    memoTables         // the evaluation's own tables
}

// newEvalMemo starts the memo of one evaluation over docs: with the
// tables of docs' version when docs is a docres.VersionedResolver that still
// carries them, and with its own tables only otherwise.
func newEvalMemo(docs docres.DocResolver) *evalMemo {
	m := &evalMemo{docs: docs}
	if vr, ok := docs.(docres.VersionedResolver); ok {
		m.shared, _ = vr.Derived(func() any { return versionTables(vr) }).(*memoTables)
	}
	return m
}

// Doc implements docres.DocResolver for the evaluation's contexts, noting a
// returned tree that is not the version's as one whose steps and
// indexes the evaluation's own tables may keep.
func (m *evalMemo) Doc(uri string) (*xdm.Node, error) {
	doc, err := m.docs.Doc(uri)
	if err != nil || doc == nil {
		return doc, err
	}
	if id := doc.TreeID(); id != 0 && (m.shared == nil || !m.shared.holds(id)) {
		m.own.note(id)
	}
	return doc, nil
}

// tables returns the tables that keep what is computed from n, or nil
// for a tree no resolver handed out.
func (m *evalMemo) tables(n *xdm.Node) *memoTables {
	id := n.TreeID()
	if m.shared != nil && m.shared.holds(id) {
		return m.shared
	}
	if m.own.holds(id) {
		return &m.own
	}
	return nil
}

// memoStep is xdm.Step memoized per (context node, axis, node test):
// this is what keeps a bulk linear — //person is scanned once, not once
// per call — and, over a version, once for all the requests reading it.
// The returned slice is shared and must not be modified.
//
// Only what is worth holding is kept (see memoTables): a step from a
// document node, such as the //person scan, and a step whose output
// reaches minIndexedCandidates, which is every step an index is built
// on. Any other step, such as a per-row $p/address or $p//city, is
// recomputed.
func (ctx *dynCtx) memoStep(st *xq.Step, n *xdm.Node) []*xdm.Node {
	t := ctx.memo.tables(n)
	if t == nil {
		return xdm.Step(n, st.Axis, st.Test)
	}
	k := stepKey{from: n, axis: st.Axis, test: st.Test}
	t.mu.Lock()
	e := t.steps[k]
	t.mu.Unlock()
	if e == nil && n.Kind != xdm.DocumentNode {
		out := xdm.Step(n, st.Axis, st.Test)
		if len(out) < minIndexedCandidates {
			return out
		}
		e = entry(&t.mu, &t.steps, k)
		e.once.Do(func() { e.out = out })
		return e.out
	}
	if e == nil {
		e = entry(&t.mu, &t.steps, k)
	}
	e.once.Do(func() { e.out = xdm.Step(n, st.Axis, st.Test) })
	return e.out
}

var _ xquf.ValueCarrier = (*memoTables)(nil)

// CarryValues implements xquf.ValueCarrier: it edits the tables of a
// version that a commit superseded into the next version's. changed are
// the nodes whose value the commit replaced, and it changed no structure
// and no name (xquf.ApplyUpdates). Every step entry stays. An index goes
// when a changed node lies at or below a key node of a candidate
// containing it: the key's string value may have changed. It runs under
// the store's write lock (store.Tx.Carry), so no reader holds t.
func (t *memoTables) CarryValues(changed []*xdm.Node) any {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := range t.preds {
		if e := t.steps[k.step]; e == nil || keyChanged(k, e.out, changed) {
			delete(t.preds, k)
		}
	}
	return t
}

// keyChanged reports whether a changed node lies at or below a key node
// of the index k over the candidates cands.
func keyChanged(k predKey, cands, changed []*xdm.Node) bool {
	for _, c := range changed {
		for a := c; a != nil; a = a.Parent {
			if !slices.Contains(cands, a) {
				continue
			}
			keys := []*xdm.Node{a}
			for _, ks := range k.keyPath[:k.keyLen] {
				var next []*xdm.Node
				for _, n := range keys {
					next = append(next, xdm.Step(n, ks.axis, ks.test)...)
				}
				keys = next
			}
			for _, key := range keys {
				for b := c; b != nil; b = b.Parent {
					if b == key {
						return true
					}
				}
			}
		}
	}
	return false
}

// indexCounters is one call's share of Stats.Index*.
type indexCounters struct {
	builds, probes, fallbacks int
}

// tryIndexedPredicate filters cands — the output of step st, whose
// first predicate is pred, taken from node from (memoStep) — by probing
// the hash index; ok is false when the application must be evaluated
// row-at-a-time. Once the index exists an application is one probe.
func (ctx *dynCtx) tryIndexedPredicate(st *xq.Step, from *xdm.Node, cands []*xdm.Node, pred xq.Expr) (out []*xdm.Node, ok bool) {
	if len(cands) < minIndexedCandidates || ctx.eng.DisablePredIndex {
		return nil, false
	}
	keyPath, probe := indexableShape(pred)
	if keyPath == nil || len(keyPath.Steps) > maxKeySteps {
		return nil, false
	}
	t := ctx.memo.tables(from)
	if t == nil {
		return nil, false
	}
	key := predKey{step: stepKey{from: from, axis: st.Axis, test: st.Test}, keyLen: len(keyPath.Steps)}
	for i, ks := range keyPath.Steps {
		key.keyPath[i] = keyStep{axis: ks.Axis, test: ks.Test}
	}
	idx := entry(&t.mu, &t.preds, key)

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
			if f, _, err := xqrt.Builtin(n.Name, len(n.Args)); err == nil && f == nil {
				free = false
			}
		default:
			free = false
		}
	})
	return free
}
