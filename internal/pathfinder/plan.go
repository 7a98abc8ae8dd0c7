// Package pathfinder implements the loop-lifting XQuery compiler of §3.1
// of the paper: queries are translated bottom-up into plans over the
// relational algebra of internal/algebra, with every intermediate result
// represented as an iter|pos|item table. Nested for-loops disappear into
// bulk plans; an `execute at` inside a for-loop therefore turns into a
// single Bulk RPC per destination peer — the translation rule of
// Figure 2, with the map/req/msg/res intermediate tables of Figure 1.
//
// In the reproduction this package plays the role of
// Pathfinder/MonetDB-XQuery; the tree-walking interpreter
// (internal/interp) is the reference semantics it must agree with.
package pathfinder

import (
	"xrpc/internal/algebra"
	"xrpc/internal/client"
	"xrpc/internal/interp"
	"xrpc/internal/xdm"
)

// BulkCaller sends one Bulk RPC to one destination; the engine owns the
// one-at-a-time loop and the multi-destination fan-out (executeat.go).
// *client.Client and the cluster coordinator implement it.
type BulkCaller interface {
	CallBulk(dest string, br *client.BulkRequest) ([]xdm.Sequence, error)
}

// ExecCtx carries the runtime services of one evaluation.
type ExecCtx struct {
	// Docs resolves fn:doc.
	Docs interp.DocResolver
	// Bulk performs XRPC calls (nil disables execute at).
	Bulk BulkCaller
	// OneAtATime switches execute-at dispatch to one RPC per iteration —
	// the comparison mechanism of Table 2.
	OneAtATime bool
	// NoDedup disables δ over identical read-only calls (for the
	// ablation benchmarks).
	NoDedup bool
	// Trace, when non-nil, captures the Figure 1 intermediate tables of
	// every execute-at evaluation.
	Trace *Trace
	// Joins, when non-nil, receives what the join rule (join.go) did.
	Joins *JoinStats

	// seqSite numbers execute-at evaluations within one query, giving
	// each site a disjoint block of update sequence numbers (the
	// deterministic-update-order extension).
	seqSite int64
}

func (ec *ExecCtx) nextSeqSite() int64 {
	ec.seqSite++
	return ec.seqSite
}

// Trace records the intermediate tables of Bulk RPC translation for the
// Figure 1 experiment.
type Trace struct {
	// Dst is the loop-lifted destination table.
	Dst *algebra.Table
	// PerPeer holds one entry per unique destination peer.
	PerPeer []*PeerTrace
	// Result is the final re-united iter|pos|item table.
	Result *algebra.Table
}

// PeerTrace is one peer's share of a traced Bulk RPC.
type PeerTrace struct {
	Peer string
	// Map is the iter|iterp mapping table (map_p in Figure 1).
	Map *algebra.Table
	// Req holds one iterp|pos|item table per parameter (req_p).
	Req []*algebra.Table
	// Msg is the iterp|pos|item table shredded from the response
	// (msg_p).
	Msg *algebra.Table
	// Res is the mapped-back iter|pos|item table (res_p).
	Res *algebra.Table
}

// scope is the runtime scope of a plan: the loop relation (column iter)
// and the live loop-lifted variable tables, all aligned to it.
type scope struct {
	loop *algebra.Table
	vars map[string]*algebra.Table
}

func newScope(loop *algebra.Table) *scope {
	return &scope{loop: loop, vars: map[string]*algebra.Table{}}
}

// bind returns a child scope with one more variable.
func (sc *scope) bind(name string, tbl *algebra.Table) *scope {
	vars := make(map[string]*algebra.Table, len(sc.vars)+1)
	for k, v := range sc.vars {
		vars[k] = v
	}
	vars[name] = tbl
	return &scope{loop: sc.loop, vars: vars}
}

// restrict narrows the scope to a sub-loop: variable tables are
// semi-joined on iter so no rows from pruned iterations survive.
func (sc *scope) restrict(loop *algebra.Table) *scope {
	keep := map[int64]bool{}
	for _, it := range loop.IntsOf(algebra.ColIter) {
		keep[it] = true
	}
	vars := make(map[string]*algebra.Table, len(sc.vars))
	for name, tbl := range sc.vars {
		iters := tbl.IntsOf(algebra.ColIter)
		vars[name] = algebra.Where(tbl, func(row int) bool { return keep[iters[row]] })
	}
	return &scope{loop: loop, vars: vars}
}

// Plan is an executable loop-lifted sub-plan: it produces an
// iter|pos|item table whose iter values come from the scope's loop.
type Plan func(ec *ExecCtx, sc *scope) (*algebra.Table, error)

// seqTable creates an empty iter|pos|item table.
func seqTable() *algebra.Table {
	return algebra.NewTable(algebra.ColIter, algebra.ColPos, algebra.ColItem)
}

// constPlan lifts a constant over the loop: one row (iter, 1, c) per
// iteration.
func constPlan(c xdm.Item) Plan {
	return func(_ *ExecCtx, sc *scope) (*algebra.Table, error) {
		out := seqTable()
		for _, it := range itersOf(sc.loop) {
			out.AppendSeq(it, 1, c)
		}
		return out, nil
	}
}

// emptyPlan is the empty sequence at every iteration.
func emptyPlan() Plan {
	return func(_ *ExecCtx, _ *scope) (*algebra.Table, error) {
		return seqTable(), nil
	}
}

// itersOf extracts the set of iter values of a table in loop order. The
// returned slice may alias the table's dense iter vector: read-only.
func itersOf(loop *algebra.Table) []int64 {
	return loop.IntsOf(algebra.ColIter)
}

// groupByIter partitions a sorted iter|pos|item table into per-iter
// sequences.
func groupByIter(t *algebra.Table) map[int64]xdm.Sequence {
	sorted := algebra.SortBy(t, algebra.ColIter, algebra.ColPos)
	iters := sorted.IntsOf(algebra.ColIter)
	xc := sorted.ColIdx(algebra.ColItem)
	out := map[int64]xdm.Sequence{}
	for r, it := range iters {
		out[it] = append(out[it], sorted.Item(r, xc))
	}
	return out
}

// tableFromSeqs builds an iter|pos|item table from per-iter sequences,
// emitting iters in the given order.
func tableFromSeqs(iters []int64, seqs map[int64]xdm.Sequence) *algebra.Table {
	out := seqTable()
	for _, it := range iters {
		for p, item := range seqs[it] {
			out.AppendSeq(it, int64(p+1), item)
		}
	}
	return out
}

// singletonByIter checks that every iteration has at most one row and
// returns item-by-iter (missing iter = empty).
func singletonByIter(t *algebra.Table, what string) (map[int64]xdm.Item, error) {
	iters := t.IntsOf(algebra.ColIter)
	xc := t.ColIdx(algebra.ColItem)
	out := map[int64]xdm.Item{}
	for r, it := range iters {
		if _, dup := out[it]; dup {
			return nil, xdm.Errorf("XPTY0004", "%s is not a singleton in some iteration", what)
		}
		out[it] = t.Item(r, xc)
	}
	return out, nil
}

// ebvByIter computes the effective boolean value per iteration.
func ebvByIter(t *algebra.Table) (map[int64]bool, error) {
	out := map[int64]bool{}
	for it, seq := range groupByIter(t) {
		b, err := xdm.EffectiveBoolean(seq)
		if err != nil {
			return nil, err
		}
		out[it] = b
	}
	return out, nil
}

// subLoop returns the loop restricted to iters where keep is true (or
// false when negate).
func subLoop(loop *algebra.Table, keep map[int64]bool, want bool) *algebra.Table {
	iters := loop.IntsOf(algebra.ColIter)
	return algebra.Where(loop, func(row int) bool { return keep[iters[row]] == want })
}
