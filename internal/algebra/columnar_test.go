package algebra

// Differential tests pinning the columnar operators to the row-store
// reference semantics (rowref.go): every operator must produce exactly
// the rows — values and order — that the seed's row-at-a-time
// implementation produces, including on the edge cases the vectorized
// paths are most likely to get wrong (empty inputs, duplicate join
// keys, all-duplicate δ inputs, mixed dense/generic key columns).

import (
	"fmt"
	"testing"

	"xrpc/internal/xdm"
)

// assertGolden compares a columnar result to the row-store result
// textually (Table.String and RowTable.String render identically).
func assertGolden(t *testing.T, what string, got *Table, want *RowTable) {
	t.Helper()
	if g, w := got.String(), want.String(); g != w {
		t.Errorf("%s:\ncolumnar:\n%s\nrow-store golden:\n%s", what, g, w)
	}
}

// seqTab builds an iter|pos|item table of n rows with iters cycling
// 1..groups and string items.
func seqTab(n, groups int) *Table {
	t := NewTable(ColIter, ColPos, ColItem)
	pos := map[int64]int64{}
	for r := 0; r < n; r++ {
		it := int64(r%groups) + 1
		pos[it]++
		t.AppendSeq(it, pos[it], xdm.String(fmt.Sprintf("v%d", r)))
	}
	return t
}

func TestGoldenEmptyTables(t *testing.T) {
	empty := NewTable(ColIter, ColPos, ColItem)
	re := empty.RowStore()
	assertGolden(t, "σ empty", Select(NewTable("b"), "b"), RowSelect(NewRowTable("b"), "b"))
	assertGolden(t, "π empty", Project(empty, "pos", "x:item"), &RowTable{Cols: []string{"pos", "x"}})
	assertGolden(t, "∪ empty", Union(empty, empty), RowUnion(re, re))
	assertGolden(t, "⋈ empty", Join(empty, empty, ColIter, ColIter), RowJoin(re, re, ColIter, ColIter))
	assertGolden(t, "ρ empty", RowNum(empty, "n", []string{ColPos}, ColIter),
		RowRowNum(re, "n", []string{ColPos}, ColIter))
	assertGolden(t, "sort empty", SortBy(empty, ColIter, ColPos), RowSortBy(re, ColIter, ColPos))
	// empty ⋈ non-empty in both argument positions
	some := seqTab(5, 2)
	rs := some.RowStore()
	assertGolden(t, "empty ⋈ t", Join(empty, some, ColIter, ColIter), RowJoin(re, rs, ColIter, ColIter))
	assertGolden(t, "t ⋈ empty", Join(some, empty, ColIter, ColIter), RowJoin(rs, re, ColIter, ColIter))
}

func TestGoldenJoinDuplicateKeys(t *testing.T) {
	// both sides carry duplicate keys: output is the full per-key cross
	// product, in left-row-major, right-appearance order
	left := Lit([]string{"k", "l"},
		[]xdm.Item{i(1), s("l1")},
		[]xdm.Item{i(2), s("l2")},
		[]xdm.Item{i(1), s("l3")},
		[]xdm.Item{i(3), s("l4")},
	)
	right := Lit([]string{"k", "r"},
		[]xdm.Item{i(1), s("r1")},
		[]xdm.Item{i(1), s("r2")},
		[]xdm.Item{i(2), s("r3")},
	)
	got := Join(left, right, "k", "k")
	want := RowJoin(left.RowStore(), right.RowStore(), "k", "k")
	if got.Len() != 5 { // 2×2 for k=1, 1×1 for k=2, 0 for k=3
		t.Fatalf("join rows = %d, want 5", got.Len())
	}
	assertGolden(t, "⋈ dup keys", got, want)
	// string (generic) keys take the hash path, not the dense path
	sl := Lit([]string{"k"}, []xdm.Item{s("a")}, []xdm.Item{s("a")}, []xdm.Item{s("b")})
	sr := Lit([]string{"k"}, []xdm.Item{s("a")}, []xdm.Item{s("c")})
	assertGolden(t, "⋈ generic dup keys", Join(sl, sr, "k", "k"),
		RowJoin(sl.RowStore(), sr.RowStore(), "k", "k"))
	// mixed: dense left key column, generic right key column
	ml := Lit([]string{"k"}, []xdm.Item{i(1)}, []xdm.Item{i(2)})
	mr := Lit([]string{"k", "x"}, []xdm.Item{s("nope"), s("a")}, []xdm.Item{i(2), s("b")})
	assertGolden(t, "⋈ mixed key reps", Join(ml, mr, "k", "k"),
		RowJoin(ml.RowStore(), mr.RowStore(), "k", "k"))
}

func TestGoldenRowNumEmptyAndPartitions(t *testing.T) {
	// ρ over a table whose partition column exists but has no rows
	empty := NewTable(ColIter, ColPos, ColItem)
	got := RowNum(empty, "n", []string{ColPos}, ColIter)
	if got.Len() != 0 || got.ColIdx("n") != 3 {
		t.Fatalf("ρ on empty = %d rows, cols %v", got.Len(), got.Cols())
	}
	// partitioned numbering restarts at 1 per partition and is stable
	tb := seqTab(17, 3)
	assertGolden(t, "ρ partitioned", RowNum(tb, "n", []string{ColPos}, ColIter),
		RowRowNum(tb.RowStore(), "n", []string{ColPos}, ColIter))
	// generic partition column (strings) uses the item-compare sort path
	g := Lit([]string{"p", "v"},
		[]xdm.Item{s("b"), i(2)},
		[]xdm.Item{s("a"), i(9)},
		[]xdm.Item{s("b"), i(1)},
		[]xdm.Item{s("a"), i(9)}, // tie: stability matters
	)
	assertGolden(t, "ρ generic partition", RowNum(g, "n", []string{"v"}, "p"),
		RowRowNum(g.RowStore(), "n", []string{"v"}, "p"))
}

func TestGoldenPipeline(t *testing.T) {
	// the loop-lifting inner pipeline (liftLoop/mapBack shape): number,
	// project, join on iter, renumber, sort — exactly as pathfinder
	// composes it
	q1 := seqTab(23, 4)
	rq1 := q1.RowStore()

	numbered := RowNum(q1, "inner", []string{ColIter, ColPos}, "")
	rnumbered := RowRowNum(rq1, "inner", []string{ColIter, ColPos}, "")
	assertGolden(t, "lift ρ", numbered, rnumbered)

	mapTbl := Project(numbered, "inner:inner", "outer:iter")
	joined := Join(q1, mapTbl, ColIter, "inner")
	// row-store analogue of the same projection + join
	rmap := NewRowTable("inner", "outer")
	ii, oi := rnumbered.mustCol("inner"), rnumbered.mustCol("iter")
	for _, r := range rnumbered.Rows {
		rmap.Rows = append(rmap.Rows, []xdm.Item{r[ii], r[oi]})
	}
	rjoined := RowJoin(rq1, rmap, ColIter, "inner")
	assertGolden(t, "lift ⋈", joined, rjoined)

	ranked := RowNum(joined, "newpos", []string{ColIter, ColPos}, "outer")
	rranked := RowRowNum(rjoined, "newpos", []string{ColIter, ColPos}, "outer")
	assertGolden(t, "mapback ρ", ranked, rranked)

	final := SortBy(Project(ranked, "iter:outer", "pos:newpos", ColItem), ColIter, ColPos)
	rfinal := NewRowTable(ColIter, ColPos, ColItem)
	o, np, xc := rranked.mustCol("outer"), rranked.mustCol("newpos"), rranked.mustCol(ColItem)
	for _, r := range rranked.Rows {
		rfinal.Rows = append(rfinal.Rows, []xdm.Item{r[o], r[np], r[xc]})
	}
	assertGolden(t, "final sort", final, RowSortBy(rfinal, ColIter, ColPos))
}

func TestWhere(t *testing.T) {
	tb := seqTab(10, 3)
	iters := tb.IntsOf(ColIter)
	got := Where(tb, func(row int) bool { return iters[row] == 2 })
	for r := 0; r < got.Len(); r++ {
		if got.Int(r, 0) != 2 {
			t.Fatalf("Where kept iter %d", got.Int(r, 0))
		}
	}
	if got.Len() != 3 {
		t.Errorf("Where kept %d rows, want 3", got.Len())
	}
	if empty := Where(tb, func(int) bool { return false }); empty.Len() != 0 {
		t.Errorf("Where(false) = %d rows", empty.Len())
	}
}

func TestRoundTripRowStore(t *testing.T) {
	tb := seqTab(9, 2)
	back := tb.RowStore().Columnar()
	if tb.String() != back.String() {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", tb, back)
	}
}
