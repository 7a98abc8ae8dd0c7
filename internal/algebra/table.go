// Package algebra implements the vanilla relational algebra that the
// Pathfinder compiler targets — the operators of Table 1 of the paper
// that its plans build: selection σ, projection π (with renaming, no
// duplicate removal), disjoint union ∪, equi-join ⋈, row numbering ρ
// (DENSE_RANK), and literal tables. Table 1's duplicate elimination δ
// has no operator here: the one δ a plan needs, over remote calls, is
// folded by the execute-at lowering itself.
//
// XQuery sequences are represented as tables with schema iter|pos|item
// (§3.1): iter is the loop iteration, pos the position within the
// iteration's sequence, item the value. Like the paper's MonetDB
// back-end, storage is columnar: a Table is a set of typed column
// vectors (dense []int64 for integer columns such as iter/pos, generic
// []xdm.Item otherwise), and the operators are vectorized — they build
// selection vectors and gather or share whole columns instead of
// materializing rows. The seed's row-store implementation survives as
// the RowTable reference in rowref.go; the two must agree exactly.
package algebra

import (
	"fmt"
	"strings"

	"xrpc/internal/xdm"
)

// Standard column names for loop-lifted sequence tables.
const (
	ColIter = "iter"
	ColPos  = "pos"
	ColItem = "item"
)

// Table is a relational table: named, typed column vectors.
// Integer-valued columns (iter, pos) hold xdm.Integer values in a dense
// []int64 vector.
//
// Tables returned by operators may share column vectors with their
// inputs (π is zero-copy) and are immutable: Append only works on
// freshly constructed tables (NewTable/Lit) and panics on an operator
// output.
type Table struct {
	cols   []string
	vecs   []*vec
	n      int
	frozen bool
}

// NewTable creates an empty table with the given columns.
func NewTable(cols ...string) *Table {
	vecs := make([]*vec, len(cols))
	for i := range vecs {
		vecs[i] = &vec{}
	}
	return &Table{cols: cols, vecs: vecs}
}

// derived builds an operator output over pre-built column vectors.
func derived(cols []string, vecs []*vec, n int) *Table {
	return &Table{cols: cols, vecs: vecs, n: n, frozen: true}
}

// Cols returns the column names (callers must not modify the slice).
func (t *Table) Cols() []string { return t.cols }

// ColIdx returns the index of a column, or -1.
func (t *Table) ColIdx(name string) int {
	for i, c := range t.cols {
		if c == name {
			return i
		}
	}
	return -1
}

func (t *Table) mustCol(name string) int {
	i := t.ColIdx(name)
	if i < 0 {
		panic(fmt.Sprintf("algebra: table %v has no column %q", t.cols, name))
	}
	return i
}

// Append adds a row (must match the column count).
func (t *Table) Append(row ...xdm.Item) {
	if t.frozen {
		panic("algebra: Append on an operator output (shared column vectors)")
	}
	if len(row) != len(t.cols) {
		panic(fmt.Sprintf("algebra: row width %d != %d columns", len(row), len(t.cols)))
	}
	for i, it := range row {
		t.vecs[i].appendItem(it)
	}
	t.n++
}

// AppendSeq adds one (iter, pos, item) row to an iter|pos|item table
// without boxing the integer columns — the hot append path of the
// loop-lifting compiler.
func (t *Table) AppendSeq(iter, pos int64, item xdm.Item) {
	if t.frozen {
		panic("algebra: Append on an operator output (shared column vectors)")
	}
	if len(t.cols) != 3 {
		panic(fmt.Sprintf("algebra: AppendSeq on a %d-column table", len(t.cols)))
	}
	t.vecs[0].appendInt(iter)
	t.vecs[1].appendInt(pos)
	t.vecs[2].appendItem(item)
	t.n++
}

// Len returns the number of rows.
func (t *Table) Len() int { return t.n }

// Item reads one cell.
func (t *Table) Item(row, col int) xdm.Item {
	return t.vecs[col].item(row)
}

// Int reads an integer cell.
func (t *Table) Int(row, col int) int64 {
	return t.vecs[col].int64At(row)
}

// Ints returns a whole integer column as []int64, bounded to the
// table's row count (a shared vector may have grown past it if the
// sharing table's source was appended to). For a dense column this
// aliases the live vector, so callers must treat it as read-only.
func (t *Table) Ints(col int) []int64 {
	return t.vecs[col].int64s()[:t.n:t.n]
}

// IntsOf is Ints by column name.
func (t *Table) IntsOf(name string) []int64 {
	return t.Ints(t.mustCol(name))
}

// Row materializes one row (for debugging and tests).
func (t *Table) Row(row int) []xdm.Item {
	out := make([]xdm.Item, len(t.vecs))
	for i, v := range t.vecs {
		out[i] = v.item(row)
	}
	return out
}

// gatherRows builds a new table holding the selected rows of t — the
// shared materialization step of every selection-vector operator.
func (t *Table) gatherRows(sel []int32) *Table {
	vecs := make([]*vec, len(t.vecs))
	for i, v := range t.vecs {
		vecs[i] = v.gather(sel)
	}
	return derived(t.cols, vecs, len(sel))
}

// Where keeps the rows for which pred returns true (pred receives the
// row index). It is the generic vectorized filter the runtime uses for
// loop restriction (semi-joins on iter).
func Where(t *Table, pred func(row int) bool) *Table {
	sel := make([]int32, 0, t.n)
	for i := 0; i < t.n; i++ {
		if pred(i) {
			sel = append(sel, int32(i))
		}
	}
	return t.gatherRows(sel)
}

// String renders the table for debugging and for the Figure 1
// experiment output.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.cols, "|"))
	b.WriteByte('\n')
	for r := 0; r < t.n; r++ {
		parts := make([]string, len(t.vecs))
		for i, v := range t.vecs {
			parts[i] = cellString(v.item(r))
		}
		b.WriteString(strings.Join(parts, "|"))
		b.WriteByte('\n')
	}
	return b.String()
}

func cellString(v xdm.Item) string {
	if v == nil {
		return "·"
	}
	if n, ok := v.(*xdm.Node); ok {
		return xdm.SerializeNode(n)
	}
	return v.StringValue()
}

// Lit builds a literal table from rows.
func Lit(cols []string, rows ...[]xdm.Item) *Table {
	t := NewTable(cols...)
	for _, r := range rows {
		t.Append(r...)
	}
	return t
}
