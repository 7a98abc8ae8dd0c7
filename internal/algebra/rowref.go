package algebra

import (
	"fmt"
	"sort"
	"strings"

	"xrpc/internal/xdm"
)

// RowTable is the seed's row-store table layout, kept as the executable
// reference semantics for the columnar engine: every vectorized
// operator must produce exactly the rows its Row* counterpart produces.
// It doubles as the baseline side of the algebra microbenchmarks
// (BenchmarkAlgebra* and `xrpcbench -table algebra`), so the
// row-vs-column contrast stays measurable instead of anecdotal.
type RowTable struct {
	Cols []string
	Rows [][]xdm.Item
}

// NewRowTable creates an empty row-store table with the given columns.
func NewRowTable(cols ...string) *RowTable {
	return &RowTable{Cols: cols}
}

// RowStore converts a columnar table into the row-store layout.
func (t *Table) RowStore() *RowTable {
	out := &RowTable{Cols: append([]string(nil), t.cols...)}
	out.Rows = make([][]xdm.Item, t.n)
	for i := 0; i < t.n; i++ {
		out.Rows[i] = t.Row(i)
	}
	return out
}

// Columnar converts a row-store table into the columnar layout.
func (rt *RowTable) Columnar() *Table {
	out := NewTable(rt.Cols...)
	for _, r := range rt.Rows {
		out.Append(r...)
	}
	return out
}

// ColIdx returns the index of a column, or -1.
func (rt *RowTable) ColIdx(name string) int {
	for i, c := range rt.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

func (rt *RowTable) mustCol(name string) int {
	i := rt.ColIdx(name)
	if i < 0 {
		panic(fmt.Sprintf("algebra: table %v has no column %q", rt.Cols, name))
	}
	return i
}

// Len returns the number of rows.
func (rt *RowTable) Len() int { return len(rt.Rows) }

// String renders the table exactly like Table.String, so columnar and
// row-store results can be compared textually.
func (rt *RowTable) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(rt.Cols, "|"))
	b.WriteByte('\n')
	for _, r := range rt.Rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = cellString(v)
		}
		b.WriteString(strings.Join(parts, "|"))
		b.WriteByte('\n')
	}
	return b.String()
}

// RowSelect is the row-at-a-time σ.
func RowSelect(t *RowTable, col string) *RowTable {
	c := t.mustCol(col)
	out := NewRowTable(t.Cols...)
	for _, r := range t.Rows {
		if b, ok := r[c].(xdm.Boolean); ok && bool(b) {
			out.Rows = append(out.Rows, r)
		}
	}
	return out
}

// RowUnion is the row-at-a-time disjoint ∪.
func RowUnion(a, b *RowTable) *RowTable {
	if len(a.Cols) != len(b.Cols) {
		panic("algebra: union of incompatible schemas")
	}
	out := NewRowTable(a.Cols...)
	out.Rows = append(out.Rows, a.Rows...)
	out.Rows = append(out.Rows, b.Rows...)
	return out
}

// RowJoin is the row-materializing equi-join the seed shipped: it hashes
// the right side, then builds every output row with two appends.
func RowJoin(a, b *RowTable, colA, colB string) *RowTable {
	ca, cb := a.mustCol(colA), b.mustCol(colB)
	cols := append([]string(nil), a.Cols...)
	for _, c := range b.Cols {
		name := c
		for contains(cols, name) {
			name += "'"
		}
		cols = append(cols, name)
	}
	out := NewRowTable(cols...)
	index := map[any][]int{}
	for i, r := range b.Rows {
		k := itemKey(r[cb])
		index[k] = append(index[k], i)
	}
	for _, ra := range a.Rows {
		for _, bi := range index[itemKey(ra[ca])] {
			row := append(append([]xdm.Item(nil), ra...), b.Rows[bi]...)
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// RowRowNum is the row-at-a-time ρ (DENSE_RANK numbering).
func RowRowNum(t *RowTable, newCol string, sortCols []string, partition string) *RowTable {
	sortIdx := make([]int, len(sortCols))
	for i, c := range sortCols {
		sortIdx[i] = t.mustCol(c)
	}
	partIdx := -1
	if partition != "" {
		partIdx = t.mustCol(partition)
	}
	order := make([]int, len(t.Rows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		rx, ry := t.Rows[order[x]], t.Rows[order[y]]
		if partIdx >= 0 {
			c := compareItems(rx[partIdx], ry[partIdx])
			if c != 0 {
				return c < 0
			}
		}
		for _, si := range sortIdx {
			c := compareItems(rx[si], ry[si])
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	out := NewRowTable(append(append([]string(nil), t.Cols...), newCol)...)
	out.Rows = make([][]xdm.Item, len(t.Rows))
	var lastPart any = struct{}{}
	n := int64(0)
	for _, ri := range order {
		r := t.Rows[ri]
		if partIdx >= 0 {
			pk := itemKey(r[partIdx])
			if pk != lastPart {
				lastPart = pk
				n = 0
			}
		}
		n++
		out.Rows[ri] = append(append([]xdm.Item(nil), r...), xdm.Integer(n))
	}
	return out
}

// RowSortBy is the row-at-a-time stable sort.
func RowSortBy(t *RowTable, cols ...string) *RowTable {
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = t.mustCol(c)
	}
	out := &RowTable{Cols: append([]string(nil), t.Cols...)}
	out.Rows = make([][]xdm.Item, len(t.Rows))
	copy(out.Rows, t.Rows)
	sort.SliceStable(out.Rows, func(x, y int) bool {
		for _, ci := range idx {
			c := compareItems(out.Rows[x][ci], out.Rows[y][ci])
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}
