package algebra

import (
	"sort"
	"strings"

	"xrpc/internal/xdm"
)

// ------------------------------------------------------------ operators

// Select (σ) keeps rows whose named boolean column is true.
func Select(t *Table, col string) *Table {
	v := t.vecs[t.mustCol(col)]
	sel := make([]int32, 0, t.n)
	if v.items != nil {
		for i, it := range v.items {
			if b, ok := it.(xdm.Boolean); ok && bool(b) {
				sel = append(sel, int32(i))
			}
		}
	}
	// a dense column holds only integers: no row matches
	return t.gatherRows(sel)
}

// Project (π) projects and optionally renames columns: each spec is
// either "col" or "new:old". No duplicate removal — and no copying: the
// output shares the input's column vectors.
func Project(t *Table, specs ...string) *Table {
	cols := make([]string, len(specs))
	vecs := make([]*vec, len(specs))
	for i, s := range specs {
		to, from := s, s
		if j := strings.IndexByte(s, ':'); j >= 0 {
			to, from = s[:j], s[j+1:]
		}
		cols[i] = to
		vecs[i] = t.vecs[t.mustCol(from)]
	}
	return derived(cols, vecs, t.n)
}

// Union (∪) is disjoint union: schemas must match.
func Union(a, b *Table) *Table {
	return UnionAll(a, b)
}

// UnionAll unions any number of tables in one pass.
func UnionAll(tables ...*Table) *Table {
	if len(tables) == 0 {
		return NewTable()
	}
	cols := tables[0].cols
	n := 0
	for _, t := range tables {
		if len(t.cols) != len(cols) {
			panic("algebra: union of incompatible schemas")
		}
		n += t.n
	}
	vecs := make([]*vec, len(cols))
	parts := make([]*vec, len(tables))
	for i := range vecs {
		for j, t := range tables {
			parts[j] = t.vecs[i]
		}
		vecs[i] = concatAll(parts)
	}
	return derived(cols, vecs, n)
}

// Join (⋈) is a hash equi-join on a.colA = b.colB. Columns of b are
// suffixed with "'" when they collide with a's. The build side hashes
// b's key column; the probe emits a pair of selection vectors that are
// gathered per column — no per-row materialization. Dense integer key
// columns (the iter joins of loop lifting) skip boxing entirely.
func Join(a, b *Table, colA, colB string) *Table {
	ka, kb := a.vecs[a.mustCol(colA)], b.vecs[b.mustCol(colB)]
	cols := append([]string(nil), a.cols...)
	for _, c := range b.cols {
		name := c
		for contains(cols, name) {
			name += "'"
		}
		cols = append(cols, name)
	}
	var lsel, rsel []int32
	if ka.dense() && kb.dense() {
		index := make(map[int64][]int32, len(kb.ints))
		for i, k := range kb.ints {
			index[k] = append(index[k], int32(i))
		}
		for i, k := range ka.ints {
			for _, bi := range index[k] {
				lsel = append(lsel, int32(i))
				rsel = append(rsel, bi)
			}
		}
	} else {
		index := make(map[any][]int32, kb.len())
		for i := 0; i < kb.len(); i++ {
			k := kb.key(i)
			index[k] = append(index[k], int32(i))
		}
		for i := 0; i < ka.len(); i++ {
			for _, bi := range index[ka.key(i)] {
				lsel = append(lsel, int32(i))
				rsel = append(rsel, bi)
			}
		}
	}
	vecs := make([]*vec, 0, len(a.vecs)+len(b.vecs))
	for _, v := range a.vecs {
		vecs = append(vecs, v.gather(lsel))
	}
	for _, v := range b.vecs {
		vecs = append(vecs, v.gather(rsel))
	}
	return derived(cols, vecs, len(lsel))
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// RowNum (ρ) implements DENSE_RANK-style row numbering: rows are ordered
// by the sort columns, then numbered consecutively from 1 within each
// partition (partition column "" means a single partition). The numbers
// land in a new dense column named newCol; the input's columns are
// shared, not copied, and rows keep their original order.
func RowNum(t *Table, newCol string, sortCols []string, partition string) *Table {
	keyVecs := make([]*vec, 0, len(sortCols)+1)
	var partVec *vec
	if partition != "" {
		partVec = t.vecs[t.mustCol(partition)]
		keyVecs = append(keyVecs, partVec)
	}
	for _, c := range sortCols {
		keyVecs = append(keyVecs, t.vecs[t.mustCol(c)])
	}
	order := sortPerm(t.n, keyVecs)
	ranks := make([]int64, t.n)
	var lastPart any = struct{}{}
	n := int64(0)
	for _, ri := range order {
		if partVec != nil {
			pk := partVec.key(int(ri))
			if pk != lastPart {
				lastPart = pk
				n = 0
			}
		}
		n++
		ranks[ri] = n
	}
	cols := append(append([]string(nil), t.cols...), newCol)
	vecs := append(append([]*vec(nil), t.vecs...), &vec{ints: ranks})
	return derived(cols, vecs, t.n)
}

// sortPerm returns a stable permutation ordering rows by the given key
// vectors. All-dense key sets (iter/pos sorts, the loop-lifting hot
// path) compare raw int64s; otherwise compareItems drives the sort.
func sortPerm(n int, keyVecs []*vec) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	allDense := true
	for _, v := range keyVecs {
		if !v.dense() {
			allDense = false
			break
		}
	}
	if allDense {
		sort.SliceStable(order, func(x, y int) bool {
			rx, ry := order[x], order[y]
			for _, v := range keyVecs {
				a, b := v.ints[rx], v.ints[ry]
				if a != b {
					return a < b
				}
			}
			return false
		})
		return order
	}
	sort.SliceStable(order, func(x, y int) bool {
		rx, ry := int(order[x]), int(order[y])
		for _, v := range keyVecs {
			c := compareItems(v.item(rx), v.item(ry))
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return order
}

// IsSortedBy reports whether the rows are already ordered by the given
// columns.
func IsSortedBy(t *Table, cols ...string) bool {
	keyVecs := make([]*vec, len(cols))
	allDense := true
	for i, c := range cols {
		keyVecs[i] = t.vecs[t.mustCol(c)]
		if !keyVecs[i].dense() {
			allDense = false
		}
	}
	if allDense {
		for r := 1; r < t.n; r++ {
			for _, v := range keyVecs {
				a, b := v.ints[r-1], v.ints[r]
				if a < b {
					break
				}
				if a > b {
					return false
				}
			}
		}
		return true
	}
	for r := 1; r < t.n; r++ {
		for _, v := range keyVecs {
			c := compareItems(v.item(r-1), v.item(r))
			if c < 0 {
				break
			}
			if c > 0 {
				return false
			}
		}
	}
	return true
}

// SortBy returns the rows sorted by the given columns (stable); used for
// producing final sequence order (iter, pos). Tables are treated as
// immutable by all operators, so an already-sorted input is returned
// unchanged (no copy).
func SortBy(t *Table, cols ...string) *Table {
	if IsSortedBy(t, cols...) {
		return t
	}
	keyVecs := make([]*vec, len(cols))
	for i, c := range cols {
		keyVecs[i] = t.vecs[t.mustCol(c)]
	}
	return t.gatherRows(sortPerm(t.n, keyVecs))
}
