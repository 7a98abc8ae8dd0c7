package algebra

import (
	"strings"

	"xrpc/internal/xdm"
)

// vec is one column vector — the reproduction's analogue of a MonetDB
// BAT tail. A vector is in exactly one of two representations:
//
//   - dense:   a []int64, used while every value appended is an
//     xdm.Integer (the iter/pos columns of loop-lifted tables live here
//     permanently);
//   - generic: a []xdm.Item, for everything else.
//
// A dense vector degrades to generic on the first non-integer append;
// it never upgrades back. All operator outputs gather (copy) or share
// whole vectors — there is no row-at-a-time materialization.
type vec struct {
	ints  []int64
	items []xdm.Item
}

// dense reports whether the vector is in the dense integer
// representation (the empty vector is dense).
func (v *vec) dense() bool { return v.items == nil }

func (v *vec) len() int {
	if v.items != nil {
		return len(v.items)
	}
	return len(v.ints)
}

// degrade converts a dense vector to the generic representation.
func (v *vec) degrade() {
	items := make([]xdm.Item, len(v.ints))
	for i, n := range v.ints {
		items[i] = xdm.Integer(n)
	}
	v.items = items
	v.ints = nil
}

// appendItem appends one value, keeping the dense representation when
// possible.
func (v *vec) appendItem(it xdm.Item) {
	if v.items == nil {
		if n, ok := it.(xdm.Integer); ok {
			v.ints = append(v.ints, int64(n))
			return
		}
		v.degrade()
	}
	v.items = append(v.items, it)
}

func (v *vec) appendInt(n int64) {
	if v.items == nil {
		v.ints = append(v.ints, n)
		return
	}
	v.items = append(v.items, xdm.Integer(n))
}

// item returns row i as an xdm.Item.
func (v *vec) item(i int) xdm.Item {
	if v.items != nil {
		return v.items[i]
	}
	return xdm.Integer(v.ints[i])
}

// int64At returns row i as an int64; the value must be an xdm.Integer.
func (v *vec) int64At(i int) int64 {
	if v.items != nil {
		return int64(v.items[i].(xdm.Integer))
	}
	return v.ints[i]
}

// int64s returns the whole column as []int64. For a dense vector this is
// the live internal slice (callers must not modify it); a generic vector
// is converted, requiring every value to be an xdm.Integer.
func (v *vec) int64s() []int64 {
	if v.items == nil {
		return v.ints
	}
	out := make([]int64, len(v.items))
	for i, it := range v.items {
		out[i] = int64(it.(xdm.Integer))
	}
	return out
}

// key returns the grouping/join key of row i (same equality as itemKey).
func (v *vec) key(i int) any {
	if v.items != nil {
		return itemKey(v.items[i])
	}
	return v.ints[i]
}

// gather builds a new vector holding rows sel[0], sel[1], … — the
// selection-vector primitive every filtering operator is built on.
func (v *vec) gather(sel []int32) *vec {
	if v.items == nil {
		out := make([]int64, len(sel))
		for i, s := range sel {
			out[i] = v.ints[s]
		}
		return &vec{ints: out}
	}
	out := make([]xdm.Item, len(sel))
	for i, s := range sel {
		out[i] = v.items[s]
	}
	return &vec{items: out}
}

// concatAll concatenates vectors in one pass; the result is dense iff
// every part is. A single part is shared, not copied (operator outputs
// are frozen, so sharing is safe).
func concatAll(parts []*vec) *vec {
	if len(parts) == 1 {
		return parts[0]
	}
	total := 0
	dense := true
	for _, p := range parts {
		total += p.len()
		if !p.dense() {
			dense = false
		}
	}
	if dense {
		out := make([]int64, 0, total)
		for _, p := range parts {
			out = append(out, p.ints...)
		}
		return &vec{ints: out}
	}
	out := make([]xdm.Item, 0, total)
	for _, p := range parts {
		for i := 0; i < p.len(); i++ {
			out = append(out, p.item(i))
		}
	}
	return &vec{items: out}
}

// itemKey builds a comparable key for grouping/dedup.
func itemKey(it xdm.Item) any {
	switch v := it.(type) {
	case nil:
		return nil
	case *xdm.Node:
		return v
	case xdm.Integer:
		return int64(v)
	case xdm.Double:
		return float64(v)
	case xdm.Decimal:
		return "d:" + v.StringValue()
	case xdm.Boolean:
		return bool(v)
	default:
		return it.TypeName() + ":" + it.StringValue()
	}
}

// compareItems orders items for ρ and sorting: numerics numerically,
// nodes by document order, everything else by string value.
func compareItems(a, b xdm.Item) int {
	an, aIsN := a.(*xdm.Node)
	bn, bIsN := b.(*xdm.Node)
	if aIsN && bIsN {
		if an == bn {
			return 0
		}
		if xdm.DocOrderLess(an, bn) {
			return -1
		}
		return 1
	}
	fa, aOK := xdm.NumericValue(a)
	fb, bOK := xdm.NumericValue(b)
	if aOK && bOK {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a.StringValue(), b.StringValue())
}
