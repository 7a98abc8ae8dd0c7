package algebra

import (
	"testing"
	"testing/quick"

	"xrpc/internal/xdm"
)

func i(v int64) xdm.Item  { return xdm.Integer(v) }
func s(v string) xdm.Item { return xdm.String(v) }
func b(v bool) xdm.Item   { return xdm.Boolean(v) }

func sampleTable() *Table {
	return Lit([]string{"iter", "pos", "item"},
		[]xdm.Item{i(1), i(1), s("a")},
		[]xdm.Item{i(1), i(2), s("b")},
		[]xdm.Item{i(2), i(1), s("c")},
	)
}

func TestProjectRename(t *testing.T) {
	tb := sampleTable()
	p := Project(tb, "x:item", "iter")
	if len(p.Cols()) != 2 || p.Cols()[0] != "x" || p.Cols()[1] != "iter" {
		t.Fatalf("cols = %v", p.Cols())
	}
	if p.Item(0, 0).StringValue() != "a" {
		t.Errorf("row 0 = %v", p.Row(0))
	}
	// projection does not remove duplicates
	dup := Lit([]string{"a", "b"},
		[]xdm.Item{i(1), i(2)},
		[]xdm.Item{i(1), i(3)},
	)
	if got := Project(dup, "a").Len(); got != 2 {
		t.Errorf("project dedup'd: %d rows", got)
	}
}

func TestSelect(t *testing.T) {
	tb := Lit([]string{"v", "keep"},
		[]xdm.Item{i(1), b(true)},
		[]xdm.Item{i(2), b(false)},
		[]xdm.Item{i(3), b(true)},
	)
	if got := Select(tb, "keep").Len(); got != 2 {
		t.Errorf("select = %d rows", got)
	}
}

func TestUnion(t *testing.T) {
	a := Lit([]string{"v"}, []xdm.Item{i(1)})
	bt := Lit([]string{"v"}, []xdm.Item{i(2)}, []xdm.Item{i(3)})
	u := Union(a, bt)
	if u.Len() != 3 {
		t.Errorf("union = %d rows", u.Len())
	}
	all := UnionAll(a, bt, a)
	if all.Len() != 4 {
		t.Errorf("unionAll = %d rows", all.Len())
	}
}

func TestJoin(t *testing.T) {
	orders := Lit([]string{"cust", "total"},
		[]xdm.Item{s("ann"), i(10)},
		[]xdm.Item{s("bob"), i(20)},
		[]xdm.Item{s("ann"), i(30)},
	)
	custs := Lit([]string{"name", "city"},
		[]xdm.Item{s("ann"), s("amsterdam")},
		[]xdm.Item{s("eve"), s("vienna")},
	)
	j := Join(orders, custs, "cust", "name")
	if j.Len() != 2 {
		t.Fatalf("join = %d rows", j.Len())
	}
	if j.ColIdx("city") < 0 {
		t.Fatalf("join cols = %v", j.Cols())
	}
	// column collision suffixing
	jj := Join(orders, orders, "cust", "cust")
	if jj.Len() != 5 { // ann(2)xann(2)=4 + bob x bob = 1
		t.Errorf("self join = %d rows", jj.Len())
	}
	if jj.ColIdx("cust'") < 0 {
		t.Errorf("collision cols = %v", jj.Cols())
	}
}

func TestRowNumDenseRankSemantics(t *testing.T) {
	tb := Lit([]string{"part", "val"},
		[]xdm.Item{s("p1"), i(30)},
		[]xdm.Item{s("p2"), i(10)},
		[]xdm.Item{s("p1"), i(10)},
		[]xdm.Item{s("p2"), i(20)},
		[]xdm.Item{s("p1"), i(20)},
	)
	r := RowNum(tb, "rank", []string{"val"}, "part")
	// ranks ascend by val within each partition; rows keep original order
	want := []int64{3, 1, 1, 2, 2}
	for idx, w := range want {
		if got := r.Int(idx, r.ColIdx("rank")); got != w {
			t.Errorf("row %d rank = %d, want %d\n%s", idx, got, w, r)
		}
	}
	// single partition
	r2 := RowNum(tb, "n", []string{"val"}, "")
	if r2.Len() != 5 {
		t.Fatalf("rows = %d", r2.Len())
	}
}

func TestSortBy(t *testing.T) {
	tb := Lit([]string{"k"},
		[]xdm.Item{i(3)}, []xdm.Item{i(1)}, []xdm.Item{i(2)},
	)
	s := SortBy(tb, "k")
	if s.Int(0, 0) != 1 || s.Int(2, 0) != 3 {
		t.Errorf("sorted = %s", s)
	}
	// original untouched
	if tb.Int(0, 0) != 3 {
		t.Error("SortBy mutated its input")
	}
}

// The iter/pos columns of loop-lifted tables must stay in the dense
// integer representation through the operator pipeline — that is the
// columnar engine's whole point.
func TestDenseColumnsStayDense(t *testing.T) {
	tb := sampleTable()
	if !tb.vecs[0].dense() || !tb.vecs[1].dense() {
		t.Fatal("iter/pos not dense after Append")
	}
	if tb.vecs[2].dense() {
		t.Fatal("string item column claims to be dense")
	}
	j := Join(tb, tb, "iter", "iter")
	if !j.vecs[0].dense() {
		t.Error("join output iter column lost density")
	}
	r := RowNum(tb, "n", []string{"iter", "pos"}, "")
	if !r.vecs[r.ColIdx("n")].dense() {
		t.Error("rownum rank column is not dense")
	}
	u := Union(tb, tb)
	if !u.vecs[0].dense() {
		t.Error("union output iter column lost density")
	}
	st := SortBy(tb, "pos", "iter")
	if !st.vecs[0].dense() {
		t.Error("sort output iter column lost density")
	}
}

// Appending a non-integer degrades a dense column without losing data.
func TestVectorDegrade(t *testing.T) {
	tb := NewTable("v")
	tb.Append(i(1))
	tb.Append(i(2))
	tb.Append(s("x"))
	if tb.Len() != 3 || tb.Int(0, 0) != 1 || tb.Item(2, 0).StringValue() != "x" {
		t.Errorf("degraded column = %s", tb)
	}
}

// Operator outputs share vectors and must reject Append.
func TestFrozenAppendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Append on a projection did not panic")
		}
	}()
	Project(sampleTable(), "iter").Append(i(9))
}

// Property: join with an empty side is empty; union length adds.
func TestQuickJoinUnionLaws(t *testing.T) {
	f := func(a, b []int8) bool {
		ta := NewTable("v")
		for _, v := range a {
			ta.Append(i(int64(v)))
		}
		tb := NewTable("v")
		for _, v := range b {
			tb.Append(i(int64(v)))
		}
		if Union(ta, tb).Len() != ta.Len()+tb.Len() {
			return false
		}
		empty := NewTable("v")
		return Join(ta, empty, "v", "v").Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: RowNum assigns each row of a single partition a unique
// number 1..N.
func TestQuickRowNumPermutation(t *testing.T) {
	f := func(vals []int16) bool {
		tb := NewTable("v")
		for _, v := range vals {
			tb.Append(i(int64(v)))
		}
		r := RowNum(tb, "n", []string{"v"}, "")
		seen := map[int64]bool{}
		for idx := 0; idx < r.Len(); idx++ {
			n := r.Int(idx, r.ColIdx("n"))
			if n < 1 || n > int64(len(vals)) || seen[n] {
				return false
			}
			seen[n] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
