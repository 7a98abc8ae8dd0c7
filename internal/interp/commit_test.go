package interp

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"xrpc/internal/store"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

// collect evaluates an updating query against snap and returns its
// pending update list.
func collect(t testing.TB, snap *store.Snapshot, query string) *UpdateList {
	t.Helper()
	c, err := New(nil).Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	_, pul, err := c.Eval(&EvalOptions{Docs: snap, CollectUpdates: true})
	if err != nil {
		t.Fatal(err)
	}
	return pul
}

// serialized is the named document at the store's current version.
func serialized(st *store.Store, name string) string {
	snap := st.Snapshot()
	defer snap.Release()
	doc, _ := snap.Get(name)
	return xdm.SerializeNode(doc)
}

func loaded(t testing.TB, name, xml string) *store.Store {
	t.Helper()
	st := store.New()
	if err := st.LoadXML(name, xml); err != nil {
		t.Fatal(err)
	}
	return st
}

// A commit with no other reader writes the live tree; a snapshot held
// across a commit makes that commit clone, and still reads the old value.
func TestPinnedSnapshotForcesClone(t *testing.T) {
	st := loaded(t, "a.xml", `<r><p>old</p></r>`)
	own := st.Snapshot()
	pul := collect(t, own, `replace value of node doc("a.xml")/r/p with "mid"`)
	if err := ApplyUpdates(st, pul, own); err != nil {
		t.Fatal(err)
	}
	own.Release()
	if in, cl := st.Commits(); in != 1 || cl != 0 {
		t.Fatalf("unpinned commit: in place %d, cloned %d, want 1 and 0", in, cl)
	}

	reader := st.Snapshot()
	before, _ := reader.Get("a.xml")
	own = st.Snapshot()
	pul = collect(t, own, `replace value of node doc("a.xml")/r/p with "new"`)
	if err := ApplyUpdates(st, pul, own); err != nil {
		t.Fatal(err)
	}
	own.Release()
	if in, cl := st.Commits(); in != 1 || cl != 1 {
		t.Fatalf("pinned commit: in place %d, cloned %d, want 1 and 1", in, cl)
	}
	if got := xdm.SerializeNode(before); got != `<r><p>mid</p></r>` {
		t.Errorf("the pinned snapshot reads %s, want the value before the commit", got)
	}
	if got, _ := reader.Get("a.xml"); got != before {
		t.Error("the pinned snapshot's document changed identity")
	}
	if got := serialized(st, "a.xml"); got != `<r><p>new</p></r>` {
		t.Errorf("the store reads %s after the commit", got)
	}
	reader.Release()
}

// Two transactions pin the same version and each writes one city; the
// second commit finds the first one's version live. Its target is found
// there by ordinal, so neither write is lost.
func TestOverlappingCommitsKeepBothWrites(t *testing.T) {
	st := loaded(t, "d.xml", `<r><p id="a"><city>A0</city></p><p id="b"><city>B0</city></p></r>`)
	s1, s2 := st.Snapshot(), st.Snapshot()
	a := collect(t, s1, `replace value of node doc("d.xml")/r/p[@id="a"]/city with "A1"`)
	b := collect(t, s2, `replace value of node doc("d.xml")/r/p[@id="b"]/city with "B1"`)
	if err := ApplyUpdates(st, a, s1); err != nil {
		t.Fatal(err)
	}
	s1.Release()
	if err := ApplyUpdates(st, b, s2); err != nil {
		t.Fatal(err)
	}
	s2.Release()
	want := `<r><p id="a"><city>A1</city></p><p id="b"><city>B1</city></p></r>`
	if got := serialized(st, "d.xml"); got != want {
		t.Errorf("after both commits: %s, want %s", got, want)
	}
}

// A transaction whose document was restructured after its snapshot
// fails with XRPC0010 and writes nothing: its ordinal no longer names
// the node it read.
func TestStructuralCommitFailsOvertakenTransaction(t *testing.T) {
	st := loaded(t, "d.xml", `<r><p id="a"><city>A0</city></p></r>`)
	s1, s2 := st.Snapshot(), st.Snapshot()
	ins := collect(t, s1, `insert node <p id="z"/> as first into doc("d.xml")/r`)
	upd := collect(t, s2, `replace value of node doc("d.xml")/r/p[@id="a"]/city with "A1"`)
	if err := ApplyUpdates(st, ins, s1); err != nil {
		t.Fatal(err)
	}
	s1.Release()
	v := st.Version()
	var xe *xdm.Error
	if err := ApplyUpdates(st, upd, s2); !errors.As(err, &xe) || xe.Code != "XRPC0010" {
		t.Fatalf("overtaken commit: %v, want XRPC0010", err)
	}
	s2.Release()
	want := `<r><p id="z"/><p id="a"><city>A0</city></p></r>`
	if got := serialized(st, "d.xml"); got != want || st.Version() != v {
		t.Errorf("after the failed commit: %s at v%d, want %s at v%d", got, st.Version(), want, v)
	}
}

// Every primitive is checked before the first write, so a list that
// fails leaves the live tree as it was and counts no commit. The first
// row's failing primitive is built by hand, as only a PUL from the wire
// or the log carries one (evalUpdate refuses it). The other rows target
// a child that an earlier `replace value of` of its parent element took
// out of the tree.
func TestFailingListWritesNothingInPlace(t *testing.T) {
	for _, tc := range []struct {
		doc, query string
		extra      func(d *xdm.Node) Primitive
		code       string
	}{{
		doc: `<r><p id="1">1</p><q>2</q></r>`,
		query: `(replace value of node doc("d.xml")/r/q with "x",
			delete node doc("d.xml")/r/p/text())`,
		extra: func(d *xdm.Node) Primitive {
			id := d.Children[0].Children[0].Attrs[0]
			return Primitive{Kind: PrimReplaceNode, Target: id, Source: []*xdm.Node{xdm.NewElement("x").Seal()}}
		},
		code: "XUTY0011",
	}, {
		doc: `<r><p>a<b/></p></r>`,
		query: `(replace value of node doc("d.xml")/r/p with "x",
			insert node <y/> before doc("d.xml")/r/p/b)`,
		code: "XUDY0029",
	}, {
		doc: `<r><p>a<b/></p></r>`,
		query: `(replace value of node doc("d.xml")/r/p with "x",
			insert node <y/> after doc("d.xml")/r/p/b)`,
		code: "XUDY0029",
	}, {
		doc: `<r><p>a<b/></p></r>`,
		query: `(replace value of node doc("d.xml")/r/p with "x",
			replace node doc("d.xml")/r/p/b with <y/>)`,
		code: "XUDY0029",
	}, {
		doc: `<r><p>t</p></r>`,
		query: `(replace value of node doc("d.xml")/r/p with "x",
			delete node doc("d.xml")/r/p/text())`,
		code: "XUDY0029",
	}} {
		st := loaded(t, "d.xml", tc.doc)
		own := st.Snapshot()
		pul := collect(t, own, tc.query)
		if tc.extra != nil {
			d, _ := own.Get("d.xml")
			pul.Add(tc.extra(d))
		}
		var xe *xdm.Error
		if err := ApplyUpdates(st, pul, own); !errors.As(err, &xe) || xe.Code != tc.code {
			t.Errorf("%s: %v, want %s", tc.query, err, tc.code)
		}
		own.Release()
		if got := serialized(st, "d.xml"); got != tc.doc {
			t.Errorf("%s: a failed commit wrote %s", tc.query, got)
		}
		if in, cl := st.Commits(); in+cl != 0 {
			t.Errorf("%s: a failed commit counted: in place %d, cloned %d", tc.query, in, cl)
		}
	}
}

// A list applies in XQUF's phase order whatever order its expressions
// came in: inserts beside a node before the replace or delete of that
// node (in Seq order the delete detached p first, and the insert failed
// with XUDY0029).
func TestListAppliesInPhaseOrder(t *testing.T) {
	for _, tc := range []struct{ query, want string }{
		{`(delete node doc("d.xml")/r/p, insert node <n/> before doc("d.xml")/r/p)`, `<r><n/><q/></r>`},
		{`(delete node doc("d.xml")/r/p, insert node <n/> after doc("d.xml")/r/p)`, `<r><n/><q/></r>`},
		{`(replace node doc("d.xml")/r/p with <x/>, insert node <n/> after doc("d.xml")/r/p)`, `<r><x/><n/><q/></r>`},
	} {
		st := loaded(t, "d.xml", `<r><p/><q/></r>`)
		own := st.Snapshot()
		if err := ApplyUpdates(st, collect(t, own, tc.query), own); err != nil {
			t.Errorf("%s: %v", tc.query, err)
		}
		own.Release()
		if got := serialized(st, "d.xml"); got != tc.want {
			t.Errorf("%s: committed %s, want %s", tc.query, got, tc.want)
		}
	}
}

// `replace value of` an element keeps its one text child in place only
// when no other primitive targets that child; otherwise the child is
// replaced, and a later write to it no longer reaches the document.
func TestReplaceValueOfTargetedTextChild(t *testing.T) {
	for _, query := range []string{
		`(replace value of node doc("d.xml")/r/p with "x",
			replace value of node doc("d.xml")/r/p/text() with "y")`,
		`(replace value of node doc("d.xml")/r/p/text() with "y",
			replace value of node doc("d.xml")/r/p with "x")`,
	} {
		st := loaded(t, "d.xml", `<r><p>t</p></r>`)
		own := st.Snapshot()
		if err := ApplyUpdates(st, collect(t, own, query), own); err != nil {
			t.Fatal(err)
		}
		own.Release()
		if got, want := serialized(st, "d.xml"), `<r><p>x</p></r>`; got != want {
			t.Errorf("%s: committed %s, want %s", query, got, want)
		}
	}
}

// An in-place structural commit reseals: ordinals are preorder again,
// equal to those of a fresh parse of the result.
func TestInPlaceStructuralCommitReseals(t *testing.T) {
	st := loaded(t, "d.xml", `<r><a/><b>t</b></r>`)
	own := st.Snapshot()
	pul := collect(t, own, `(insert node <x><y/></x> as first into doc("d.xml")/r,
		replace value of node doc("d.xml")/r/b with "u")`)
	if err := ApplyUpdates(st, pul, own); err != nil {
		t.Fatal(err)
	}
	if in, _ := st.Commits(); in != 1 {
		t.Fatal("the commit did not write in place")
	}
	live, _ := own.Get("d.xml") // own saw its own write: the same tree
	fresh, err := xdm.ParseDocument("d.xml", xdm.SerializeNode(live))
	if err != nil {
		t.Fatal(err)
	}
	own.Release()
	var ords func(n *xdm.Node, out []int) []int
	ords = func(n *xdm.Node, out []int) []int {
		out = append(out, n.Ord())
		for _, a := range n.Attrs {
			out = append(out, a.Ord())
		}
		for _, c := range n.Children {
			out = ords(c, out)
		}
		return out
	}
	if got, want := fmt.Sprint(ords(live, nil)), fmt.Sprint(ords(fresh, nil)); got != want {
		t.Errorf("ordinals after the commit %s, a fresh parse %s", got, want)
	}
}

// replaceCity is one `replace value of` commit against persons.xml: the
// pending update list of setting person0's city, whose target stays the
// live node when the commit writes in place.
func replaceCity(t testing.TB, persons int) (*store.Store, *UpdateList) {
	t.Helper()
	st := loaded(t, "persons.xml", xmark.GeneratePersons(xmark.Config{Persons: persons, Seed: 7}))
	snap := st.Snapshot()
	defer snap.Release()
	return st, collect(t, snap, `replace value of node (doc("persons.xml")//person[@id="person0"]/address/city)[1] with "Benchtown"`)
}

// With no pin, a commit's cost follows its pending update list, not the
// document: the same `replace value of` allocates the same at 1 000 and
// at 8 000 persons (a whole-document copy allocates ~40 per person).
func TestCommitAllocsDoNotGrowWithDocument(t *testing.T) {
	allocs := func(persons int) float64 {
		st, pul := replaceCity(t, persons)
		return testing.AllocsPerRun(20, func() {
			if err := ApplyUpdates(st, pul, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(8000)
	if small != large {
		t.Errorf("a replace-value commit allocates %.0f at 1000 persons, %.0f at 8000", small, large)
	}
}

// BenchmarkCommitReplaceValue is the layer-level row of a commit: one
// `replace value of` through ApplyUpdates, no reader pinning the
// document (go test -run NONE -bench CommitReplaceValue -benchmem
// ./internal/interp).
func BenchmarkCommitReplaceValue(b *testing.B) {
	for _, persons := range []int{1000, 8000} {
		b.Run(fmt.Sprintf("persons=%d", persons), func(b *testing.B) {
			st, pul := replaceCity(b, persons)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ApplyUpdates(st, pul, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Readers beside in-place commits (run with -race): each commit sets
// both <v> and <w> to its version's number, and every reader, rereading
// through one snapshot, sees both equal to that snapshot's version and
// unchanged — exactly one version per reader.
func TestReadersBesideInPlaceCommits(t *testing.T) {
	const commits, readers = 400, 4
	st := loaded(t, "d.xml", `<r><v>0</v><w>0</w></r>`)
	base := st.Version()
	stop := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := st.Snapshot()
				want := fmt.Sprint(snap.Version() - base)
				for reread := 0; reread < 3; reread++ {
					doc, _ := snap.Get("d.xml")
					r := doc.Children[0]
					if v, w := r.Children[0].StringValue(), r.Children[1].StringValue(); v != want || w != want {
						errs <- fmt.Errorf("snapshot v%d reads v=%s w=%s, want %s", snap.Version(), v, w, want)
						snap.Release()
						return
					}
				}
				snap.Release()
				runtime.Gosched()
			}
		}()
	}
	for i := 1; i <= commits; i++ {
		own := st.Snapshot()
		pul := collect(t, own, fmt.Sprintf(`(replace value of node doc("d.xml")/r/v with "%d",
			replace value of node doc("d.xml")/r/w with "%d")`, i, i))
		if err := ApplyUpdates(st, pul, own); err != nil {
			t.Fatal(err)
		}
		own.Release()
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	in, cl := st.Commits()
	t.Logf("%d commits in place, %d cloned", in, cl)
	if in+cl != commits || in == 0 {
		t.Errorf("commits: %d in place, %d cloned, want %d with some in place", in, cl, commits)
	}
}
