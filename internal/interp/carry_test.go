package interp

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"xrpc/internal/store"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
	"xrpc/internal/xqrt"
	"xrpc/internal/xquf"
)

// Tables carried across value-only commits (store.Tx.Carry,
// carryTables): which commits carry, what an index keeps, and the bound.

const carryModule = bulkPersonModule + `
declare function p:byCity($city as xs:string) as node()*
{ doc("persons.xml")//person[address/city = $city] };
declare function p:cityOf($pid as xs:string) as node()*
{ for $p in doc("persons.xml")//person[@id=$pid] return $p//city };`

// xmarkPersons is a store holding n XMark persons as persons.xml, and
// the module over it.
func xmarkPersons(t testing.TB, n int) (*store.Store, *xqrt.Compiled) {
	t.Helper()
	c, err := New(nil).CompileModule(carryModule)
	if err != nil {
		t.Fatal(err)
	}
	return loaded(t, "persons.xml", xmark.GeneratePersons(xmark.Config{Persons: n, Seed: 7})), c
}

// callAt calls p:fn(arg) at st's current version, returning the
// serialized result and the call's counters.
func callAt(t testing.TB, c *xqrt.Compiled, st *store.Store, fn, arg string) (string, Stats) {
	t.Helper()
	snap := st.Snapshot()
	defer snap.Release()
	var stats Stats
	seq, _, err := New(nil).CallFunction(c, "functions_p", fn, []xdm.Sequence{{xdm.String(arg)}}, &EvalOptions{Docs: snap, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	return xdm.SerializeSequence(seq), stats
}

// commitQuery collects the updating query at st's current version and
// commits it with that version as its own.
func commitQuery(t testing.TB, st *store.Store, query string) {
	t.Helper()
	own := st.Snapshot()
	defer own.Release()
	if err := xquf.ApplyUpdates(st, collect(t, own, query), own); err != nil {
		t.Fatal(err)
	}
}

// setCityAt commits p:setCity(pid, city) as the update_mix script does,
// returning the index builds of its evaluation.
func setCityAt(t testing.TB, c *xqrt.Compiled, st *store.Store, pid, city string) int {
	t.Helper()
	own := st.Snapshot()
	defer own.Release()
	var stats Stats
	_, pul, err := New(nil).CallFunction(c, "functions_p", "setCity", []xdm.Sequence{{xdm.String(pid)}, {xdm.String(city)}},
		&EvalOptions{Docs: own, CollectUpdates: true, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if err := xquf.ApplyUpdates(st, pul, own); err != nil {
		t.Fatal(err)
	}
	return stats.IndexBuilds
}

func cityOf(t *testing.T, person string) string {
	t.Helper()
	i := strings.Index(person, "<city>")
	j := strings.Index(person, "</city>")
	if i < 0 || j < i {
		t.Fatalf("no city in %q", person)
	}
	return person[i+len("<city>") : j]
}

// setCity then getPerson at the next version builds no index: the
// commit replaced a city text and the index keys @id.
func TestValueCommitCarriesTheIndex(t *testing.T) {
	st, c := xmarkPersons(t, 200)
	if _, stats := callAt(t, c, st, "getPerson", "person3"); stats.IndexBuilds != 1 {
		t.Fatalf("first getPerson built %d indexes, want 1", stats.IndexBuilds)
	}
	if builds := setCityAt(t, c, st, "person5", "Carrytown"); builds != 0 {
		t.Errorf("setCity at the same version built %d indexes, want 0", builds)
	}
	if in, cl := st.Commits(); in != 1 || cl != 0 {
		t.Fatalf("commits in place %d, cloned %d, want 1 and 0", in, cl)
	}
	got, stats := callAt(t, c, st, "getPerson", "person5")
	if city := cityOf(t, got); city != "Carrytown" {
		t.Errorf("person5's city at the next version: %q", city)
	}
	if stats.IndexBuilds != 0 || stats.IndexProbes != 1 {
		t.Errorf("getPerson at the next version: builds/probes %d/%d, want 0/1", stats.IndexBuilds, stats.IndexProbes)
	}
}

// An index whose key holds a replaced value is dropped from the carried
// tables and rebuilt: an @id key, and an address/city key whose key
// node contains the replaced text. The index is found by the new value,
// not by the old one.
func TestCarriedIndexSeesTheReplacedKey(t *testing.T) {
	st, c := xmarkPersons(t, 200)
	callAt(t, c, st, "getPerson", "person3")
	commitQuery(t, st, `replace value of node doc("persons.xml")//person[@id = "person3"]/@id with "person3x"`)
	if got, _ := callAt(t, c, st, "getPerson", "person3"); got != "" {
		t.Errorf("person3 after its id was replaced: %s", got)
	}
	got, stats := callAt(t, c, st, "getPerson", "person3x")
	if !strings.HasPrefix(got, `<person id="person3x">`) {
		t.Errorf("person3x: %q", got)
	}
	if stats.IndexBuilds != 0 {
		t.Errorf("second probe of the rebuilt index built %d", stats.IndexBuilds)
	}

	old, _ := callAt(t, c, st, "getPerson", "person5")
	oldCity := cityOf(t, old)
	if got, _ := callAt(t, c, st, "byCity", oldCity); !strings.Contains(got, `id="person5"`) {
		t.Fatalf("byCity(%q) misses person5: %s", oldCity, got)
	}
	setCityAt(t, c, st, "person5", "Keytown")
	if got, stats := callAt(t, c, st, "byCity", "Keytown"); !strings.Contains(got, `id="person5"`) || stats.IndexBuilds != 1 {
		t.Errorf("byCity(Keytown) after setCity: %q with %d builds, want person5 from a rebuilt index", got, stats.IndexBuilds)
	}
	if got, _ := callAt(t, c, st, "byCity", oldCity); strings.Contains(got, `id="person5"`) {
		t.Errorf("byCity(%q) still finds person5", oldCity)
	}
	if _, stats := callAt(t, c, st, "getPerson", "person5"); stats.IndexBuilds != 0 {
		t.Errorf("the @id index was dropped by a city change (%d builds)", stats.IndexBuilds)
	}
}

// Every commit but a value-only one in place starts the next version
// with no tables: a rename (it changes what a name test selects), a
// cloned commit and a list with fn:put.
func TestOnlyValueCommitsCarry(t *testing.T) {
	for _, tc := range []struct {
		name, query, probe string
		hold               bool // a reader pins the version: the commit clones
		want               string
	}{
		{"rename", `rename node doc("persons.xml")//person[@id = "person3"] as "human"`, "person3", false, ""},
		{"cloned", `replace value of node doc("persons.xml")//person[@id = "person3"]/address/city with "X"`, "person3", true, `<city>X</city>`},
		{"fn:put", `(replace value of node doc("persons.xml")//person[@id = "person3"]/address/city with "X",
			put(<other/>, "other.xml"))`, "person3", false, `<city>X</city>`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, c := xmarkPersons(t, 200)
			callAt(t, c, st, "getPerson", tc.probe)
			if tc.hold {
				held := st.Snapshot()
				defer held.Release()
			}
			commitQuery(t, st, tc.query)
			if _, cl := st.Commits(); (cl == 1) != tc.hold {
				t.Fatalf("cloned commits %d, want a clone %v", cl, tc.hold)
			}
			got, stats := callAt(t, c, st, "getPerson", tc.probe)
			if !strings.Contains(got, tc.want) || tc.want == "" && got != "" {
				t.Errorf("getPerson(%s) = %q, want it to hold %q", tc.probe, got, tc.want)
			}
			if stats.IndexBuilds != 1 {
				t.Errorf("the next version built %d indexes, want 1", stats.IndexBuilds)
			}
			// the next version's tables hold its own trees
			if _, stats := callAt(t, c, st, "getPerson", tc.probe); stats.IndexBuilds != 0 {
				t.Errorf("a second probe at the next version built %d indexes, want 0", stats.IndexBuilds)
			}
		})
	}
}

// After 1000 setCity commits on one carried lineage the tables hold the
// //person scan and its @id index, and nothing per person: the child
// steps address and city of one row are recomputed, not kept, and so is
// the descendant step $p//city of a read between the commits.
func TestCarriedTablesStayBounded(t *testing.T) {
	const persons = 1000
	for _, read := range []string{"", "cityOf"} {
		t.Run("read="+read, func(t *testing.T) {
			st, c := xmarkPersons(t, persons)
			builds := 0
			for i := 0; i < persons; i++ {
				pid := xmark.PersonID(i)
				builds += setCityAt(t, c, st, pid, fmt.Sprintf("Town%d", i))
				if read != "" {
					got, stats := callAt(t, c, st, read, pid)
					if want := fmt.Sprintf("<city>Town%d</city>", i); got != want {
						t.Fatalf("%s(%s) = %q, want %q", read, pid, got, want)
					}
					builds += stats.IndexBuilds
				}
			}
			if in, cl := st.Commits(); in != persons || cl != 0 {
				t.Fatalf("commits in place %d, cloned %d, want %d and 0", in, cl, persons)
			}
			if builds != 1 {
				t.Errorf("%d commits built %d indexes, want 1", persons, builds)
			}
			snap := st.Snapshot()
			defer snap.Release()
			tab := newEvalMemo(snap).shared
			tab.mu.Lock()
			steps, preds := len(tab.steps), len(tab.preds)
			tab.mu.Unlock()
			if steps != 1 || preds != 1 {
				t.Errorf("the tables hold %d steps and %d indexes, want 1 and 1", steps, preds)
			}
		})
	}
}

// Readers at old and new versions beside carried commits (run with
// -race): each commit sets person5's city to its version's number, some
// commits carry the tables (no reader pinned the version) and some
// clone; a reader holding its snapshot across commits keeps reading its
// own version's city, by index, and so does every new reader.
func TestReadersBesideCarriedCommits(t *testing.T) {
	const commits, readers = 200, 3
	st, c := xmarkPersons(t, 100)
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
				want := ""
				if n := snap.Version() - base; n > 0 {
					want = fmt.Sprint(n)
				}
				for reread := 0; reread < 2; reread++ {
					seq, _, err := New(nil).CallFunction(c, "functions_p", "getPerson", []xdm.Sequence{{xdm.String("person5")}}, &EvalOptions{Docs: snap})
					got := xdm.SerializeSequence(seq)
					if err != nil || want != "" && !strings.Contains(got, "<city>"+want+"</city>") {
						errs <- fmt.Errorf("version %d: %s (%v), want city %s", snap.Version(), got, err, want)
						snap.Release()
						return
					}
				}
				snap.Release()
			}
		}()
	}
	for i := 1; i <= commits; i++ {
		setCityAt(t, c, st, "person5", fmt.Sprint(i))
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if in, _ := st.Commits(); in == 0 {
		t.Error("no commit wrote in place, so none carried")
	}
}

// BenchmarkCommitThenProbe is the layer-level row of a commit followed
// by a read at the version it made: one `replace value of` a city in
// place, then one getPerson probe at the next version, over 1000 persons
// (go test -run NONE -bench CommitThenProbe -benchmem ./internal/interp).
// The probe finds the @id index carried over the commit; rebuilding it
// instead costs a scan and a hash of every person per commit.
func BenchmarkCommitThenProbe(b *testing.B) {
	st, c := xmarkPersons(b, 1000)
	snap := st.Snapshot()
	pul := collect(b, snap, `replace value of node doc("persons.xml")//person[@id = "person0"]/address/city with "Benchtown"`)
	snap.Release()
	args := []xdm.Sequence{{xdm.String("person500")}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := xquf.ApplyUpdates(st, pul, nil); err != nil {
			b.Fatal(err)
		}
		snap := st.Snapshot()
		seq, _, err := New(nil).CallFunction(c, "functions_p", "getPerson", args, &EvalOptions{Docs: snap})
		snap.Release()
		if err != nil || len(seq) != 1 {
			b.Fatalf("getPerson: %v, %d items", err, len(seq))
		}
	}
}
