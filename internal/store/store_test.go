package store

import (
	"fmt"
	"sync"
	"testing"

	"xrpc/internal/xdm"
)

func TestLoadGetDelete(t *testing.T) {
	s := New()
	if err := s.LoadXML("a.xml", "<a/>"); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	defer sn.Release()
	if _, ok := sn.Get("a.xml"); !ok {
		t.Fatal("a.xml missing")
	}
	if _, ok := sn.Get("b.xml"); ok {
		t.Fatal("phantom document")
	}
	if err := s.LoadXML("bad.xml", "<a><b></a>"); err == nil {
		t.Fatal("malformed XML accepted")
	}
	s.Delete("a.xml")
	after := s.Snapshot()
	defer after.Release()
	if _, ok := after.Get("a.xml"); ok {
		t.Fatal("delete did not remove")
	}
}

func TestDocResolver(t *testing.T) {
	s := New()
	s.LoadXML("a.xml", "<a/>")
	sn := s.Snapshot()
	defer sn.Release()
	if _, err := sn.Doc("a.xml"); err != nil {
		t.Fatal(err)
	}
	if _, err := sn.Doc("nope.xml"); err == nil {
		t.Fatal("missing doc should error")
	}
}

func TestVersionMonotonic(t *testing.T) {
	s := New()
	v0 := s.Version()
	s.LoadXML("a.xml", "<a/>")
	v1 := s.Version()
	s.LoadXML("a.xml", "<a2/>")
	v2 := s.Version()
	s.Delete("a.xml")
	v3 := s.Version()
	if !(v0 < v1 && v1 < v2 && v2 < v3) {
		t.Errorf("versions not monotonic: %d %d %d %d", v0, v1, v2, v3)
	}
}

func TestSnapshotImmutability(t *testing.T) {
	s := New()
	s.LoadXML("a.xml", "<a><old/></a>")
	snap := s.Snapshot()
	s.LoadXML("a.xml", "<a><new/></a>")
	s.LoadXML("b.xml", "<b/>")

	d, ok := snap.Get("a.xml")
	if !ok {
		t.Fatal("snapshot lost a.xml")
	}
	if got := len(xdm.Step(d, xdm.AxisDescendant, xdm.NodeTest{Name: "old"})); got != 1 {
		t.Error("snapshot does not see the old version")
	}
	if _, ok := snap.Get("b.xml"); ok {
		t.Error("snapshot sees a document created after it")
	}
	if _, err := snap.Doc("b.xml"); err == nil {
		t.Error("snapshot Doc resolves later document")
	}
	// latest state sees the new version
	latest := s.Snapshot()
	defer latest.Release()
	cur, _ := latest.Get("a.xml")
	if got := len(xdm.Step(cur, xdm.AxisDescendant, xdm.NodeTest{Name: "new"})); got != 1 {
		t.Error("store does not see the new version")
	}
	if snap.Version() >= s.Version() {
		t.Error("snapshot version not older than store version")
	}
}

func TestNamesSorted(t *testing.T) {
	s := New()
	for _, n := range []string{"c.xml", "a.xml", "b.xml"} {
		s.LoadXML(n, "<x/>")
	}
	names := s.Names()
	if len(names) != 3 || names[0] != "a.xml" || names[2] != "c.xml" {
		t.Errorf("names = %v", names)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				name := fmt.Sprintf("doc%d.xml", i)
				s.LoadXML(name, "<x/>")
				sn := s.Snapshot()
				sn.Get(name)
				sn.Release()
				s.Names()
			}
		}(i)
	}
	wg.Wait()
	if len(s.Names()) != 8 {
		t.Errorf("docs = %d", len(s.Names()))
	}
}

// TestSnapshotRepeatableReadUnderConcurrentUpdates pins rule R'_Fr
// under write pressure: readers take snapshots and re-read their
// documents while writers concurrently swap new document versions in.
// Every read through one snapshot must return the same tree (same
// *Node, same content) no matter how many Puts land meanwhile — run
// with -race, this also proves snapshot reads need no synchronization
// with writers.
func TestSnapshotRepeatableReadUnderConcurrentUpdates(t *testing.T) {
	const (
		docs    = 4
		writers = 4
		readers = 8
		rounds  = 60
	)
	s := New()
	for d := 0; d < docs; d++ {
		if err := s.LoadXML(fmt.Sprintf("doc%d.xml", d), "<v>0</v>"); err != nil {
			t.Fatal(err)
		}
	}

	var writerWG, readerWG sync.WaitGroup
	errs := make(chan error, readers)
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("doc%d.xml", i%docs)
				if err := s.LoadXML(name, fmt.Sprintf("<v>%d-%d</v>", w, i)); err != nil {
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for i := 0; i < rounds; i++ {
				snap := s.Snapshot()
				version := snap.Version()
				// pin every document's tree and string value at
				// snapshot time...
				pinned := make(map[string]*xdm.Node, docs)
				values := make(map[string]string, docs)
				for d := 0; d < docs; d++ {
					name := fmt.Sprintf("doc%d.xml", d)
					doc, err := snap.Doc(name)
					if err != nil {
						errs <- err
						return
					}
					pinned[name] = doc
					values[name] = doc.StringValue()
				}
				// ...then re-read repeatedly while writers keep
				// swapping: the snapshot must keep answering with the
				// exact same trees (repeatable read, rule R'_Fr)
				for reread := 0; reread < 5; reread++ {
					for name, want := range pinned {
						got, err := snap.Doc(name)
						if err != nil {
							errs <- err
							return
						}
						if got != want {
							errs <- fmt.Errorf("snapshot v%d: %s changed identity between reads", version, name)
							return
						}
						if sv := got.StringValue(); sv != values[name] {
							errs <- fmt.Errorf("snapshot v%d: %s content changed %q -> %q", version, name, values[name], sv)
							return
						}
					}
				}
				if snap.Version() != version {
					errs <- fmt.Errorf("snapshot version moved %d -> %d", version, snap.Version())
					return
				}
				snap.Release()
			}
		}()
	}

	readerWG.Wait()
	close(stop)
	writerWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}
