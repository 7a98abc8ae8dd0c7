package server

import (
	"testing"

	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/soap"
	"xrpc/internal/store"
	"xrpc/internal/store/storetest"
	"xrpc/internal/xdm"
	"xrpc/internal/xquf"
)

const filmDB = `<films>
<film><name>The Rock</name><actor>Sean Connery</actor></film>
<film><name>Goldfinger</name><actor>Sean Connery</actor></film>
</films>`

// collectPUL runs an updating query against a fresh store and returns
// the pending update list it produced (plus the store).
func collectPUL(t testing.TB, query string) (*xquf.UpdateList, *store.Store) {
	t.Helper()
	st := store.New()
	if err := st.LoadXML("filmDB.xml", filmDB); err != nil {
		t.Fatal(err)
	}
	eng := interp.New(modules.NewRegistry())
	c, err := eng.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	_, pul, err := eng.Eval(c, &interp.EvalOptions{Docs: storetest.Latest(t, st), CollectUpdates: true})
	if err != nil {
		t.Fatal(err)
	}
	return pul, st
}

// pulFixtures are updating queries over filmDB whose pending update
// lists the wire tests encode.
var pulFixtures = []string{
	`insert node <film><name>Dr. No</name><actor>Sean Connery</actor></film>
	 into doc("filmDB.xml")/films`,
	`delete node doc("filmDB.xml")//film[name="The Rock"]`,
	`replace value of node doc("filmDB.xml")//film[1]/name with "Renamed <Film> 2"`,
	`rename node doc("filmDB.xml")//film[2]/actor as "star"`,
	`(insert node <film><name>A</name><actor>B</actor></film> into doc("filmDB.xml")/films,
	  replace value of node doc("filmDB.xml")//film[1]/name with "")`,
}

// TestPULWireRoundTrip pins the replica-replication contract: a PUL
// encoded at the primary and decoded against an identical tree (the
// replica's snapshot) applies to the same effect — byte-identical
// documents on both sides.
func TestPULWireRoundTrip(t *testing.T) {
	for _, q := range pulFixtures {
		pul, primary := collectPUL(t, q)
		if pul.Empty() {
			t.Fatalf("query produced no pending updates: %s", q)
		}
		pul.SetSeqBase(3) // exercise seq round-tripping

		// the wire node survives a SOAP round trip (it travels inside a
		// Prepare response / AdoptPUL parameter)
		wire := xquf.EncodePUL(pul)
		resp := soap.EncodeResponse(&soap.Response{
			Module: WSATModule, Method: "Prepare",
			Results: []xdm.Sequence{{xdm.String("prepared"), wire}},
		})
		decodedResp, err := soap.DecodeResponse(resp)
		if err != nil {
			t.Fatal(err)
		}
		shipped, ok := decodedResp.Results[0][1].(*xdm.Node)
		if !ok {
			t.Fatal("PUL did not survive the SOAP round trip as a node")
		}

		// replica: identical initial tree, decode against its snapshot
		replica := store.New()
		if err := replica.LoadXML("filmDB.xml", filmDB); err != nil {
			t.Fatal(err)
		}
		snap := replica.Snapshot()
		got, err := xquf.DecodePUL(shipped, snap)
		if err != nil {
			t.Fatalf("xquf.DecodePUL(%s): %v", q, err)
		}

		if err := xquf.ApplyUpdates(primary, pul, nil); err != nil {
			t.Fatal(err)
		}
		if err := xquf.ApplyUpdates(replica, got, snap); err != nil {
			t.Fatal(err)
		}
		snap.Release()
		pd := storetest.Doc(t, primary, "filmDB.xml")
		rd := storetest.Doc(t, replica, "filmDB.xml")
		if xdm.SerializeNode(pd) != xdm.SerializeNode(rd) {
			t.Fatalf("replica diverged from primary after PUL round trip\nquery: %s\nprimary: %s\nreplica: %s",
				q, xdm.SerializeNode(pd), xdm.SerializeNode(rd))
		}
		if pv, rv := primary.Version(), replica.Version(); pv != rv {
			t.Fatalf("version fence would fire on an identical commit: primary %d, replica %d", pv, rv)
		}
	}
}

func TestDecodePULRejectsMisaimedTargets(t *testing.T) {
	pul, _ := collectPUL(t, `delete node doc("filmDB.xml")//film[1]`)
	wire := xquf.EncodePUL(pul)

	// a replica that never loaded the document must refuse
	empty := store.New()
	if _, err := xquf.DecodePUL(wire, empty.Snapshot()); err == nil {
		t.Fatal("adopted a PUL for a document the replica does not hold")
	}

	// a replica with a diverged (smaller) tree must refuse an
	// out-of-range ordinal
	tiny := store.New()
	if err := tiny.LoadXML("filmDB.xml", "<films/>"); err != nil {
		t.Fatal(err)
	}
	if _, err := xquf.DecodePUL(wire, tiny.Snapshot()); err == nil {
		t.Fatal("adopted a PUL whose target ordinal is absent from the replica tree")
	}

	// garbage roots are rejected
	junk := xdm.NewElement("not-a-pul")
	junk.Seal()
	if _, err := xquf.DecodePUL(junk, empty.Snapshot()); err == nil {
		t.Fatal("accepted a non-PUL element")
	}
}

// fuzzPULStore is the fixed store FuzzDecodePUL decodes against:
// filmDB plus a document with an attribute and a text node to aim
// ill-kinded primitives at.
func fuzzPULStore(t testing.TB) *store.Store {
	st := store.New()
	if err := st.LoadXML("filmDB.xml", filmDB); err != nil {
		t.Fatal(err)
	}
	if err := st.LoadXML("a.xml", `<r><p id="1">t</p></r>`); err != nil {
		t.Fatal(err)
	}
	return st
}

// FuzzDecodePUL shakes the pending-update-list reader that replicas
// (AdoptPUL) and WAL replay feed with bytes from the wire or the disk:
// no input may panic parsePUL or the ApplyUpdates that follows it, and
// a list it accepts re-encodes to a node that decodes to the same list
// — the same kinds, targets and order, and the same encoding again.
func FuzzDecodePUL(f *testing.F) {
	for _, q := range pulFixtures {
		pul, _ := collectPUL(f, q)
		pul.SetSeqBase(3)
		f.Add([]byte(xdm.SerializeNode(xquf.EncodePUL(pul))))
	}
	// ill-kinded primitives, as only a foreign or corrupt PUL carries
	// them: evalUpdate refuses to build these
	eng := interp.New(modules.NewRegistry())
	docs := storetest.Latest(f, fuzzPULStore(f))
	node := func(q string) *xdm.Node {
		c, err := eng.Compile(q)
		if err != nil {
			f.Fatal(err)
		}
		seq, _, err := eng.Eval(c, &interp.EvalOptions{Docs: docs})
		if err != nil {
			f.Fatal(err)
		}
		return seq[0].(*xdm.Node)
	}
	for _, row := range []struct {
		kind           xquf.PrimitiveKind
		target, source string
	}{
		{xquf.PrimReplaceNode, `doc("a.xml")/r/p/@id`, `<x/>`},
		{xquf.PrimReplaceNode, `doc("a.xml")/r/p`, `doc("a.xml")/r/p/@id`},
		{xquf.PrimInsertInto, `doc("a.xml")/r/p/@id`, `<x/>`},
		{xquf.PrimInsertFirst, `doc("a.xml")/r/p/text()`, `<x/>`},
		{xquf.PrimInsertBefore, `doc("a.xml")/r/p/@id`, `<x/>`},
		{xquf.PrimInsertInto, `doc("a.xml")`, `attribute {"a"} {"v"}`},
		{xquf.PrimInsertAfter, `doc("a.xml")/r`, `attribute {"a"} {"v"}`},
	} {
		ul := &xquf.UpdateList{}
		ul.Add(xquf.Primitive{Kind: row.kind, Target: node(row.target),
			Source: []*xdm.Node{node(row.source)}})
		f.Add([]byte(xdm.SerializeNode(xquf.EncodePUL(ul))))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		st := fuzzPULStore(t)
		snap := st.Snapshot()
		defer snap.Release()
		ul, err := xquf.ParsePUL(data, snap)
		if err != nil {
			return
		}
		wire := xdm.SerializeNode(xquf.EncodePUL(ul))
		again, err := xquf.ParsePUL([]byte(wire), snap)
		if err != nil {
			t.Fatalf("re-encoded list does not decode: %v\n%s", err, wire)
		}
		if len(again.Prims) != len(ul.Prims) {
			t.Fatalf("%d primitives decode to %d", len(ul.Prims), len(again.Prims))
		}
		for i, p := range ul.Prims {
			q := again.Prims[i]
			if p.Kind != q.Kind || p.Target != q.Target || p.Seq != q.Seq {
				t.Fatalf("primitive %d: %v #%v seq %d decodes to %v #%v seq %d",
					i, p.Kind, p.Target, p.Seq, q.Kind, q.Target, q.Seq)
			}
		}
		if rewire := xdm.SerializeNode(xquf.EncodePUL(again)); rewire != wire {
			t.Fatalf("re-encoding differs:\n%s\n%s", wire, rewire)
		}
		xquf.ApplyUpdates(st, ul, snap) // an error is an answer; a panic is not
	})
}
