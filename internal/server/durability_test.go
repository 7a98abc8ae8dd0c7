package server

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/interp"
	"xrpc/internal/netsim"
	"xrpc/internal/obs"
	"xrpc/internal/soap"
	"xrpc/internal/store"
	"xrpc/internal/store/storetest"
	"xrpc/internal/wal"
	"xrpc/internal/xdm"
)

func enableWAL(t *testing.T, p *peer, dir string, cfg WALConfig) bool {
	t.Helper()
	cfg.Dir = dir
	recovered, err := p.server.EnableWAL(cfg)
	if err != nil {
		t.Fatalf("EnableWAL: %v", err)
	}
	t.Cleanup(func() { p.server.CloseWAL() })
	return recovered
}

func addFilm(t *testing.T, net *netsim.Network, dest, name, actor string) {
	t.Helper()
	cl := client.New(net)
	_, err := cl.CallBulk(dest, &client.BulkRequest{
		ModuleURI: "upd", Func: "addFilm", Arity: 2, Updating: true,
		Calls: [][]xdm.Sequence{{{xdm.String(name)}, {xdm.String(actor)}}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func filmDoc(t *testing.T, st *store.Store) string {
	t.Helper()
	doc := storetest.Doc(t, st, "filmDB.xml")
	if doc == nil {
		t.Fatal("filmDB.xml missing")
	}
	return xdm.SerializeNode(doc)
}

// A peer with a WAL that "crashes" (its in-memory state discarded, its
// directory reopened by a fresh server) recovers the exact pre-crash
// version and byte-identical documents — also with the response cache
// on, whose requests commit through the same durable path.
func TestWALRecoveryRoundTrip(t *testing.T) {
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("respcache=%v", cached), func(t *testing.T) {
			net := netsim.NewNetwork(0, 0)
			dir := t.TempDir()
			p := newPeer(t, "xrpc://durable", filmDBY, net)
			if cached {
				p.server.RespCache = NewRespCache(0)
			}
			if recovered := enableWAL(t, p, dir, WALConfig{}); recovered {
				t.Fatal("fresh dir reported a recovery")
			}
			for i := 0; i < 5; i++ {
				addFilm(t, net, p.uri, fmt.Sprintf("Film %d", i), "Actor")
			}
			wantVersion := p.store.Version()
			wantDoc := filmDoc(t, p.store)

			// "crash": the old server's memory is abandoned; a new empty
			// peer recovers from the directory alone
			reg := obs.NewRegistry()
			m := wal.NewMetrics(reg)
			p2 := newPeer(t, "xrpc://durable-2", "", net)
			if recovered := enableWAL(t, p2, dir, WALConfig{Metrics: m}); !recovered {
				t.Fatal("existing dir did not recover")
			}
			if got := p2.store.Version(); got != wantVersion {
				t.Fatalf("recovered version = %d, want %d", got, wantVersion)
			}
			if got := filmDoc(t, p2.store); got != wantDoc {
				t.Fatalf("recovered document differs:\n got %s\nwant %s", got, wantDoc)
			}
			if n, ok := reg.Gather("xrpc_wal_replayed_records_total"); !ok || n < 5 {
				t.Fatalf("replay counter = %v (ok=%v), want >= 5", n, ok)
			}
		})
	}
}

// WS-AT deferred commits are durable too: prepare + commit a PUL under
// a queryID, crash, recover, and the committed state is back.
func TestWALRecoveryAfterWSATCommit(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	dir := t.TempDir()
	p := newPeer(t, "xrpc://durable-2pc", filmDBY, net)
	enableWAL(t, p, dir, WALConfig{})

	qid := &soap.QueryID{ID: "q-wal-1", Host: "xrpc://local", Timestamp: time.Now(), Timeout: 60}
	cl := client.New(net)
	cl.QueryID = qid
	if _, err := cl.CallBulk(p.uri, &client.BulkRequest{
		ModuleURI: "upd", Func: "addFilm", Arity: 2, Updating: true,
		Calls: [][]xdm.Sequence{{{xdm.String("Durable Film")}, {xdm.String("D")}}},
	}); err != nil {
		t.Fatal(err)
	}
	for _, verb := range []string{"Prepare", "Commit"} {
		if _, err := cl.CallBulk(p.uri, &client.BulkRequest{
			ModuleURI: WSATModule, Func: verb, Arity: 0, Calls: [][]xdm.Sequence{{}},
		}); err != nil {
			t.Fatalf("%s: %v", verb, err)
		}
	}
	wantVersion, wantDoc := p.store.Version(), filmDoc(t, p.store)

	p2 := newPeer(t, "xrpc://durable-2pc-r", "", net)
	if !enableWAL(t, p2, dir, WALConfig{}) {
		t.Fatal("no recovery")
	}
	if p2.store.Version() != wantVersion || filmDoc(t, p2.store) != wantDoc {
		t.Fatalf("recovered (v%d) != committed (v%d) or documents differ",
			p2.store.Version(), wantVersion)
	}
}

// The snapshot policy keeps recovery exact: with a tiny snapshot
// threshold the log is repeatedly snapshotted and truncated, and a
// restart still lands on the precise final state.
func TestWALSnapshotTruncationKeepsRecoveryExact(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	dir := t.TempDir()
	p := newPeer(t, "xrpc://durable-snap", filmDBY, net)
	enableWAL(t, p, dir, WALConfig{SegmentBytes: 512, SnapshotBytes: 1024})
	for i := 0; i < 25; i++ {
		addFilm(t, net, p.uri, fmt.Sprintf("Film %d", i), "Actor")
	}
	wantVersion, wantDoc := p.store.Version(), filmDoc(t, p.store)
	if base := p.server.WAL().Base(); base == 0 {
		t.Fatal("snapshot policy never ran (base still 0)")
	}

	p2 := newPeer(t, "xrpc://durable-snap-r", "", net)
	if !enableWAL(t, p2, dir, WALConfig{}) {
		t.Fatal("no recovery")
	}
	if p2.store.Version() != wantVersion || filmDoc(t, p2.store) != wantDoc {
		t.Fatalf("recovered v%d, want v%d (or documents differ)", p2.store.Version(), wantVersion)
	}
}

// syncFrom/resyncFrom: a stale follower catches up from the primary's
// log; one that the log no longer covers (or that never had the data)
// adopts a full snapshot transfer. Both end byte-identical.
func TestResyncFromPrimary(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	dir := t.TempDir()
	prim := newPeer(t, "xrpc://prim", filmDBY, net)
	enableWAL(t, prim, dir, WALConfig{})

	// follower starts as a faithful copy (same initial docs, same
	// version accounting), then misses five commits
	fol := newPeer(t, "xrpc://fol", filmDBY, net)
	folDir := t.TempDir()
	enableWAL(t, fol, folDir, WALConfig{})
	for i := 0; i < 5; i++ {
		addFilm(t, net, prim.uri, fmt.Sprintf("Missed %d", i), "Actor")
	}
	v, err := fol.server.ResyncFrom(prim.uri)
	if err != nil {
		t.Fatalf("ResyncFrom (log mode): %v", err)
	}
	if v != prim.store.Version() || filmDoc(t, fol.store) != filmDoc(t, prim.store) {
		t.Fatalf("log resync: follower v%d primary v%d (or documents differ)", v, prim.store.Version())
	}
	// the shipped commits are durable on the follower: recover its dir
	fol2 := newPeer(t, "xrpc://fol-r", "", net)
	if !enableWAL(t, fol2, folDir, WALConfig{}) {
		t.Fatal("follower dir did not recover")
	}
	if filmDoc(t, fol2.store) != filmDoc(t, prim.store) {
		t.Fatal("recovered follower differs from primary")
	}

	// an empty peer has no common history: snapshot-transfer fallback
	blank := newPeer(t, "xrpc://blank", "", net)
	enableWAL(t, blank, t.TempDir(), WALConfig{})
	v, err = blank.server.ResyncFrom(prim.uri)
	if err != nil {
		t.Fatalf("ResyncFrom (snapshot mode): %v", err)
	}
	if v != prim.store.Version() || filmDoc(t, blank.store) != filmDoc(t, prim.store) {
		t.Fatal("snapshot resync did not converge to the primary's state")
	}
}

// An ill-kinded primitive — a replace node of an attribute by an
// element — is rejected under the commit lock, and the lock is free
// again for the next commit. A panic inside applyDurable would leave
// the lock held: net/http recovers the handler, and every later write
// on the peer blocks.
func TestRejectedCommitLeavesWritesOpen(t *testing.T) {
	p := newPeer(t, "xrpc://w.example.org", filmDB, netsim.NewNetwork(0, 0))
	enableWAL(t, p, t.TempDir(), WALConfig{})
	if err := p.store.LoadXML("a.xml", `<r><p id="1">t</p></r>`); err != nil {
		t.Fatal(err)
	}
	doc := storetest.Doc(t, p.store, "a.xml")
	id := doc.Children[0].Children[0].Attrs[0]
	bad := &interp.UpdateList{}
	bad.Add(interp.Primitive{Kind: interp.PrimReplaceNode, Target: id,
		Source: []*xdm.Node{xdm.NewElement("x").Seal()}})
	err := func() (err error) {
		defer func() { // what net/http does with a handler's panic
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return p.server.Apply(bad, nil)
	}()
	var xe *xdm.Error
	if !errors.As(err, &xe) || xe.Code != "XUTY0011" {
		t.Errorf("ill-kinded commit: %v, want XUTY0011", err)
	}

	good := &interp.UpdateList{}
	good.Add(interp.Primitive{Kind: interp.PrimReplaceValue, Target: id, Value: "2"})
	done := make(chan error, 1)
	go func() { done <- p.server.Apply(good, nil) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a valid commit is still blocked after the rejected one")
	}
	if doc := storetest.Doc(t, p.store, "a.xml"); xdm.SerializeNode(doc) != `<r><p id="2">t</p></r>` {
		t.Fatalf("a.xml = %s", xdm.SerializeNode(doc))
	}
}
