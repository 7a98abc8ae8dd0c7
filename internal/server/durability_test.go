package server

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/netsim"
	"xrpc/internal/obs"
	"xrpc/internal/soap"
	"xrpc/internal/store"
	"xrpc/internal/store/storetest"
	"xrpc/internal/wal"
	"xrpc/internal/xdm"
	"xrpc/internal/xquf"
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

// The known loss window of a 2PC participant: the Prepare record is
// enqueued, not fsync'd, and recovery replays only commit records, so a
// peer restarted on the same log directory between its Prepare ack and
// the Commit has forgotten the prepared update. The Commit answers
// XRPC0006 and the store stays as it was before the update. Even a
// clean shutdown, which flushes the prepare record to disk, loses it.
// Making the prepare promise durable turns this test around.
func TestPreparedUpdateLostOnRestart(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	dir := t.TempDir()
	p := newPeer(t, "xrpc://durable-prepared", filmDBY, net)
	enableWAL(t, p, dir, WALConfig{})
	wantVersion, wantDoc := p.store.Version(), filmDoc(t, p.store)

	qid := &soap.QueryID{ID: "q-prepared", Host: "xrpc://local", Timestamp: time.Now(), Timeout: 60}
	verb := func(uri, name string) error {
		cl := client.New(net)
		cl.QueryID = qid
		_, err := cl.CallBulk(uri, &client.BulkRequest{ModuleURI: WSATModule, Func: name, Calls: [][]xdm.Sequence{{}}})
		return err
	}
	cl := client.New(net)
	cl.QueryID = qid
	if _, err := cl.CallBulk(p.uri, &client.BulkRequest{
		ModuleURI: "upd", Func: "addFilm", Arity: 2, Updating: true,
		Calls: [][]xdm.Sequence{{{xdm.String("Prepared Film")}, {xdm.String("P")}}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := verb(p.uri, "Prepare"); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if err := p.server.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	p2 := newPeer(t, "xrpc://durable-prepared-r", "", net)
	if !enableWAL(t, p2, dir, WALConfig{}) {
		t.Fatal("no recovery")
	}
	err := verb(p2.uri, "Commit")
	if err == nil || !strings.Contains(err.Error(), "XRPC0006") {
		t.Fatalf("Commit after the restart: %v, want XRPC0006", err)
	}
	if p2.store.Version() != wantVersion || filmDoc(t, p2.store) != wantDoc {
		t.Fatalf("store after the restart and Commit is v%d (want v%d) or its document changed",
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
	enableWAL(t, p, dir, WALConfig{SnapshotBytes: 1024})
	p.server.WAL().SegmentBytes = 512
	for i := 0; i < 25; i++ {
		addFilm(t, net, p.uri, fmt.Sprintf("Film %d", i), "Actor")
	}
	wantVersion, wantDoc := p.store.Version(), filmDoc(t, p.store)
	// the snapshot policy ran and truncated the log: its first segment
	// is gone
	if _, err := os.Stat(filepath.Join(dir, "wal-00000000.log")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("first log segment survived the snapshot policy (stat: %v)", err)
	}

	p2 := newPeer(t, "xrpc://durable-snap-r", "", net)
	if !enableWAL(t, p2, dir, WALConfig{}) {
		t.Fatal("no recovery")
	}
	if p2.store.Version() != wantVersion || filmDoc(t, p2.store) != wantDoc {
		t.Fatalf("recovered v%d, want v%d (or documents differ)", p2.store.Version(), wantVersion)
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
	id := doc.Children()[0].Children()[0].Attrs[0]
	bad := &xquf.UpdateList{}
	bad.Add(xquf.Primitive{Kind: xquf.PrimReplaceNode, Target: id,
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

	good := &xquf.UpdateList{}
	good.Add(xquf.Primitive{Kind: xquf.PrimReplaceValue, Target: id, Value: "2"})
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

// A re-sent Commit (its first reply was lost) answers the version the
// first one produced, with no second apply and no second log record,
// for at least the queryID's isolation timeout; once the record has
// rotated out twice, the queryID is unknown again (XRPC0006).
func TestResentCommitAnswersItsVersion(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	p := newPeer(t, "xrpc://durable-resent", filmDBY, net)
	enableWAL(t, p, t.TempDir(), WALConfig{})
	now := time.Now()
	p.server.Now = func() time.Time { return now }
	cl := client.New(net)
	cl.QueryID = &soap.QueryID{ID: "q-resent", Host: "xrpc://local", Timestamp: now, Timeout: 10}
	if _, err := cl.CallBulk(p.uri, &client.BulkRequest{
		ModuleURI: "upd", Func: "addFilm", Arity: 2, Updating: true,
		Calls: [][]xdm.Sequence{{{xdm.String("Once")}, {xdm.String("A")}}},
	}); err != nil {
		t.Fatal(err)
	}
	verb := func(name string) (xdm.Sequence, error) {
		res, err := cl.CallBulk(p.uri, &client.BulkRequest{ModuleURI: WSATModule, Func: name, Calls: [][]xdm.Sequence{{}}})
		if err != nil {
			return nil, err
		}
		return res[0], nil
	}
	if _, err := verb("Prepare"); err != nil {
		t.Fatal(err)
	}
	first, err := verb("Commit")
	if err != nil {
		t.Fatal(err)
	}
	version, logged := p.store.Version(), p.server.wal.AppendedBytes()
	// a later transaction's read rotates the records once, 11 s on
	now = now.Add(11 * time.Second)
	read := func(id string) {
		other := client.New(net)
		other.QueryID = &soap.QueryID{ID: id, Host: "xrpc://local", Timestamp: now, Timeout: 10}
		if _, err := other.CallBulk(p.uri, &client.BulkRequest{
			ModuleURI: "films", AtHint: "http://x.example.org/film.xq", Func: "filmsByActor", Arity: 1,
			Calls: [][]xdm.Sequence{{{xdm.String("A")}}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	read("q-later-1")
	again, err := verb("Commit")
	if err != nil {
		t.Fatalf("re-sent Commit: %v", err)
	}
	if xdm.SerializeSequence(again) != xdm.SerializeSequence(first) {
		t.Errorf("re-sent Commit answered %s, the first %s", xdm.SerializeSequence(again), xdm.SerializeSequence(first))
	}
	if p.store.Version() != version || p.server.wal.AppendedBytes() != logged {
		t.Errorf("re-sent Commit applied again: version %d -> %d, log %d -> %d bytes",
			version, p.store.Version(), logged, p.server.wal.AppendedBytes())
	}
	if n := strings.Count(filmDoc(t, p.store), "<name>Once</name>"); n != 1 {
		t.Errorf("the film was added %d times", n)
	}
	now = now.Add(11 * time.Second)
	read("q-later-2")
	if _, err := verb("Commit"); err == nil || !strings.Contains(err.Error(), "XRPC0006") {
		t.Errorf("Commit after the record expired: %v, want XRPC0006", err)
	}
}

// A Commit re-sent while the first one still applies (the connection
// broke before the first reply) waits for it and answers the same
// version: it neither applies again nor finds the queryID unknown.
func TestResentCommitDuringTheFirstWaitsForIt(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	p := newPeer(t, "xrpc://durable-inflight", filmDBY, net)
	enableWAL(t, p, t.TempDir(), WALConfig{})
	qid := &soap.QueryID{ID: "q-inflight", Host: "xrpc://local", Timestamp: time.Now(), Timeout: 10}
	verb := func(name string) (xdm.Sequence, error) {
		cl := client.New(net)
		cl.QueryID = qid
		res, err := cl.CallBulk(p.uri, &client.BulkRequest{ModuleURI: WSATModule, Func: name, Calls: [][]xdm.Sequence{{}}})
		if err != nil {
			return nil, err
		}
		return res[0], nil
	}
	cl := client.New(net)
	cl.QueryID = qid
	if _, err := cl.CallBulk(p.uri, &client.BulkRequest{
		ModuleURI: "upd", Func: "addFilm", Arity: 2, Updating: true,
		Calls: [][]xdm.Sequence{{{xdm.String("Once")}, {xdm.String("A")}}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := verb("Prepare"); err != nil {
		t.Fatal(err)
	}
	before := p.store.Version()

	type reply struct {
		res xdm.Sequence
		err error
	}
	commit := func() <-chan reply {
		ch := make(chan reply, 1)
		go func() {
			res, err := verb("Commit")
			ch <- reply{res, err}
		}()
		return ch
	}
	// hold the first Commit inside its apply
	p.server.iso.commitMu.Lock()
	first := commit()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		p.server.iso.mu.Lock()
		applying := p.server.iso.committing[qid.ID] != nil
		p.server.iso.mu.Unlock()
		if applying {
			break
		}
		if time.Now().After(deadline) {
			p.server.iso.commitMu.Unlock()
			t.Fatal("the first Commit never started applying")
		}
	}
	second := commit()
	select {
	case r := <-second:
		p.server.iso.commitMu.Unlock()
		t.Fatalf("the re-sent Commit answered before the first finished: %v, %v", xdm.SerializeSequence(r.res), r.err)
	case <-time.After(50 * time.Millisecond):
	}
	p.server.iso.commitMu.Unlock()
	a, b := <-first, <-second
	if a.err != nil || b.err != nil {
		t.Fatalf("first Commit: %v; re-sent Commit: %v", a.err, b.err)
	}
	if xdm.SerializeSequence(a.res) != xdm.SerializeSequence(b.res) {
		t.Errorf("re-sent Commit answered %s, the first %s", xdm.SerializeSequence(b.res), xdm.SerializeSequence(a.res))
	}
	if got := p.store.Version(); got != before+1 {
		t.Errorf("version %d -> %d, want one commit", before, got)
	}
	if n := strings.Count(filmDoc(t, p.store), "<name>Once</name>"); n != 1 {
		t.Errorf("the film was added %d times", n)
	}
}

// A log written before conflicting primitives were rejected may hold a
// commit with two replace value of one node, committed last-wins.
// Recovery replays it as it committed, and the peer starts.
func TestReplayAppliesALoggedConflictAsItCommitted(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	dir := t.TempDir()
	p := newPeer(t, "xrpc://durable-conflict", filmDB, net)
	if err := p.store.LoadXML("a.xml", `<r><p id="1">t</p></r>`); err != nil {
		t.Fatal(err)
	}
	enableWAL(t, p, dir, WALConfig{})
	id := storetest.Doc(t, p.store, "a.xml").Children()[0].Children()[0].Attrs[0]
	ul := &xquf.UpdateList{}
	for _, v := range []string{"2", "3"} {
		ul.Add(xquf.Primitive{Kind: xquf.PrimReplaceValue, Target: id, Value: v})
	}
	if err := p.server.Apply(ul, nil); err == nil || !strings.Contains(err.Error(), "XUDY0017") {
		t.Fatalf("conflicting commit: %v, want XUDY0017", err)
	}
	want := p.store.Version() + 1
	seq, err := p.server.wal.Enqueue(&wal.Record{Kind: wal.RecCommit, Version: want, QID: "q-old",
		PUL: []byte(xdm.SerializeNode(xquf.EncodePUL(ul)))})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.server.wal.WaitDurable(seq); err != nil {
		t.Fatal(err)
	}

	p2 := newPeer(t, "xrpc://durable-conflict-2", "", net)
	if recovered := enableWAL(t, p2, dir, WALConfig{}); !recovered {
		t.Fatal("existing dir did not recover")
	}
	if got := p2.store.Version(); got != want {
		t.Errorf("recovered version = %d, want %d", got, want)
	}
	if got := xdm.SerializeNode(storetest.Doc(t, p2.store, "a.xml")); got != `<r><p id="3">t</p></r>` {
		t.Errorf("a.xml = %s, want the last value", got)
	}
}
