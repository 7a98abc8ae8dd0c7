package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestRecordRoundTrip(t *testing.T) {
	recs := []*Record{
		{Kind: RecPrepare, QID: "q1", PUL: []byte("<xrpc:pending-updates/>")},
		{Kind: RecCommit, Version: 42, QID: "query-2", PUL: []byte("<xrpc:pending-updates><p/></xrpc:pending-updates>")},
		{Kind: RecAbort, QID: "q3"},
		{Kind: RecCommit, Version: 1}, // empty qid and pul
	}
	for _, want := range recs {
		got, err := DecodeRecord(EncodeRecord(want))
		if err != nil {
			t.Fatalf("decode(encode(%+v)): %v", want, err)
		}
		if got.Kind != want.Kind || got.Version != want.Version || got.QID != want.QID ||
			!bytes.Equal(got.PUL, want.PUL) {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
		}
	}
}

func TestDecodeRecordRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{RecCommit},                       // too short
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // kind 0
		{RecPrepare, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff}, // qid overruns
	}
	for i, c := range cases {
		if _, err := DecodeRecord(c); err == nil {
			t.Errorf("case %d: garbage decoded without error", i)
		}
	}
}

func commitRec(v int64, pul string) *Record {
	return &Record{Kind: RecCommit, Version: v, QID: fmt.Sprintf("q%d", v), PUL: []byte(pul)}
}

func TestLogAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	lg, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Append(&Record{Kind: RecPrepare, QID: "q1", PUL: []byte("<p1/>")}); err != nil {
		t.Fatal(err)
	}
	for v := int64(1); v <= 3; v++ {
		if err := lg.Append(commitRec(v, fmt.Sprintf("<pul v='%d'/>", v))); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Append(&Record{Kind: RecAbort, QID: "qx"}); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	lg2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	if got := lg2.Newest(); got != 3 {
		t.Fatalf("Newest after reopen = %d, want 3", got)
	}
	var kinds []byte
	var versions []int64
	if err := lg2.Replay(func(rec *Record) error {
		kinds = append(kinds, rec.Kind)
		if rec.Kind == RecCommit {
			versions = append(versions, rec.Version)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []byte{RecPrepare, RecCommit, RecCommit, RecCommit, RecAbort}; !bytes.Equal(kinds, want) {
		t.Fatalf("replay kinds = %v, want %v", kinds, want)
	}
	for i, v := range versions {
		if v != int64(i+1) {
			t.Fatalf("replay versions = %v, want 1..3 in order", versions)
		}
	}
	// the reopened log keeps appending after the recovered prefix
	if err := lg2.Append(commitRec(4, "<pul v='4'/>")); err != nil {
		t.Fatal(err)
	}
	if got := lg2.Newest(); got != 4 {
		t.Fatalf("Newest after appending to the reopened log = %d, want 4", got)
	}
}

func TestTornTailDetectedAndTruncated(t *testing.T) {
	dir := t.TempDir()
	lg, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(1); v <= 2; v++ {
		if err := lg.Append(commitRec(v, "<pul/>")); err != nil {
			t.Fatal(err)
		}
	}
	lg.Close()

	// simulate a crash mid-append: a valid header promising more bytes
	// than were written
	path := filepath.Join(dir, "wal-00000000.log")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := appendFrame(nil, commitRec(3, "<pul torn='yes'/>"))
	if _, err := f.Write(torn[:len(torn)-5]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	lg2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	var versions []int64
	if err := lg2.Replay(func(rec *Record) error {
		versions = append(versions, rec.Version)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(versions) != 2 {
		t.Fatalf("torn tail not discarded: replayed %v", versions)
	}
	// appending after truncation lands on a clean frame boundary
	if err := lg2.Append(commitRec(3, "<pul v='3'/>")); err != nil {
		t.Fatal(err)
	}
	lg2.Close()
	lg3, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lg3.Close()
	if got := lg3.Newest(); got != 3 {
		t.Fatalf("Newest after post-torn append = %d, want 3", got)
	}
}

func TestCorruptFrameEndsReplay(t *testing.T) {
	dir := t.TempDir()
	lg, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(1); v <= 3; v++ {
		if err := lg.Append(commitRec(v, "<pul/>")); err != nil {
			t.Fatal(err)
		}
	}
	lg.Close()
	// flip one payload byte of the middle record
	path := filepath.Join(dir, "wal-00000000.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frameLen := len(appendFrame(nil, commitRec(1, "<pul/>")))
	data[len(segMagic)+frameLen+frameHeaderLen+3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	lg2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	var versions []int64
	lg2.Replay(func(rec *Record) error {
		versions = append(versions, rec.Version)
		return nil
	})
	if len(versions) != 1 || versions[0] != 1 {
		t.Fatalf("corrupt frame did not end the durable prefix: %v", versions)
	}
}

func TestSegmentRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	lg, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	lg.SegmentBytes = 256 // force rotation every few records
	pul := bytes.Repeat([]byte("x"), 64)
	for v := int64(1); v <= 20; v++ {
		if err := lg.Append(&Record{Kind: RecCommit, Version: v, QID: "q", PUL: pul}); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := lg.segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %v", segs)
	}
	// truncating through version 10 removes every closed segment whose
	// commits are all <= 10
	if err := lg.TruncateThrough(10); err != nil {
		t.Fatal(err)
	}
	left, err := lg.segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(left) >= len(segs) {
		t.Fatalf("truncate removed nothing: %v -> %v", segs, left)
	}
	// every commit past the truncation point survives, in order
	var versions []int64
	if err := lg.Replay(func(rec *Record) error {
		versions = append(versions, rec.Version)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(versions) == 0 || versions[0] > 11 || versions[len(versions)-1] != 20 {
		t.Fatalf("replay after truncate = %v, want a run ending at 20 that covers 11", versions)
	}
	for i := 1; i < len(versions); i++ {
		if versions[i] != versions[i-1]+1 {
			t.Fatalf("replay after truncate has a gap: %v", versions)
		}
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	lg, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = lg.Append(&Record{Kind: RecPrepare, QID: fmt.Sprintf("q%d", i), PUL: []byte("<p/>")})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	lg.Close()
	lg2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	count := 0
	lg2.Replay(func(*Record) error { count++; return nil })
	if count != n {
		t.Fatalf("replayed %d of %d concurrent appends", count, n)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snap := &Snapshot{
		Version: 17,
		Shard:   2,
		Shards:  4,
		Ranges:  []string{`"persons.xml""/site/people/person"[person2,person5)`},
		Docs: map[string]string{
			"persons.xml": "<site><people><person id=\"person2\"/></people></site>",
			"extra.xml":   "<x/>",
		},
	}
	if err := WriteSnapshot(dir, snap); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadLatestSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if got.Version != snap.Version || got.Shard != snap.Shard || got.Shards != snap.Shards {
		t.Fatalf("meta mismatch: %+v", got)
	}
	if len(got.Ranges) != 1 || got.Ranges[0] != snap.Ranges[0] {
		t.Fatalf("ranges mismatch: %v", got.Ranges)
	}
	for name, xml := range snap.Docs {
		if got.Docs[name] != xml {
			t.Fatalf("doc %s mismatch", name)
		}
	}
	// a newer snapshot supersedes and removes the old one
	snap2 := &Snapshot{Version: 30, Docs: map[string]string{"persons.xml": "<site/>"}}
	if err := WriteSnapshot(dir, snap2); err != nil {
		t.Fatal(err)
	}
	got2, ok, err := LoadLatestSnapshot(dir)
	if err != nil || !ok || got2.Version != 30 {
		t.Fatalf("latest after second write: %+v ok=%v err=%v", got2, ok, err)
	}
	vs, _ := snapVersions(dir)
	if len(vs) != 1 || vs[0] != 30 {
		t.Fatalf("old snapshot not reclaimed: %v", vs)
	}
	if !HasSnapshot(dir) {
		t.Fatal("HasSnapshot is false for a dir holding one")
	}
	if HasSnapshot(t.TempDir()) {
		t.Fatal("HasSnapshot is true for an empty dir")
	}
}

func TestSnapshotCorruptionFallsBackOrErrors(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, &Snapshot{Version: 5, Docs: map[string]string{"a.xml": "<a/>"}}); err != nil {
		t.Fatal(err)
	}
	// corrupt the only snapshot: loading must fail loudly, not return
	// garbage state
	path := snapPath(dir, 5)
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xff
	os.WriteFile(path, data, 0o644)
	if _, ok, err := LoadLatestSnapshot(dir); ok || err == nil {
		t.Fatalf("corrupt-only snapshot: ok=%v err=%v", ok, err)
	}
}
