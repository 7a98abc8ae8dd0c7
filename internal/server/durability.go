package server

import (
	"fmt"

	"xrpc/internal/interp"
	"xrpc/internal/store"
	"xrpc/internal/wal"
	"xrpc/internal/xdm"
)

// Durability: the XRPC write path already serializes every commit as a
// pending update list (pulwire.go) fenced by the post-commit
// store.Version — exactly a WAL record. This file routes every state
// change through one choke point (applyDurable), which applies to
// memory under the commit lock, writes the commit record in apply order
// (wal.Enqueue, still under the lock), and waits for the group-commit
// fsync outside it. Recovery (EnableWAL) loads the newest snapshot and
// replays the commit records past it.

// DefaultSnapshotBytes triggers a store snapshot (and log truncation)
// after this many bytes of appended records.
const DefaultSnapshotBytes = 8 << 20

// WALConfig configures EnableWAL.
type WALConfig struct {
	// Dir is the per-replica log directory (segments + snapshots).
	Dir string
	// SegmentBytes overrides the log rotation threshold (0 = default).
	SegmentBytes int64
	// SnapshotBytes overrides the snapshot trigger (0 = default).
	SnapshotBytes int64
	// Metrics records fsync latency and recovery counters (may be nil).
	Metrics *wal.Metrics
}

// EnableWAL makes this peer's commits durable under cfg.Dir and, when
// the directory already holds a snapshot, recovers the pre-crash state:
// snapshot restore, then replay of every commit record past it, each
// checked against the version fence it was logged with. It reports
// whether a recovery happened. Call before serving traffic.
func (s *Server) EnableWAL(cfg WALConfig) (recovered bool, err error) {
	snap, hasSnap, err := wal.LoadLatestSnapshot(cfg.Dir)
	if err != nil {
		// a directory with snapshots, none of which decode, is a damaged
		// deployment — refuse to silently restart empty over it
		return false, err
	}
	if hasSnap {
		docs := make(map[string]*xdm.Node, len(snap.Docs))
		for name, xml := range snap.Docs {
			doc, perr := xdm.ParseDocument(name, xml)
			if perr != nil {
				return false, fmt.Errorf("wal: snapshot doc %s: %w", name, perr)
			}
			docs[name] = doc
		}
		s.Store.Restore(docs, snap.Version)
		// shard identity rides in the snapshot: it is not derivable from
		// the shard's own subset of the documents
		if snap.Shards > 0 {
			s.Shard, s.Shards = snap.Shard, snap.Shards
		}
		if len(snap.Ranges) > 0 {
			s.ShardRanges = snap.Ranges
		}
		recovered = true
	}
	lg, err := wal.Open(cfg.Dir, cfg.Metrics)
	if err != nil {
		return recovered, err
	}
	if cfg.SegmentBytes > 0 {
		lg.SegmentBytes = cfg.SegmentBytes
	}
	if hasSnap {
		replayed := int64(0)
		err := lg.Replay(func(rec *wal.Record) error {
			if rec.Kind != wal.RecCommit || rec.Version <= snap.Version {
				return nil
			}
			if aerr := s.applyLogged(rec.PUL); aerr != nil {
				return fmt.Errorf("wal: replaying commit v%d: %w", rec.Version, aerr)
			}
			if got := s.Store.Version(); got != rec.Version {
				return fmt.Errorf("wal: replay fence: store at v%d after commit logged as v%d", got, rec.Version)
			}
			replayed++
			return nil
		})
		if err != nil {
			lg.Close()
			return recovered, err
		}
		cfg.Metrics.CountReplayed(replayed)
	} else {
		if lg.Newest() > s.Store.Version() {
			lg.Close()
			return false, fmt.Errorf("wal: %s holds commits through v%d but no snapshot", cfg.Dir, lg.Newest())
		}
		// fresh enable: the current in-memory state becomes snapshot zero,
		// so recovery always has a floor to replay from
		if werr := wal.WriteSnapshot(cfg.Dir, s.buildSnapshot()); werr != nil {
			lg.Close()
			return false, werr
		}
		cfg.Metrics.CountSnapshot()
	}
	s.wal = lg
	s.walMetrics = cfg.Metrics
	s.snapBytes = cfg.SnapshotBytes
	return recovered, nil
}

// WAL exposes the peer's log (nil when durability is off) for tests and
// the shutdown path.
func (s *Server) WAL() *wal.Log { return s.wal }

// SetWALMetrics attaches (or swaps) the WAL metric sink after EnableWAL
// — for deployments that build their observability registry after the
// cluster (tests, the obs smoke) instead of threading it through
// WALConfig.
func (s *Server) SetWALMetrics(m *wal.Metrics) {
	s.walMetrics = m
	if s.wal != nil {
		s.wal.Metrics = m
	}
}

// CloseWAL flushes and closes the log (idempotent).
func (s *Server) CloseWAL() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}

// applyDurable applies one transaction's pending updates (computed
// against own, see interp.ApplyUpdates) and makes them durable before
// returning: apply to memory and enqueue the commit record — carrying
// the exact post-apply version, the same value the coordinator's
// replica fence compares — under the commit lock (so the log is in apply
// order), then wait for the covering group-commit fsync outside it (so
// concurrent transactions share one flush).
func (s *Server) applyDurable(qid string, pul *interp.UpdateList, own *store.Snapshot) (int64, error) {
	v, seq, err := s.applyAndEnqueue(qid, pul, own)
	if err != nil || pul.Empty() || s.wal == nil {
		return v, err
	}
	if err := s.wal.WaitDurable(seq); err != nil {
		return 0, err
	}
	s.maybeSnapshot()
	return v, nil
}

// applyAndEnqueue is applyDurable's part under the commit lock: apply,
// then enqueue the commit record. It returns the post-apply version and
// the record's log sequence number.
func (s *Server) applyAndEnqueue(qid string, pul *interp.UpdateList, own *store.Snapshot) (int64, uint64, error) {
	s.iso.commitMu.Lock()
	defer s.iso.commitMu.Unlock()
	if pul.Empty() {
		return s.Store.Version(), 0, nil
	}
	// the record is encoded before the apply: a structural commit in
	// place reseals the targets' tree, and with it the ordinals the
	// record must name
	var rec []byte
	if s.wal != nil {
		rec = []byte(xdm.SerializeNode(EncodePUL(pul)))
	}
	if err := interp.ApplyUpdates(s.Store, pul, own); err != nil {
		return 0, 0, err
	}
	v := s.Store.Version()
	if s.wal == nil {
		return v, 0, nil
	}
	// applied in memory but not loggable: the sticky log error fails
	// this and every later commit (fail closed)
	seq, err := s.wal.Enqueue(&wal.Record{
		Kind: wal.RecCommit, Version: v, QID: qid, PUL: rec,
	})
	if err != nil {
		return 0, 0, err
	}
	return v, seq, nil
}

// logPrepare records a prepared transaction's PUL before the Prepare
// ack leaves this peer. Enqueued, not fsync'd: recovery replays only
// commit records — a crashed participant loses its prepared in-memory
// state regardless, and the in-doubt transaction resolves through the
// coordinator's abort path or the queryID timeout, never through this
// record. Keeping the prepare record off the forced-flush path spares
// every multi-shard update one fsync per participant; the record still
// reaches disk with the next commit's group flush (or Close), where it
// documents the transaction's history for forensics.
func (s *Server) logPrepare(qid string, pulNode *xdm.Node) error {
	if s.wal == nil || pulNode == nil {
		return nil
	}
	_, err := s.wal.Enqueue(&wal.Record{
		Kind: wal.RecPrepare, QID: qid,
		PUL: []byte(xdm.SerializeNode(pulNode)),
	})
	return err
}

// logAbort records a rollback (documentation for in-doubt transactions;
// recovery ignores it, so it rides the next group flush like prepare
// records do).
func (s *Server) logAbort(qid string) {
	if s.wal == nil {
		return
	}
	s.wal.Enqueue(&wal.Record{Kind: wal.RecAbort, QID: qid})
}

// maybeSnapshot writes a snapshot (and truncates covered segments) once
// enough record bytes accumulated since the last one.
func (s *Server) maybeSnapshot() {
	limit := s.snapBytes
	if limit <= 0 {
		limit = DefaultSnapshotBytes
	}
	if s.wal.AppendedBytes() < limit {
		return
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.wal.AppendedBytes() < limit {
		return // a concurrent snapshot already reset the counter
	}
	s.SnapshotWAL()
}

// SnapshotWAL writes a store snapshot now and truncates every closed
// segment it covers, bounding the next recovery's replay length.
func (s *Server) SnapshotWAL() error {
	if s.wal == nil {
		return nil
	}
	snap := s.buildSnapshot()
	if err := wal.WriteSnapshot(s.wal.Dir(), snap); err != nil {
		return err
	}
	s.walMetrics.CountSnapshot()
	return s.wal.TruncateThrough(snap.Version)
}

// buildSnapshot serializes one consistent store state plus the shard
// identity that must survive a restart.
func (s *Server) buildSnapshot() *wal.Snapshot {
	sn := s.Store.Snapshot()
	defer sn.Release()
	out := &wal.Snapshot{
		Version: sn.Version(),
		Shard:   s.Shard, Shards: s.Shards, Ranges: s.ShardRanges,
		Docs: make(map[string]string),
	}
	for _, name := range sn.Names() {
		doc, _ := sn.Get(name)
		out.Docs[name] = xdm.SerializeNode(doc)
	}
	return out
}

// applyLogged commits a logged <xrpc:pending-updates> payload (a WAL
// record on replay) against the current state, as one version step. It
// committed once already, so it is applied as it was then, even where
// its primitives conflict (interp.UpdateList.Replay).
func (s *Server) applyLogged(pulXML []byte) error {
	sn := s.Store.Snapshot()
	defer sn.Release()
	ul, err := parsePUL(pulXML, sn)
	if err != nil {
		return err
	}
	ul.Replay = true
	return interp.ApplyUpdates(s.Store, ul, sn)
}

// parsePUL decodes a logged <xrpc:pending-updates> payload, resolving
// targets against docs (the replaying store's current state).
func parsePUL(pulXML []byte, docs interp.DocResolver) (*interp.UpdateList, error) {
	if len(pulXML) == 0 {
		return nil, fmt.Errorf("empty PUL payload")
	}
	nodes, err := xdm.ParseFragment(string(pulXML))
	if err != nil {
		return nil, err
	}
	for _, n := range nodes {
		if n.Kind == xdm.ElementNode && n.Name == pulRootName {
			return DecodePUL(n, docs)
		}
	}
	return nil, fmt.Errorf("payload holds no <%s> element", pulRootName)
}
