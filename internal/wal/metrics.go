package wal

import (
	"time"

	"xrpc/internal/obs"
)

// Metrics is the WAL's registry view: where commit latency goes (the
// fsync), how well group commit amortizes (appends per fsync batch),
// and the recovery-path counters (records replayed, torn tails
// discarded, snapshots written). A nil *Metrics disables all recording
// — every method is nil-receiver-safe, mirroring the obs package's
// nil-instrument fast path.
type Metrics struct {
	// FsyncSeconds observes each group-commit fsync — the disk half of
	// commit latency. Appends per second divided by fsync batches per
	// second is the group-commit amortization factor.
	FsyncSeconds *obs.Histogram
	// AppendSeconds observes whole-append latency (enqueue + wait for a
	// covering flush), the caller-visible durability cost.
	AppendSeconds *obs.Histogram
	Appends       *obs.CounterVec // record kind: "prepare" | "commit" | "abort"
	FsyncBatches  *obs.Counter
	Replayed      *obs.Counter // commit records applied during recovery
	TornRecords   *obs.Counter // torn/corrupt tails discarded at Open
	Snapshots     *obs.Counter // store snapshots written
}

// NewMetrics registers the WAL instrument family on reg (nil registry
// returns nil). Labels — typically shard="N" — distinguish the logs of
// peers sharing one registry.
func NewMetrics(reg *obs.Registry, labels ...obs.Label) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		FsyncSeconds: reg.NewHistogram("xrpc_wal_fsync_seconds",
			"Group-commit fsync latency.", obs.DefLatencyBuckets, labels...),
		AppendSeconds: reg.NewHistogram("xrpc_wal_append_seconds",
			"Whole WAL append latency (write + covering fsync).", obs.DefLatencyBuckets, labels...),
		Appends: reg.NewCounterVec("xrpc_wal_appends_total",
			"WAL records appended, by kind.", "kind", labels...),
		FsyncBatches: reg.NewCounter("xrpc_wal_fsync_batches_total",
			"Group-commit fsync batches (appends/batches = amortization).", labels...),
		Replayed: reg.NewCounter("xrpc_wal_replayed_records_total",
			"Commit records replayed during crash recovery.", labels...),
		TornRecords: reg.NewCounter("xrpc_wal_torn_tails_total",
			"Torn or corrupt log tails discarded at open.", labels...),
		Snapshots: reg.NewCounter("xrpc_wal_snapshots_total",
			"Store snapshots written (each bounds replay and truncates segments).", labels...),
	}
}

func kindName(kind byte) string {
	switch kind {
	case RecPrepare:
		return "prepare"
	case RecCommit:
		return "commit"
	case RecAbort:
		return "abort"
	default:
		return "unknown"
	}
}

func (m *Metrics) countAppend(kind byte) {
	if m != nil {
		m.Appends.With(kindName(kind)).Inc()
	}
}

func (m *Metrics) observeFsync(d time.Duration) {
	if m != nil {
		m.FsyncSeconds.ObserveDuration(d)
		m.FsyncBatches.Inc()
	}
}

func (m *Metrics) observeAppendLatency(d time.Duration) {
	if m != nil {
		m.AppendSeconds.ObserveDuration(d)
	}
}

func (m *Metrics) countTorn(n int64) {
	if m != nil {
		m.TornRecords.Add(n)
	}
}

func (m *Metrics) countReplayed(n int64) {
	if m != nil {
		m.Replayed.Add(n)
	}
}

// CountSnapshot records one snapshot write (called by the server's
// snapshot policy, which owns the write).
func (m *Metrics) CountSnapshot() {
	if m != nil {
		m.Snapshots.Inc()
	}
}

// CountReplayed records n replayed commit records (recovery lives in
// the server package).
func (m *Metrics) CountReplayed(n int64) { m.countReplayed(n) }
