package cluster

import (
	"strconv"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/obs"
	"xrpc/internal/txn"
)

// fanoutBuckets sizes the scatter fan-out histogram (shards contacted).
var fanoutBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// Metrics is the coordinator's registry view of scatter-gather: how
// requests fan out, where per-shard time goes (open vs. first merged
// item vs. merge), and the failure-handling counters (replica
// failovers, evictions, 2PC verbs). Per-shard histograms are resolved
// into slices at construction so the hot path indexes instead of
// formatting labels. A nil *Metrics disables all recording.
type Metrics struct {
	Scatters  *obs.CounterVec // executed reads, by strategy: "routed" | "pruned" | "broadcast"
	Streams   *obs.CounterVec // merged part streams, by how their items were forwarded: "raw" | "decoded"
	Updates   *obs.Counter    // routed updating bulk requests
	Fanout    *obs.Histogram  // shards contacted per scatter
	Latency   *obs.Histogram  // whole-scatter wall clock
	Merge     *obs.Histogram  // shard-order merge wall clock
	Failovers *obs.Counter    // replica-list walks past the primary
	Evictions *obs.Counter    // replicas evicted (demoted) from the routing table
	Resyncs   *obs.Counter    // resyncFrom rounds driven against demoted replicas
	Rejoins   *obs.Counter    // demoted replicas re-added after catching up

	// Open[s]: time from posting shard s's request to its response
	// stream being open (header parsed — the first response bytes).
	Open []*obs.Histogram
	// FirstItem[s]: time from merge start to shard s's first merged
	// item (includes waiting behind earlier shards in shard order).
	FirstItem []*obs.Histogram
	// Call[s]: whole buffered call latency at shard s (ScatterBuffered
	// and fence probes — the read pipeline itself only streams).
	Call []*obs.Histogram

	// Txn counts the 2PC verbs of routed updates (shared across the
	// per-query txn.Coordinators that Update creates).
	Txn *txn.Metrics
}

// NewMetrics registers the coordinator instrument family for a cluster
// of the given shard count. A nil registry returns nil.
func NewMetrics(reg *obs.Registry, shards int) *Metrics {
	if reg == nil {
		return nil
	}
	m := &Metrics{
		Scatters: reg.NewCounterVec("xrpc_cluster_scatters_total",
			"Read executions, by planned strategy.", "strategy"),
		Streams: reg.NewCounterVec("xrpc_cluster_gather_streams_total",
			"Part streams merged, by whether their items were forwarded as the shard's bytes or decoded.", "forward"),
		Updates: reg.NewCounter("xrpc_cluster_updates_total",
			"Routed updating bulk requests."),
		Fanout: reg.NewHistogram("xrpc_cluster_scatter_fanout_shards",
			"Shards contacted per scatter.", fanoutBuckets),
		Latency: reg.NewHistogram("xrpc_cluster_scatter_seconds",
			"Whole-scatter latency (open, merge, encode).", obs.DefLatencyBuckets),
		Merge: reg.NewHistogram("xrpc_cluster_merge_seconds",
			"Shard-order merge wall clock.", obs.DefLatencyBuckets),
		Failovers: reg.NewCounter("xrpc_cluster_failovers_total",
			"Replica failover attempts (walks past a failed replica)."),
		Evictions: reg.NewCounter("xrpc_cluster_evictions_total",
			"Replicas evicted (demoted) from the routing table."),
		Resyncs: reg.NewCounter("xrpc_cluster_resyncs_total",
			"Resync rounds driven against demoted replicas."),
		Rejoins: reg.NewCounter("xrpc_cluster_rejoins_total",
			"Demoted replicas rejoined after resync."),
	}
	m.Open = make([]*obs.Histogram, shards)
	m.FirstItem = make([]*obs.Histogram, shards)
	m.Call = make([]*obs.Histogram, shards)
	for s := 0; s < shards; s++ {
		lbl := obs.Label{Key: "shard", Value: strconv.Itoa(s)}
		m.Open[s] = reg.NewHistogram("xrpc_cluster_shard_open_seconds",
			"Per-shard response-stream open latency.", obs.DefLatencyBuckets, lbl)
		m.FirstItem[s] = reg.NewHistogram("xrpc_cluster_shard_first_item_seconds",
			"Per-shard time to first merged item.", obs.DefLatencyBuckets, lbl)
		m.Call[s] = reg.NewHistogram("xrpc_cluster_shard_call_seconds",
			"Per-shard buffered call latency.", obs.DefLatencyBuckets, lbl)
	}
	m.Txn = txn.NewMetrics(reg)
	return m
}

func (m *Metrics) countScatter(strategy string) {
	if m != nil {
		m.Scatters.With(strategy).Inc()
	}
}

func (m *Metrics) countStream(raw bool) {
	if m == nil {
		return
	}
	forward := "decoded"
	if raw {
		forward = "raw"
	}
	m.Streams.With(forward).Inc()
}

func (m *Metrics) countFailovers(n int) {
	if m != nil {
		m.Failovers.Add(int64(n))
	}
}

// RegisterMetrics promotes the result cache's semantic counters onto a
// registry — the same atomics Stats() snapshots, so /metrics and
// in-process experiments agree.
func (rc *ResultCache) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("xrpc_resultcache_hits_total",
		"Merged-result cache full hits (every shard fence matched).", rc.Hits.Load)
	reg.CounterFunc("xrpc_resultcache_partial_hits_total",
		"Merged-result cache partial hits (only stale shards re-queried).", rc.PartialHits.Load)
	reg.CounterFunc("xrpc_resultcache_misses_total",
		"Merged-result cache misses.", rc.Misses.Load)
	reg.CounterFunc("xrpc_resultcache_revalidations_total",
		"Shard fence probes for cached entries.", rc.Revalidations.Load)
	reg.CounterFunc("xrpc_resultcache_evictions_total",
		"Merged-result cache capacity evictions.",
		func() int64 { return rc.Stats().Evictions })
	reg.GaugeFunc("xrpc_resultcache_entries",
		"Merged-result cache resident entries.",
		func() float64 { return float64(rc.Stats().Entries) })
	reg.GaugeFunc("xrpc_resultcache_bytes",
		"Merged-result cache resident bytes.",
		func() float64 { return float64(rc.Stats().Bytes) })
}

// observeScatter records whole-scatter facts (fan-out, latency) and,
// past the slow-query threshold, a structured record with the trace ID
// and per-shard open timings — the coordinator half of the slow-query
// log (each shard's server writes its own half under the same trace).
// The planner's strategy and its estimated cost sit next to the actual
// duration, so mispredictions are visible in the log.
func (co *Coordinator) observeScatter(br *client.BulkRequest, streams []*partStream, d time.Duration, dec *planDecision) {
	if m := co.Metrics; m != nil {
		m.Fanout.Observe(float64(len(streams)))
		m.Latency.ObserveDuration(d)
	}
	if !co.SlowLog.Slow(d) {
		return
	}
	trace := br.TraceID
	if trace == "" {
		trace = obs.NewTraceID()
	}
	attrs := []any{
		"trace_id", trace,
		"module", br.ModuleURI,
		"method", br.Func,
		"calls", len(br.Calls),
		"fanout", len(streams),
		"dur_ms", d.Milliseconds(),
		"strategy", dec.strategy,
	}
	if dec.est > 0 {
		attrs = append(attrs,
			"est_cost_ms", dec.est*1000,
			"est_alt_cost_ms", dec.estAlt*1000)
	}
	if len(streams) > 0 {
		shardMS := make([]float64, len(streams))
		for i, ps := range streams {
			shardMS[i] = float64(ps.openDur.Microseconds()) / 1000
		}
		attrs = append(attrs, "shard_open_ms", shardMS)
	}
	co.SlowLog.Log("slow scatter", attrs...)
}
