package server

import (
	"time"

	"xrpc/internal/interp"
	"xrpc/internal/obs"
	"xrpc/internal/soap"
	"xrpc/internal/store"
)

// Metrics is the server request path's registry view. Every method is
// safe on a nil *Metrics via the nil-safe obs instruments; the
// observation itself adds no allocations to the buffered request path
// (guarded by TestInstrumentationAddsNoAllocs).
type Metrics struct {
	Requests      *obs.CounterVec // by decoded method ("malformed" when decode fails)
	Latency       *obs.Histogram  // handle + encode wall clock, seconds
	RequestBytes  *obs.Histogram  // decoded request body size
	ResponseBytes *obs.Counter    // response bytes written over HTTP
	Rejections    *obs.Counter    // request-size (413) rejections
	Faults        *obs.Counter    // requests answered with a SOAP fault
	// what the executor's predicate hash index did (interp.Stats.Index*)
	IndexBuilds    *obs.Counter
	IndexProbes    *obs.Counter
	IndexFallbacks *obs.Counter
}

// NewMetrics registers the request-path instrument family; labels
// (typically shard="N") distinguish peers sharing one registry.
func NewMetrics(reg *obs.Registry, labels ...obs.Label) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Requests: reg.NewCounterVec("xrpc_server_requests_total",
			"XRPC requests handled, by method.", "method", labels...),
		Latency: reg.NewHistogram("xrpc_server_request_seconds",
			"Request handling latency (decode, execute, encode).",
			obs.DefLatencyBuckets, labels...),
		RequestBytes: reg.NewHistogram("xrpc_server_request_size_bytes",
			"Decoded request body sizes.", obs.DefSizeBuckets, labels...),
		ResponseBytes: reg.NewCounter("xrpc_server_response_bytes_total",
			"Response bytes written to HTTP clients.", labels...),
		Rejections: reg.NewCounter("xrpc_server_request_rejections_total",
			"Requests rejected for exceeding MaxRequestBytes.", labels...),
		Faults: reg.NewCounter("xrpc_server_faults_total",
			"Requests answered with a SOAP fault.", labels...),
		IndexBuilds: reg.NewCounter("xrpc_exec_index_builds_total",
			"Predicate hash indexes built by executed requests.", labels...),
		IndexProbes: reg.NewCounter("xrpc_exec_index_probes_total",
			"Predicate applications answered from a hash index.", labels...),
		IndexFallbacks: reg.NewCounter("xrpc_exec_index_fallbacks_total",
			"Calls that evaluated a predicate row-at-a-time.", labels...),
	}
}

// RegisterCacheMetrics promotes the server-side cache tiers onto the
// registry: the response cache's cache.Stats and the executor's
// prepared-plan cache counters — the same numbers shardInfo reports, so
// /metrics and system calls share one source of truth.
func (s *Server) RegisterCacheMetrics(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	if s.RespCache != nil {
		rc := s.RespCache
		reg.CounterFunc("xrpc_respcache_hits_total",
			"Response cache hits.", func() int64 { return rc.Stats().Hits }, labels...)
		reg.CounterFunc("xrpc_respcache_misses_total",
			"Response cache misses.", func() int64 { return rc.Stats().Misses }, labels...)
		reg.CounterFunc("xrpc_respcache_evictions_total",
			"Response cache evictions (capacity and version-fence).",
			func() int64 { return rc.Stats().Evictions }, labels...)
		reg.GaugeFunc("xrpc_respcache_entries",
			"Response cache resident entries.",
			func() float64 { return float64(rc.Stats().Entries) }, labels...)
		reg.GaugeFunc("xrpc_respcache_bytes",
			"Response cache resident bytes.",
			func() float64 { return float64(rc.Stats().Bytes) }, labels...)
	}
	if x, ok := s.Exec.(*NativeExecutor); ok {
		x.plans.RegisterMetrics(reg, "module", labels...)
	}
	if s.Store != nil {
		st := s.Store
		reg.GaugeFunc("xrpc_store_version",
			"Store commit version (the cache fence).",
			func() float64 { return float64(st.Version()) }, labels...)
		const commitsHelp = "Store commits: written in place, or cloned because a reader pinned the document."
		path := func(p string) []obs.Label {
			return append(labels[:len(labels):len(labels)], obs.Label{Key: "path", Value: p})
		}
		reg.CounterFunc("xrpc_store_commits_total", commitsHelp,
			func() int64 { n, _ := st.Commits(); return n }, path("in_place")...)
		reg.CounterFunc("xrpc_store_commits_total", commitsHelp,
			func() int64 { _, n := st.Commits(); return n }, path("clone")...)
	}
}

// reqMeta carries per-request facts from handle back to handleInto's
// observation point without touching the Server (stack-allocated, so
// the fast path stays alloc-free).
type reqMeta struct {
	req       *soap.Request
	snap      *store.Snapshot // the request's pinned documents (nil if none)
	exec      interp.Stats    // what Execute reported (zero when nothing executed)
	cacheHits int             // respcache calls served from stored bytes
	cacheMiss int             // respcache calls that executed
	usedCache bool
}

// observe records the request into the metrics and, past the threshold,
// the slow-query log. fault is non-nil when the request ended in one.
func (s *Server) observe(meta *reqMeta, body []byte, d time.Duration, fault *soap.Fault) {
	if m := s.Metrics; m != nil {
		method := "malformed"
		if meta.req != nil {
			method = meta.req.Method
		}
		m.Requests.With(method).Inc()
		m.Latency.ObserveDuration(d)
		m.RequestBytes.Observe(float64(len(body)))
		if fault != nil {
			m.Faults.Inc()
		}
		m.IndexBuilds.Add(int64(meta.exec.IndexBuilds))
		m.IndexProbes.Add(int64(meta.exec.IndexProbes))
		m.IndexFallbacks.Add(int64(meta.exec.IndexFallbacks))
	}
	if !s.SlowLog.Slow(d) {
		return
	}
	// slow path only from here: minting and attribute building allocate,
	// the threshold gate above keeps that off fast requests
	var module, method, trace string
	calls := 0
	if meta.req != nil {
		module, method, trace = meta.req.Module, meta.req.Method, meta.req.TraceID
		calls = len(meta.req.Calls)
	}
	if trace == "" {
		trace = obs.NewTraceID() // untraced request: correlate at least this log line
	}
	attrs := []any{
		"trace_id", trace,
		"module", module,
		"method", method,
		"calls", calls,
		"index_builds", meta.exec.IndexBuilds,
		"index_probes", meta.exec.IndexProbes,
		"shard", s.Shard,
		"dur_ms", d.Milliseconds(),
		"bytes_in", len(body),
		"query_hash", obs.QueryHash(body),
	}
	if meta.usedCache {
		attrs = append(attrs, "cache_hits", meta.cacheHits, "cache_misses", meta.cacheMiss)
	}
	if fault != nil {
		attrs = append(attrs, "fault", fault.Reason)
	}
	s.SlowLog.Log("slow query", attrs...)
}
