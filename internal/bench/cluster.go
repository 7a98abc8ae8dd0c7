package bench

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/cluster"
	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/server"
	"xrpc/internal/soap"
	"xrpc/internal/store"
	"xrpc/internal/strategies"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

// ClusterBandwidth is the simulated link bandwidth of the cluster
// experiment: the ~10 MB/s effective SOAP throughput the paper measured
// on its 1 Gb/s LAN. With shipping this slow relative to CPU, the
// experiment exposes the lever sharding actually pulls: response bytes
// split across N concurrent links.
const ClusterBandwidth = 10 * 1024 * 1024

// ClusterRow is one peer-count row of the scatter-gather experiment.
type ClusterRow struct {
	Workload string
	Peers    int
	Elapsed  time.Duration
	// Verified is set when the merged response was byte-identical to
	// the single-peer response before timing started.
	Verified bool
	// CallsPerSec is bulk calls completed per second (probe workload)
	// or result MB shipped per second (scan workload).
	Throughput     float64
	ThroughputUnit string
	// BytesTotal is all bytes moved; PerShard is the received-bytes
	// split across shard peers, in shard order.
	BytesTotal int64
	PerShard   []int64
	// PeakHeapStreamed and PeakHeapBuffered are HeapAlloc high-water
	// marks (bytes) around one untimed gather: the streamed
	// shard-order merge writing the envelope straight to a sink, vs
	// the buffered collect-then-encode reference. The simulated shard
	// peers live in the same process, so the absolute numbers include
	// their documents; the comparison is the delta — the buffered
	// column grows with total response size, the streamed one does
	// not (the isolation test is TestScatterStreamBoundedMemory).
	PeakHeapStreamed uint64
	PeakHeapBuffered uint64
}

// ClusterBenchResult is the full sweep for one workload.
type ClusterBenchResult struct {
	Workload string
	Rows     []ClusterRow
}

// clusterWorkload describes one scatter-gather workload: a bulk
// request built against the shard module of §5.
type clusterWorkload struct {
	name  string
	build func(cfg xmark.Config) *client.BulkRequest
	// respBound marks the scan workload, whose throughput is reported
	// in shipped MB/s rather than calls/s.
	respBound bool
}

var clusterWorkloads = []clusterWorkload{
	{
		// Q_B3 probes: the scattered probe side of the sharded
		// semi-join. Latency-amortized: one bulk request per shard
		// carries every probe.
		name: "probe (Q_B3 semi-join)",
		build: func(cfg xmark.Config) *client.BulkRequest {
			br := &client.BulkRequest{
				ModuleURI: "functions_b",
				AtHint:    "http://example.org/b.xq",
				Func:      "Q_B3",
				Arity:     1,
			}
			for i := 0; i < cfg.Persons; i++ {
				br.Calls = append(br.Calls, []xdm.Sequence{{xdm.String(xmark.PersonID(i))}})
			}
			return br
		},
	},
	{
		// Q_B1 scan: every shard returns its auction range; the merged
		// response is the whole document in order. Bandwidth-bound:
		// each link ships 1/N of the result concurrently.
		name:      "scan (Q_B1 parallel scan)",
		respBound: true,
		build: func(cfg xmark.Config) *client.BulkRequest {
			return &client.BulkRequest{
				ModuleURI: "functions_b",
				AtHint:    "http://example.org/b.xq",
				Func:      "Q_B1",
				Arity:     0,
				Calls:     [][]xdm.Sequence{{}},
			}
		},
	},
}

// ClusterProbeRequest builds the Q_B3 probe workload (one call per
// generated person) against the §5 shard module — the request the
// probe rows of RunClusterBench scatter, exported for benchmarks that
// time the scatter path in isolation.
func ClusterProbeRequest(cfg xmark.Config) *client.BulkRequest {
	return clusterWorkloads[0].build(cfg)
}

// RunClusterBench sweeps the scatter-gather coordinator over the given
// peer counts for both cluster workloads. At every peer count the
// merged response is first verified byte-identical to a single
// unsharded peer's response; only then is the request timed (best of
// reps). Returns one result per workload.
func RunClusterBench(cfg xmark.Config, peerCounts []int, rtt time.Duration, reps int) ([]ClusterBenchResult, error) {
	if len(peerCounts) == 0 {
		peerCounts = []int{1, 2, 4, 8}
	}
	if reps < 1 {
		reps = 3
	}
	auctions := xmark.GenerateAuctions(cfg)
	reg := modules.NewRegistry()
	if err := reg.Register(strategies.FunctionsB, "http://example.org/b.xq"); err != nil {
		return nil, err
	}

	var out []ClusterBenchResult
	for _, wl := range clusterWorkloads {
		br := wl.build(cfg)
		baseline, err := clusterBaseline(reg, auctions, br, rtt)
		if err != nil {
			return nil, fmt.Errorf("cluster bench %s: baseline: %w", wl.name, err)
		}
		res := ClusterBenchResult{Workload: wl.name}
		for _, peers := range peerCounts {
			row, err := runClusterRow(reg, auctions, br, wl, peers, rtt, reps, baseline)
			if err != nil {
				return nil, fmt.Errorf("cluster bench %s peers=%d: %w", wl.name, peers, err)
			}
			res.Rows = append(res.Rows, *row)
		}
		out = append(out, res)
	}
	return out, nil
}

// clusterBaseline executes the request against one peer holding the
// unsharded document (same simulated network) and returns the encoded
// result, the identity reference for every peer count.
func clusterBaseline(reg *modules.Registry, auctions string, br *client.BulkRequest, rtt time.Duration) ([]byte, error) {
	net := netsim.NewNetwork(rtt, ClusterBandwidth)
	st := store.New()
	if err := st.LoadXML("auctions.xml", auctions); err != nil {
		return nil, err
	}
	srv := server.New(st, reg, server.NewNativeExecutor(interp.New(st, reg, nil), reg))
	net.Register("xrpc://single", srv)
	res, err := client.New(net).CallBulk("xrpc://single", br)
	if err != nil {
		return nil, err
	}
	return encodeClusterResults(br, res), nil
}

func runClusterRow(reg *modules.Registry, auctions string, br *client.BulkRequest,
	wl clusterWorkload, peers int, rtt time.Duration, reps int, baseline []byte) (*ClusterRow, error) {

	net := netsim.NewNetwork(rtt, ClusterBandwidth)
	dep, err := cluster.Deploy(net, reg, map[string]string{"auctions.xml": auctions},
		cluster.DeployConfig{Shards: peers})
	if err != nil {
		return nil, err
	}
	co := dep.Coordinator()

	// verification before timing: the merged response must be
	// byte-identical to the unsharded single-peer response
	merged, err := co.Scatter(br)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(encodeClusterResults(br, merged), baseline) {
		return nil, fmt.Errorf("merged response differs from unsharded baseline")
	}

	// warm-up above primed the function caches; now time best-of-reps
	var best time.Duration
	for r := 0; r < reps; r++ {
		start := time.Now()
		if _, err := co.Scatter(br); err != nil {
			return nil, err
		}
		d := time.Since(start)
		if r == 0 || d < best {
			best = d
		}
	}

	net.ResetStats()
	if _, err := co.Scatter(br); err != nil {
		return nil, err
	}
	row := &ClusterRow{
		Workload:   wl.name,
		Peers:      peers,
		Elapsed:    best,
		Verified:   true,
		BytesTotal: net.Stats.BytesSent.Load() + net.Stats.BytesReceived.Load(),
	}
	var respBytes int64
	for _, uri := range dep.ShardURIs() {
		_, _, recv := net.PeerStats(uri)
		row.PerShard = append(row.PerShard, recv)
		respBytes += recv
	}
	if wl.respBound {
		row.Throughput = float64(respBytes) / (1024 * 1024) / best.Seconds()
		row.ThroughputUnit = "MB/s"
	} else {
		row.Throughput = float64(len(br.Calls)) / best.Seconds()
		row.ThroughputUnit = "calls/s"
	}

	// peak-heap comparison, untimed: the streamed merge writes the
	// merged envelope straight into a sink, the buffered reference
	// collects every shard response and encodes the concatenation —
	// what the coordinator held in memory before the streaming gather
	var memErr error
	row.PeakHeapStreamed = heapHighWater(func() {
		memErr = co.ScatterStream(br, io.Discard)
	})
	if memErr != nil {
		return nil, memErr
	}
	row.PeakHeapBuffered = heapHighWater(func() {
		var res []xdm.Sequence
		if res, memErr = co.ScatterBuffered(br); memErr == nil {
			encodeClusterResults(br, res)
		}
	})
	if memErr != nil {
		return nil, memErr
	}
	return row, nil
}

func encodeClusterResults(br *client.BulkRequest, res []xdm.Sequence) []byte {
	return soap.EncodeResponse(&soap.Response{
		Module: br.ModuleURI, Method: br.Func, Results: res,
	})
}

// FormatClusterBench renders the sweep, with the per-shard byte split
// that shows the partitioner at work and the streamed-vs-buffered peak
// heap comparison that shows the bounded gather at work.
func FormatClusterBench(results []ClusterBenchResult) string {
	var b strings.Builder
	for _, res := range results {
		fmt.Fprintf(&b, "%s\n", res.Workload)
		fmt.Fprintf(&b, "  %-6s %10s %12s %12s %18s  %s\n",
			"peers", "msec", "throughput", "bytes", "peak heap s/b MiB", "response bytes per shard")
		for _, r := range res.Rows {
			shards := make([]string, len(r.PerShard))
			for i, s := range r.PerShard {
				shards[i] = fmt.Sprint(s)
			}
			fmt.Fprintf(&b, "  %-6d %10.2f %7.1f %s %12d %8.1f/%-8.1f  [%s]\n",
				r.Peers, ms(r.Elapsed), r.Throughput, r.ThroughputUnit,
				r.BytesTotal,
				float64(r.PeakHeapStreamed)/(1<<20), float64(r.PeakHeapBuffered)/(1<<20),
				strings.Join(shards, " "))
		}
	}
	return b.String()
}
