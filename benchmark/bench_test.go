package benchmark

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"xrpc/internal/server"
)

// tinyRun sets a workload up once and runs a timed phase of a few ops:
// wireSegments segments of segOps ops, every answer verified.
func tinyRun(t *testing.T, name string, seed int64, segOps int) (*stage, *phase) {
	t.Helper()
	w, ok := FindWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	t.Chdir(t.TempDir()) // the WAL root is created under the working directory
	tr := newTracer()
	st, err := setUp(w, seed, tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.close)
	ph := &phase{inst: st.inst, sys: st.sys, tr: tr, next: 2, segOps: segOps}
	ph.run(0)
	if ph.failed != 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", name, ph.failed, len(ph.latMs), ph.firstErr)
	}
	if len(ph.latMs) != wireSegments*segOps {
		t.Fatalf("%s: %d ops, want %d", name, len(ph.latMs), wireSegments*segOps)
	}
	return st, ph
}

// Every workload runs end to end at a tiny op count: identity
// verification against the oracle, verified ops, and update_mix's
// final-state check.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range Workloads {
		st, ph := tinyRun(t, w.Name, 1, 2)
		if st.inst.finish != nil {
			if err := st.inst.finish(st.sys); err != nil {
				t.Fatalf("%s: final state: %v", w.Name, err)
			}
		}
		for _, m := range endToEnd(ph, 1) {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.Name, m.Name, m.Value)
			}
		}
		st.close()
	}
}

// The same seed gives the same op list and the same bytes on the wire;
// another seed gives another op list.
func TestSeedDeterminism(t *testing.T) {
	a, pa := tinyRun(t, "point_lookup", 1, 50)
	b, pb := tinyRun(t, "point_lookup", 1, 50)
	c, _ := tinyRun(t, "point_lookup", 2, 50)
	if a.inst.opHash != b.inst.opHash {
		t.Errorf("same seed, op-list hashes %x and %x", a.inst.opHash, b.inst.opHash)
	}
	if pa.wireBytes != pb.wireBytes || pa.wireBytes == 0 {
		t.Errorf("same seed, wire bytes %d and %d", pa.wireBytes, pb.wireBytes)
	}
	if a.inst.opHash == c.inst.opHash {
		t.Errorf("seeds 1 and 2 give the same op-list hash %x", a.inst.opHash)
	}
}

// The wrappers keep the optional interfaces of what they wrap: with a
// Send-only transport wrapper the proxy would silently stop streaming.
func TestWrappersPreserveOptionalInterfaces(t *testing.T) {
	st, ph := tinyRun(t, "pushdown_scan", 1, 1)
	sys := st.sys

	// netsim.StreamTransport: every op's scatter opened one stream per shard
	if got, want := sys.proxyWire.streams.Load(), int64(numShards*(len(ph.latMs)+3)); got != want {
		t.Errorf("proxy opened %d shard streams, want %d: the gather is not streaming", got, want)
	}

	// http.Flusher: the proxy's answer to a scan arrives chunked
	ph.tr.on.Store(true) // the traced path must keep it too
	defer ph.tr.on.Store(false)
	resp, err := http.Post("http://"+sys.proxyAddr+"/xrpc", "application/soap+xml", bytes.NewReader(ph.tr.capReqFor(t, sys, st.inst)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if len(resp.TransferEncoding) != 1 || resp.TransferEncoding[0] != "chunked" {
		t.Errorf("proxy response transfer encoding %v, want chunked", resp.TransferEncoding)
	}

	// server.ParallelExecutor: SetParallelism reaches the native executor
	sys.dep.Servers[0][0].SetParallelism(3)
	if nx := sys.execs[0].inner.(*server.NativeExecutor); nx.Parallelism != 3 {
		t.Errorf("executor parallelism %d after SetParallelism(3)", nx.Parallelism)
	}
	sys.dep.Servers[0][0].SetParallelism(0)
}

// capReqFor runs one traced op and returns the request body Q sent to
// the proxy.
func (tr *tracer) capReqFor(t *testing.T, sys *system, inst *instance) []byte {
	t.Helper()
	tr.on.Store(true)
	if _, err := inst.run(sys, 0); err != nil {
		t.Fatal(err)
	}
	if tr.capReq == nil {
		t.Fatal("no request captured on the Q → proxy hop")
	}
	return tr.capReq
}

// A traced handler hands the inner handler a ResponseWriter that can
// still flush.
func TestTracedHandlerKeepsFlusher(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	flushes := false
	h := &tracedHandler{tr: tr, layer: layerProxy, shard: -1, inner: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, flushes = w.(http.Flusher)
	})}
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !flushes {
		t.Error("the traced handler hides http.Flusher")
	}
	if len(tr.spans) != 1 || tr.spans[0].layer != layerProxy {
		t.Errorf("spans %+v, want one proxy.handle span", tr.spans)
	}
}

// Two shard branches that overlap in time: the blocking path follows
// the one that finished last, self times exclude children, and the
// blocking parts sum to the op's duration.
func TestBlockingPathWithParallelShards(t *testing.T) {
	spans := []span{
		{layer: layerOp, shard: -1, start: 0, end: 100},
		{layer: layerQSend, shard: -1, start: 5, end: 95},
		{layer: layerProxy, shard: -1, start: 10, end: 90},
		{layer: layerProxySend, shard: 0, start: 12, end: 60},
		{layer: layerProxySend, shard: 1, start: 13, end: 85},
		{layer: layerServer, shard: 0, start: 15, end: 55},
		{layer: layerServer, shard: 1, start: 16, end: 80},
		{layer: layerExec, shard: 0, start: 20, end: 50},
		{layer: layerExec, shard: 1, start: 21, end: 75},
	}
	tree := buildTree(spans)
	var b [numLayers]int64
	tree.blocking(tree.root, 100, &b)
	want := [numLayers]int64{10, 10, 7, 8 + 1, 5 + 5, 54}
	if b != want {
		t.Errorf("blocking path %v, want %v", b, want)
	}
	var sum int64
	for _, v := range b {
		sum += v
	}
	if sum != 100 {
		t.Errorf("blocking parts sum to %d, want 100", sum)
	}
	for i, s := range tree.spans {
		if s.layer == layerProxy {
			// 80 long, children cover [12,85]
			if got := tree.selfTime(i); got != 7 {
				t.Errorf("proxy self time %d, want 7", got)
			}
		}
	}
}

// The traced pass produces every per-layer metric on a read-only and on
// the updating workload, its accounting closes, and BENCHMARK.json names
// exactly the workloads and metrics the code reports.
func TestTracedPassAndBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, spec.Workloads[i].Name, w.Name)
		}
	}

	for _, name := range []string{"point_lookup", "update_mix"} {
		w, _ := FindWorkload(name)
		t.Chdir(t.TempDir())
		tr := newTracer()
		st, err := setUp(w, 1, tr, 2)
		if err != nil {
			t.Fatal(err)
		}
		ph := &phase{inst: st.inst, sys: st.sys, tr: tr, next: 2, segOps: 4, alternate: true}
		before := snapshot(st.sys)
		ph.run(0)
		layers, err := layerMetrics(io.Discard, ph, before, snapshot(st.sys))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(layers) != len(spec.PerLayer) {
			t.Fatalf("%s: %d per-layer metrics, BENCHMARK.json lists %d", name, len(layers), len(spec.PerLayer))
		}
		value := map[string]float64{}
		for i, m := range layers {
			if spec.PerLayer[i].Name != m.Name || spec.PerLayer[i].Unit != m.Unit {
				t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], the code %s [%s]",
					i, spec.PerLayer[i].Name, spec.PerLayer[i].Unit, m.Name, m.Unit)
			}
			value[m.Name] = m.Value
		}
		for i, m := range endToEnd(ph, 1) {
			if spec.EndToEnd[i].Name != m.Name || spec.EndToEnd[i].Unit != m.Unit {
				t.Errorf("end-to-end metric %d: BENCHMARK.json has %s, the code %s", i, spec.EndToEnd[i].Name, m.Name)
			}
		}
		// txn and wal metrics are non-zero exactly where updates commit
		for _, m := range []string{"txn.update_ms_p50", "txn.requests_per_update", "wal.bytes_per_update", "store.commits_per_update"} {
			if (value[m] > 0) != st.inst.updates {
				t.Errorf("%s: %s = %v", name, m, value[m])
			}
		}
		if value["client.requests_per_op"] <= 0 || value["planner.routed_share"] != 1 {
			t.Errorf("%s: requests/op %v, routed share %v", name, value["client.requests_per_op"], value["planner.routed_share"])
		}
		st.close()
	}
}
