package benchmark

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"time"

	"xrpc/internal/algebra"
	"xrpc/internal/cache"
	"xrpc/internal/cluster"
	"xrpc/internal/pathfinder"
	"xrpc/internal/server"
	"xrpc/internal/soap"
	"xrpc/internal/wal"
	"xrpc/internal/xdm"
	"xrpc/internal/xq"
)

// counters is a snapshot of the counts the layers keep themselves,
// taken before and after the timed phase.
type counters struct {
	result   cluster.ResultCacheStats
	resp     cache.Stats // summed over shards
	funcPlan cache.Stats // shard executors' function caches, summed
	qPlan    cache.Stats // Q's query plan cache
	walBytes int64       // summed over shards
	versions int64       // store versions, summed over shards
}

func addStats(a *cache.Stats, b cache.Stats) {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Evictions += b.Evictions
}

func snapshot(sys *system) counters {
	var c counters
	if rc := sys.co.ResultCache; rc != nil {
		c.result = rc.Stats()
	}
	for s, reps := range sys.dep.Servers {
		srv := reps[0]
		if srv.RespCache != nil {
			addStats(&c.resp, srv.RespCache.Stats())
		}
		if nx, ok := sys.execs[s].inner.(*server.NativeExecutor); ok {
			addStats(&c.funcPlan, nx.PlanCacheStats())
		}
		if l := srv.WAL(); l != nil {
			c.walBytes += l.AppendedBytes()
		}
		c.versions += srv.Store.Version()
	}
	if sys.q.Plans != nil {
		c.qPlan = sys.q.Plans.Stats()
	}
	return c
}

func share(hits, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// overheadChunks is how many consecutive parts of the traced pass the
// tracing overhead is estimated on.
const overheadChunks = 8

// isolated times f reps times and returns the median in milliseconds.
func isolated(reps int, f func()) float64 {
	d := make([]float64, reps)
	for i := range d {
		t := time.Now()
		f()
		d[i] = ms(int64(time.Since(t)))
	}
	return median(d)
}

// layerMetrics turns the spans and counter deltas of a traced pass into
// the per-layer metrics, prints the blocking-path table, and enforces
// the two checks the instrument must pass: the self times along the
// blocking path account for the traced op latency within 10 %, and
// tracing adds at most 5 % to the median op latency.
func layerMetrics(logw io.Writer, ph *phase, before, after counters) ([]Metric, error) {
	byOp := map[int32][]span{}
	for _, s := range ph.tr.spans {
		byOp[s.op] = append(byOp[s.op], s)
	}
	var (
		ops                         = float64(len(byOp))
		latency, blockSum           []float64
		block, self                 [numLayers]float64 // ms summed over ops
		execSum, execMax, execX     float64
		execCalls                   float64
		sends, hopMs, ttfbMs, ttfbN float64
		callReqs, routedReqs        float64
		callSends, probes           float64
		updates, txnSends           float64
		hotMs, updateMs, readbackMs []float64
	)
	for op, spans := range byOp {
		t := buildTree(spans)
		if t.root < 0 {
			return nil, fmt.Errorf("traced op %d has no root span", op)
		}
		root := t.spans[t.root]
		latency = append(latency, ms(root.end-root.start))
		var b [numLayers]int64
		t.blocking(t.root, root.end, &b)
		sum := int64(0)
		for l, v := range b {
			block[l] += ms(v)
			sum += v
		}
		blockSum = append(blockSum, ms(sum))
		opExecMax := int64(0)
		qSends := 0
		for i, s := range t.spans {
			self[s.layer] += ms(t.selfTime(i))
			switch s.layer {
			case layerExec:
				d := s.end - s.start
				execSum += ms(d)
				if d > opExecMax {
					opExecMax = d
				}
				execCalls += float64(s.calls)
				execX += ms(s.exec)
			case layerQSend, layerProxySend:
				sends++
				handler := int64(0)
				for _, c := range t.children[i] {
					handler += t.spans[c].end - t.spans[c].start
				}
				hopMs += ms(s.end - s.start - handler)
				if s.first != 0 {
					ttfbMs += ms(s.first - s.start)
					ttfbN++
				}
				if s.layer == layerQSend {
					// requests of a script, in order: update, read-back, hot reads
					d := ms(s.end - s.start)
					if ph.inst.updates {
						switch qSends {
						case 0:
							updateMs = append(updateMs, d)
						case 1:
							readbackMs = append(readbackMs, d)
						}
					}
					qSends++
				}
			case layerProxy:
				calls, txn := 0, 0
				for _, c := range t.children[i] {
					switch t.spans[c].kind {
					case sendCall:
						calls++
					case sendProbe:
						probes++
					case sendTxn:
						txn++
					}
				}
				callSends += float64(calls)
				if calls > 0 {
					callReqs++
					if calls == 1 {
						routedReqs++
					}
				}
				if txn > 0 {
					updates++
					txnSends += float64(calls + txn)
				} else if !t.executes(i) {
					// answered by a cache tier, at the coordinator or at
					// the shard, without executing anything: the latency
					// its client saw is the q.send span around it
					if j := t.parent[i]; j >= 0 {
						hotMs = append(hotMs, ms(t.spans[j].end-t.spans[j].start))
					}
				}
			}
		}
		execMax += ms(opExecMax)
	}
	if ops == 0 {
		return nil, fmt.Errorf("the traced pass recorded no ops")
	}

	// accounting closure
	meanLat, meanBlock := mean(latency), mean(blockSum)
	fmt.Fprintf(logw, "  blocking path of the mean traced op (%.4f ms over %d ops):\n", meanLat, len(latency))
	for l := layer(0); l < numLayers; l++ {
		fmt.Fprintf(logw, "    %-13s self %9.4f ms  %5.1f %%   (all spans: %9.4f ms)\n",
			layerNames[l], block[l]/ops, 100*block[l]/ops/meanLat, self[l]/ops)
	}
	closure := meanBlock / meanLat
	fmt.Fprintf(logw, "    blocking self times sum to %.4f ms = %.1f %% of the traced op latency\n", meanBlock, 100*closure)
	if closure < 0.90 || closure > 1.10 {
		return nil, fmt.Errorf("accounting does not close: blocking-path self times are %.1f %% of the traced op latency", 100*closure)
	}

	// tracing overhead: traced ops against the untraced ops between them,
	// as the change in median op latency, estimated on overheadChunks
	// consecutive chunks of the phase. Op costs differ (hits and misses,
	// the odd slow commit), so a single estimate is noisy; the run fails
	// only when the overhead is above 5 % by more than three standard
	// errors.
	var est []float64
	for c := 0; c < overheadChunks; c++ {
		lo, hi := c*len(ph.latMs)/overheadChunks, (c+1)*len(ph.latMs)/overheadChunks
		var lat [2][]float64
		for i := lo; i < hi; i++ {
			k := 0
			if ph.traced[i] {
				k = 1
			}
			lat[k] = append(lat[k], ph.latMs[i])
		}
		if len(lat[0]) > 0 && len(lat[1]) > 0 {
			est = append(est, median(lat[1])/median(lat[0])-1)
		}
	}
	overhead := mean(est)
	var dev float64
	for _, e := range est {
		dev += (e - overhead) * (e - overhead)
	}
	stderr := math.Inf(1) // too few chunks to judge
	if len(est) > 1 {
		stderr = math.Sqrt(dev/float64(len(est)-1)) / math.Sqrt(float64(len(est)))
	}
	fmt.Fprintf(logw, "  tracing adds %.2f %% ± %.2f %% (standard error over %d chunks) to the median op latency\n",
		100*overhead, 100*stderr, len(est))
	if overhead-3*stderr > 0.05 {
		return nil, fmt.Errorf("tracing adds %.1f %% ± %.1f %% to the median op latency, more than 5 %%", 100*overhead, 100*stderr)
	}

	// codec, parse, compile, join and WAL append costs hide inside the
	// self times above; time them alone on what the pass captured
	var encReq, decReq, encResp, decResp float64
	if req, err := soap.DecodeRequest(ph.tr.capReq); err == nil {
		decReq = isolated(15, func() { soap.DecodeRequest(ph.tr.capReq) })
		encReq = isolated(15, func() { e := soap.NewEncoder(); e.EncodeRequest(req); e.Release() })
	}
	if resp, err := soap.DecodeResponse(ph.tr.capResp); err == nil {
		decResp = isolated(15, func() { soap.DecodeResponse(ph.tr.capResp) })
		encResp = isolated(15, func() { e := soap.NewEncoder(); e.EncodeResponse(resp); e.Release() })
	}
	// what a function-cache miss would cost: in steady state every
	// request hits the cache and interp.Stats.Compile is 0
	var moduleCompileMs float64
	if nx, ok := ph.sys.execs[0].inner.(*server.NativeExecutor); ok {
		moduleCompileMs = isolated(15, func() { nx.Engine.CompileModule(ph.inst.dep.module) })
	}
	var parseMs, compileMs, joinMs float64
	if text := ph.inst.queryText; text != "" {
		parseMs = isolated(15, func() { xq.Parse(text) })
		compileMs = isolated(15, func() { pathfinder.Compile(text, ph.sys.q.Registry) })
	}
	if rows := ph.inst.joinRows; rows[0] > 0 {
		a, b := joinInput(rows[0], "p"), joinInput(rows[1], "b")
		joinMs = isolated(15, func() { algebra.Join(a, b, "key", "key") })
	}
	var walAppendMs, walBytesPerUpdate, commitsPerUpdate float64
	if updates > 0 {
		// counter deltas cover traced and untraced segments alike
		allUpdates := float64(len(ph.latMs))
		walBytesPerUpdate = float64(after.walBytes-before.walBytes) / allUpdates
		commitsPerUpdate = float64(after.versions-before.versions) / allUpdates
		var err error
		if walAppendMs, err = walAppend(ph.sys.dep.Servers[0][0].WAL().Dir(), int(walBytesPerUpdate)); err != nil {
			return nil, err
		}
	}

	res := after.result
	res.Hits -= before.result.Hits
	res.PartialHits -= before.result.PartialHits
	res.Misses -= before.result.Misses
	evictions := (after.resp.Evictions - before.resp.Evictions) +
		(after.funcPlan.Evictions - before.funcPlan.Evictions) +
		(after.qPlan.Evictions - before.qPlan.Evictions)
	allOps := float64(len(ph.latMs))
	per := func(x float64) float64 { return x / ops }
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	evalSelf := per(self[layerOp]) - encReq - decResp
	if evalSelf < 0 {
		evalSelf = 0
	}
	sort.Float64s(hotMs)
	sort.Float64s(updateMs)
	sort.Float64s(readbackMs)
	return []Metric{
		{"interp.execute_ms_sum", per(execSum), "ms"},
		{"interp.execute_ms_max", per(execMax), "ms"},
		{"interp.calls_per_op", per(execCalls), "count"},
		{"interp.compile_ms", moduleCompileMs, "ms"},
		{"interp.exec_ms", per(execX), "ms"},
		{"soap.encode_request_ms", encReq, "ms"},
		{"soap.decode_request_ms", decReq, "ms"},
		{"soap.encode_response_ms", encResp, "ms"},
		{"soap.decode_response_ms", decResp, "ms"},
		{"soap.request_bytes", float64(len(ph.tr.capReq)), "B"},
		{"soap.response_bytes", float64(len(ph.tr.capResp)), "B"},
		{"client.hop_ms", div(hopMs, sends), "ms"},
		{"client.requests_per_op", per(sends), "count"},
		{"client.ttfb_ms", div(ttfbMs, ttfbN), "ms"},
		{"cluster.self_ms", per(self[layerProxy]), "ms"},
		{"cluster.shards_per_call", div(callSends, callReqs), "count"},
		{"cluster.fence_probes_per_op", per(probes), "count"},
		{"planner.routed_share", div(routedReqs, callReqs), "share"},
		{"server.self_ms", per(self[layerServer]), "ms"},
		{"cache.result_hit_share", share(res.Hits, res.Hits+res.PartialHits+res.Misses), "share"},
		{"cache.resp_hit_share", share(after.resp.Hits-before.resp.Hits,
			after.resp.Hits-before.resp.Hits+after.resp.Misses-before.resp.Misses), "share"},
		{"cache.plan_hit_share", share(after.funcPlan.Hits-before.funcPlan.Hits,
			after.funcPlan.Hits-before.funcPlan.Hits+after.funcPlan.Misses-before.funcPlan.Misses), "share"},
		{"cache.evictions_per_kop", 1000 * float64(evictions) / allOps, "count"},
		{"cache.hotread_ms_p50", percentile(hotMs, 50), "ms"},
		{"txn.update_ms_p50", percentile(updateMs, 50), "ms"},
		{"txn.requests_per_update", div(txnSends, updates), "count"},
		{"cluster.readback_ms_p50", percentile(readbackMs, 50), "ms"},
		{"wal.append_ms", walAppendMs, "ms"},
		{"wal.bytes_per_update", walBytesPerUpdate, "B"},
		{"store.commits_per_update", commitsPerUpdate, "count"},
		{"xq.parse_ms", parseMs, "ms"},
		{"pathfinder.compile_ms", compileMs, "ms"},
		{"pathfinder.plan_hit_share", share(after.qPlan.Hits-before.qPlan.Hits,
			after.qPlan.Hits-before.qPlan.Hits+after.qPlan.Misses-before.qPlan.Misses), "share"},
		{"pathfinder.eval_self_ms", evalSelf, "ms"},
		{"algebra.join_ms", joinMs, "ms"},
		{"proc.alloc_bytes_per_op", float64(ph.allocBytes) / allOps, "B"},
		{"proc.allocs_per_op", float64(ph.allocs) / allOps, "count"},
		{"proc.gc_pause_ms_per_op", ms(int64(ph.gcPauseNano)) / allOps, "ms"},
		{"trace.overhead_share", overhead, "share"},
	}, nil
}

// joinInput is an n-row table with one distinct string key per row.
func joinInput(n int, prefix string) *algebra.Table {
	t := algebra.NewTable("key")
	for i := 0; i < n; i++ {
		t.Append(xdm.String(fmt.Sprintf("%s%d", prefix, i)))
	}
	return t
}

// walAppend times wal.Log.Append alone, on the filesystem the shards'
// logs are on, with records of the size the workload's updates produce.
func walAppend(shardWALDir string, recordBytes int) (float64, error) {
	dir := filepath.Join(filepath.Dir(shardWALDir), "isolated")
	l, err := wal.Open(dir, nil)
	if err != nil {
		return 0, err
	}
	rec := &wal.Record{Kind: wal.RecCommit, QID: "q-0000000000000000", PUL: make([]byte, recordBytes)}
	v := int64(0)
	d := isolated(200, func() {
		v++
		rec.Version = v
		if e := l.Append(rec); e != nil && err == nil {
			err = e
		}
	})
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	return d, err
}
