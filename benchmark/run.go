package benchmark

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Options selects what one run measures.
type Options struct {
	// Seed derives every input: same seed, same data, same op list.
	Seed int64
	// Seconds is how long the timed phase lasts.
	Seconds float64
	// Trace selects the traced pass (per-layer metrics) instead of the
	// end-to-end pass.
	Trace bool
	// TraceOut, when set with Trace, receives the recorded spans as JSON
	// lines after the run.
	TraceOut string
	// Log receives the human-readable report (nil discards it).
	Log io.Writer
}

// Metric is one named, measured value.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Result is the outcome of one run of one workload.
type Result struct {
	// Correct is false when any op failed verification or the final
	// state check failed.
	Correct bool
	// Attempted and Failed count the ops of the timed phase.
	Attempted, Failed int
	// Metrics are the end-to-end metrics (Trace off) or the per-layer
	// metrics (Trace on), in reporting order.
	Metrics []Metric
	// Env describes where the numbers were taken.
	Env map[string]string
}

const (
	// setups is how many times a run builds the system from scratch;
	// setup_s is the median, which start-up jitter barely moves.
	setups = 3
	// warmShare of a run's expected ops are executed, verified and
	// discarded before the timed phase.
	warmShare = 0.05
	// wireSegments is how many throughput segments at the start of the
	// timed phase wire_bytes_per_op is taken over: a fixed op count, so
	// the value repeats exactly for a seed however long the run lasts.
	wireSegments = 4
	// maxSlowdown is the wall-clock guard: a timed phase that takes this
	// many times the requested length fails the run.
	maxSlowdown = 3
)

// Run executes one workload: set-up (several times, see setups),
// identity verification against the unsharded oracle, warm-up, the timed
// closed loop with every answer checked, and the final-state check.
func Run(w Workload, opt Options) (*Result, error) {
	logw := opt.Log
	if logw == nil {
		logw = io.Discard
	}
	if opt.Seconds <= 0 {
		return nil, fmt.Errorf("benchmark: -seconds must be positive")
	}
	segOps := int(math.Ceil(w.opsPerSecond)) // ≈ 1 s of ops at the seed commit
	warmOps := int(math.Ceil(w.opsPerSecond * opt.Seconds * warmShare))

	tr := newTracer()
	var (
		st       *stage
		setupSec []float64
	)
	defer func() { st.close() }()
	for s := 0; s < setups; s++ {
		st.close()
		runtime.GC()
		start := time.Now()
		var err error
		if st, err = setUp(w, opt.Seed, tr, warmOps); err != nil {
			return nil, err
		}
		setupSec = append(setupSec, time.Since(start).Seconds())
	}
	sys, inst := st.sys, st.inst

	res := &Result{Env: environment(st.walKind)}
	fmt.Fprintf(logw, "workload %s  seed %d  ops/list %d  op-list hash %016x\n", w.Name, opt.Seed, inst.ops, inst.opHash)
	fmt.Fprintf(logw, "  why: %s\n", w.Why)
	fmt.Fprintf(logw, "  set-up ×%d: %s s  warm-up %d ops  segment %d ops\n", setups, fmtFloats(setupSec), warmOps, segOps)

	// the oracle and earlier set-ups are garbage now; return their pages
	// so they cannot mask the timed phase's memory
	debug.FreeOSMemory()

	ph := &phase{inst: inst, sys: sys, tr: tr, next: warmOps, segOps: segOps, alternate: opt.Trace}
	before := snapshot(sys)
	ph.run(opt.Seconds)
	after := snapshot(sys)
	res.Attempted, res.Failed = len(ph.latMs), ph.failed
	res.Correct = ph.failed == 0
	if ph.firstErr != nil {
		fmt.Fprintf(logw, "  first failed op: %v\n", ph.firstErr)
	}
	if ph.elapsed > maxSlowdown*opt.Seconds {
		return nil, fmt.Errorf("%s: timed phase took %.1f s, more than %d× the requested %.0f s",
			w.Name, ph.elapsed, maxSlowdown, opt.Seconds)
	}

	if opt.Trace {
		ms, err := layerMetrics(logw, ph, before, after)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		res.Metrics = ms
		if opt.TraceOut != "" {
			if err := tr.writeJSON(opt.TraceOut); err != nil {
				return nil, err
			}
			fmt.Fprintf(logw, "  %d spans written to %s\n", len(tr.spans), opt.TraceOut)
		}
	} else {
		res.Metrics = endToEnd(ph, median(setupSec))
	}

	if inst.finish != nil {
		if err := inst.finish(sys); err != nil {
			fmt.Fprintf(logw, "  final state: %v\n", err)
			res.Correct = false
		} else {
			fmt.Fprintf(logw, "  final state equals the unsharded oracle's after the same updates\n")
		}
	}
	fmt.Fprintf(logw, "  timed %.2f s  ops attempted %d  failed %d  correct %v\n", ph.elapsed, res.Attempted, res.Failed, res.Correct)
	for _, m := range res.Metrics {
		fmt.Fprintf(logw, "  %-32s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	return res, nil
}

// stage is one completed set-up: the seed-derived inputs and the
// running system, verified against the oracle and warmed up.
type stage struct {
	inst    *instance
	sys     *system
	walRoot string
	walKind string
}

// setUp is everything setup_s covers: data generation, the oracle's
// answers, partitioning and loading, listeners, identity verification
// and warmOps verified warm-up ops.
func setUp(w Workload, seed int64, tr *tracer, warmOps int) (st *stage, err error) {
	st = &stage{walKind: "none"}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	if st.inst, err = w.make(seed); err != nil {
		return st, fmt.Errorf("%s: %w", w.Name, err)
	}
	if st.inst.dep.respCacheBytes > 0 { // deployment B is durable
		if st.walRoot, st.walKind, err = walRootDir(); err != nil {
			return st, err
		}
		st.inst.dep.walRoot = st.walRoot
	}
	if st.sys, err = newSystem(st.inst.dep, tr); err != nil {
		return st, fmt.Errorf("%s: %w", w.Name, err)
	}
	if err = st.inst.verify(st.sys); err != nil {
		return st, fmt.Errorf("%s: identity verification: %w", w.Name, err)
	}
	for i := 0; i < warmOps; i++ {
		got, err := st.inst.run(st.sys, i)
		if err != nil {
			return st, fmt.Errorf("%s: warm-up op %d: %w", w.Name, i, err)
		}
		if got != st.inst.want(i) {
			return st, fmt.Errorf("%s: warm-up op %d: wrong answer", w.Name, i)
		}
	}
	return st, nil
}

// close stops the system and removes its WAL directory.
func (st *stage) close() {
	if st == nil {
		return
	}
	if st.sys != nil {
		st.sys.close()
		st.sys = nil
	}
	if st.walRoot != "" {
		os.RemoveAll(st.walRoot)
		st.walRoot = ""
	}
}

// phase is the timed closed loop: one client, one op in flight.
type phase struct {
	inst *instance
	sys  *system
	tr   *tracer
	// next is the index of the next op in the list.
	next   int
	segOps int
	// alternate turns the tracer on for about every second op (the
	// traced pass): traced and untraced ops interleave, so drift cancels
	// in trace.overhead_share. Which ops are traced is a fixed
	// pseudo-random choice, not strict alternation: a GC cycle every
	// other op (update_mix allocates half a heap per op) would otherwise
	// line up with the traced ops.
	alternate bool

	latMs    []float64 // per-op latency of every timed op
	traced   []bool    // per op: was it recorded by the tracer
	segRate  []float64 // per-segment throughput, ops/s
	failed   int
	firstErr error
	elapsed  float64 // seconds

	cpuMs     float64   // user+sys CPU over the phase
	rssMiB    []float64 // VmRSS sampled every 50 ms
	wireBytes int64     // over the first wireSegments segments
	wireOps   int
	// runtime.MemStats deltas over the phase (taken by the traced pass).
	allocBytes, allocs, gcPauseNano uint64
}

func (ph *phase) run(seconds float64) {
	stopRSS := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			ph.rssMiB = append(ph.rssMiB, rssMiB())
			select {
			case <-stopRSS:
				return
			case <-tick.C:
			}
		}
	}()

	var m0, m1 runtime.MemStats
	if ph.alternate {
		runtime.ReadMemStats(&m0)
	}
	cpu0 := cpuMillis()
	wire0 := ph.sys.wireBytes()
	start := time.Now()
	for seg := 0; ; seg++ {
		// the clock is read only between segments, and the first
		// wireSegments always complete: wire_bytes_per_op is taken over a
		// fixed op count
		if seg >= wireSegments && time.Since(start).Seconds() >= seconds {
			break
		}
		segStart := time.Now()
		for k := 0; k < ph.segOps; k++ {
			i := ph.next
			ph.next++
			traced := ph.alternate && coin(i)
			ph.tr.on.Store(traced)
			var root span
			if traced {
				ph.tr.op.Store(int32(len(ph.latMs)))
				root = span{layer: layerOp, shard: -1, start: ph.tr.now()}
			}
			t0 := time.Now()
			got, err := ph.inst.run(ph.sys, i)
			lat := time.Since(t0)
			if traced {
				root.end = root.start + int64(lat)
				ph.tr.record(root)
			}
			if want := ph.inst.want(i); err != nil || got != want {
				ph.failed++
				if ph.firstErr == nil {
					if err == nil {
						err = fmt.Errorf("answer hash %016x, want %016x", got, want)
					}
					ph.firstErr = fmt.Errorf("op %d: %w", i, err)
				}
			}
			ph.latMs = append(ph.latMs, float64(lat)/1e6)
			ph.traced = append(ph.traced, traced)
		}
		segSec := time.Since(segStart).Seconds()
		ph.tr.on.Store(false)
		ph.segRate = append(ph.segRate, float64(ph.segOps)/segSec)
		if seg == wireSegments-1 {
			ph.wireBytes = ph.sys.wireBytes() - wire0
			ph.wireOps = len(ph.latMs)
		}
	}
	ph.elapsed = time.Since(start).Seconds()
	ph.cpuMs = cpuMillis() - cpu0
	if ph.alternate {
		runtime.ReadMemStats(&m1)
		ph.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		ph.allocs = m1.Mallocs - m0.Mallocs
		ph.gcPauseNano = m1.PauseTotalNs - m0.PauseTotalNs
	}
	close(stopRSS)
	wg.Wait()
}

// endToEnd derives the seven end-to-end metrics from a timed phase run
// with tracing off.
func endToEnd(ph *phase, setupS float64) []Metric {
	lat := append([]float64(nil), ph.latMs...)
	sort.Float64s(lat)
	n := float64(len(lat))
	// the largest single sample is set by the timing of one GC cycle and
	// varies by 20 % between identical runs; the 95th percentile of the
	// samples is a peak that repeats
	rss := append([]float64(nil), ph.rssMiB...)
	sort.Float64s(rss)
	return []Metric{
		{"setup_s", setupS, "s"},
		{"throughput_ops_s", median(ph.segRate), "1/s"},
		{"latency_p50_ms", percentile(lat, 50), "ms"},
		{"latency_p90_ms", percentile(lat, 90), "ms"},
		{"cpu_ms_per_op", ph.cpuMs / n, "ms"},
		{"peak_rss_mb", percentile(rss, 95), "MiB"},
		{"wire_bytes_per_op", float64(ph.wireBytes) / float64(ph.wireOps), "B"},
	}
}

func cpuMillis() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssMiB reads the resident set size from /proc/self/statm.
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// fsKind names the filesystem a directory is on.
func fsKind(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("fs-%#x", uint32(st.Type))
}

// environment is recorded with every run.
func environment(walKind string) map[string]string {
	env := map[string]string{
		"commit":       "unknown",
		"go":           runtime.Version(),
		"gomaxprocs":   strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":        strconv.Itoa(runtime.NumCPU()),
		"kernel":       "unknown",
		"wal_dir_kind": walKind,
		"load_model":   "closed loop, 1 client, loopback HTTP",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		env["kernel"] = string(b)
	}
	return env
}

func fmtFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

// coin is a fixed pseudo-random bit per op index (splitmix64's finalizer).
func coin(i int) bool {
	x := uint64(i) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return (x^(x>>31))&1 == 1
}
