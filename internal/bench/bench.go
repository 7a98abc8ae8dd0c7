// Package bench contains the experiment harnesses that regenerate every
// table and figure of the paper's evaluation: Table 2 (Bulk RPC vs
// one-at-a-time, function cache on/off), the §3.3 throughput experiment,
// Table 3 (wrapper latency on the Saxon-role engine), Table 4 (the four
// distributed strategies for Q7), and the Figure 1 intermediate tables.
//
// The harnesses are shared by the root bench_test.go (go test -bench)
// and cmd/xrpcbench (prints the paper's rows).
package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"xrpc/internal/algebra"
	"xrpc/internal/client"
	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/pathfinder"
	"xrpc/internal/server"
	"xrpc/internal/soap"
	"xrpc/internal/store"
	"xrpc/internal/strategies"
	"xrpc/internal/wrapper"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

// TestModule is the echoVoid module of §3.3.
const TestModule = `
module namespace tst = "test";
declare function tst:echoVoid() { () };
declare function tst:echo($x as item()*) as item()* { $x };`

// heavyTestModule is TestModule padded with filler functions so that
// module compilation takes measurable time. The paper's MonetDB/XQuery
// spent ~130 ms translating the module into relational plans; our
// compiler is much cheaper per function, so the cache-vs-no-cache
// contrast of Table 2 needs a module whose translation cost is
// non-negligible.
func heavyTestModule(fillerFuncs int) string {
	var b strings.Builder
	b.WriteString(`module namespace tst = "test";
declare function tst:echoVoid() { () };
declare function tst:echo($x as item()*) as item()* { $x };
`)
	for i := 0; i < fillerFuncs; i++ {
		fmt.Fprintf(&b, `declare function tst:filler%d($a as xs:integer, $b as xs:string) as xs:string
{ if ($a mod 2 eq 0)
  then concat($b, "-", string($a * %d + sum((1 to 10))))
  else string-join(for $i in (1 to 5) return concat($b, string($i + $a)), ",") };
`, i, i+1)
	}
	return b.String()
}

// GetPersonModule is the §4 getPerson function.
const GetPersonModule = `
module namespace func="functions";
declare function func:getPerson($doc as xs:string, $pid as xs:string) as node()?
{ zero-or-one(doc($doc)//person[@id=$pid]) };
declare function func:echoVoid() { () };`

// DefaultRTT simulates the paper's LAN round trip. The paper's minimum
// RPC latency was ~3 ms on 2007 hardware; scaled down to keep bench runs
// short while preserving the latency-vs-bandwidth shape.
const DefaultRTT = 200 * time.Microsecond

// Table2Env is the two-peer echoVoid deployment of §3.3.
type Table2Env struct {
	Net      *netsim.Network
	Registry *modules.Registry
	Local    *store.Snapshot // an empty store's documents: no commit reaches them
	YServer  *server.Server
	YExec    *server.NativeExecutor
	compiled *pathfinder.Compiled
}

// NewTable2Env wires the experiment with the given network latency. The
// served module carries 300 filler functions so that "module translation
// time" (which the function cache eliminates) is measurable, like the
// 130 ms the paper reports for MonetDB/XQuery.
func NewTable2Env(rtt time.Duration) (*Table2Env, error) {
	net := netsim.NewNetwork(rtt, 0)
	reg := modules.NewRegistry()
	if err := reg.Register(heavyTestModule(300), "http://x.example.org/test.xq"); err != nil {
		return nil, err
	}
	ySt := store.New()
	yEng := interp.New(reg)
	yExec := server.NewNativeExecutor(yEng, reg)
	ySrv := server.New(ySt, reg, yExec)
	ySrv.Self = "xrpc://y.example.org"
	net.Register("xrpc://y.example.org", ySrv)

	compiled, err := pathfinder.Compile(`
import module namespace t="test" at "http://x.example.org/test.xq";
for $i in (1 to $x)
return execute at {"xrpc://y.example.org"} {t:echoVoid()}`, reg)
	if err != nil {
		return nil, err
	}
	return &Table2Env{Net: net, Registry: reg, Local: store.New().Snapshot(), YServer: ySrv, YExec: yExec, compiled: compiled}, nil
}

// RunEchoVoid executes the Table 2 echoVoid query for x iterations.
// bulk=false uses one-at-a-time RPC. warm=false starts with a cold
// function cache (the paper's "No Function Cache" column: the first
// request pays module translation time); warm=true pre-primes the cache
// ("With Function Cache"). Returns the elapsed time.
func (env *Table2Env) RunEchoVoid(x int, bulk, warm bool) (time.Duration, error) {
	env.YExec.CacheEnabled = true
	env.YExec.InvalidateCache()
	if warm {
		warmCl := client.New(env.Net)
		warmEC := &pathfinder.ExecCtx{Docs: env.Local, Bulk: warmCl}
		if _, err := env.compiled.Eval(warmEC, map[string]xdm.Sequence{"x": {xdm.Integer(1)}}); err != nil {
			return 0, err
		}
		env.YServer.ResetStats()
	}
	cl := client.New(env.Net)
	ec := &pathfinder.ExecCtx{Docs: env.Local, Bulk: cl, OneAtATime: !bulk}
	start := time.Now()
	_, err := env.compiled.Eval(ec, map[string]xdm.Sequence{"x": {xdm.Integer(int64(x))}})
	if err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// Table2Cell is one cell of Table 2.
type Table2Cell struct {
	Bulk bool
	// Cache reports a warm function cache ("With Function Cache").
	Cache   bool
	X       int
	Elapsed time.Duration
	// Requests is how many network requests were needed.
	Requests int64
}

// RunTable2 produces all eight cells of Table 2 (2 mechanisms × 2 cache
// states × x ∈ {1, 1000}).
func RunTable2(rtt time.Duration, xs []int) ([]Table2Cell, error) {
	if len(xs) == 0 {
		xs = []int{1, 1000}
	}
	var cells []Table2Cell
	for _, warm := range []bool{false, true} {
		for _, bulk := range []bool{false, true} {
			for _, x := range xs {
				env, err := NewTable2Env(rtt)
				if err != nil {
					return nil, err
				}
				d, err := env.RunEchoVoid(x, bulk, warm)
				if err != nil {
					return nil, err
				}
				cells = append(cells, Table2Cell{
					Bulk: bulk, Cache: warm, X: x, Elapsed: d,
					Requests: env.YServer.ServedRequests,
				})
			}
		}
	}
	return cells, nil
}

// FormatTable2 renders cells in the paper's Table 2 layout.
func FormatTable2(cells []Table2Cell, xs []int) string {
	if len(xs) == 0 {
		xs = []int{1, 1000}
	}
	get := func(bulk, cache bool, x int) string {
		for _, c := range cells {
			if c.Bulk == bulk && c.Cache == cache && c.X == x {
				return fmt.Sprintf("%.1f", float64(c.Elapsed.Microseconds())/1000.0)
			}
		}
		return "-"
	}
	var b strings.Builder
	b.WriteString("Table 2: XRPC Performance (msec): loop-lifted vs one-at-a-time; function cache vs none\n")
	fmt.Fprintf(&b, "%-14s", "")
	b.WriteString("| No Function Cache        | With Function Cache\n")
	fmt.Fprintf(&b, "%-14s|", "")
	for range []int{0, 1} {
		for _, x := range xs {
			fmt.Fprintf(&b, " $x=%-8d", x)
		}
		b.WriteString("|")
	}
	b.WriteString("\n")
	for _, mech := range []struct {
		name string
		bulk bool
	}{{"one-at-a-time", false}, {"bulk", true}} {
		fmt.Fprintf(&b, "%-14s|", mech.name)
		for _, cache := range []bool{false, true} {
			for _, x := range xs {
				fmt.Fprintf(&b, " %-10s", get(mech.bulk, cache, x))
			}
			b.WriteString("|")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ----------------------------------------------------------- throughput

// ThroughputResult is one row of the §3.3 bandwidth experiment.
type ThroughputResult struct {
	Direction   string // "request" or "response"
	PayloadKB   int
	Elapsed     time.Duration
	MBPerSecond float64
}

// RunThroughput measures request-bound and response-bound payload
// throughput (§3.3: "we observed 8 MB/s (large requests) and 14 MB/s
// (large responses)"). Payload travels as one big string parameter or
// result of tst:echo.
func RunThroughput(payloadKB int, response bool) (*ThroughputResult, error) {
	net := netsim.NewNetwork(0, 0)
	reg := modules.NewRegistry()
	if err := reg.Register(TestModule, "http://x.example.org/test.xq"); err != nil {
		return nil, err
	}
	ySt := store.New()
	yExec := server.NewNativeExecutor(interp.New(reg), reg)
	ySrv := server.New(ySt, reg, yExec)
	net.Register("xrpc://y", ySrv)

	payload := strings.Repeat("x", payloadKB*1024)
	cl := client.New(net)
	dir := "request"
	query := `
import module namespace t="test" at "http://x.example.org/test.xq";
execute at {"xrpc://y"} {t:echo($p)}`
	vars := map[string]xdm.Sequence{"p": {xdm.String(payload)}}
	if response {
		dir = "response"
		// store the payload at y; the response carries it back
		if err := ySt.LoadXML("big.xml", "<doc>"+payload+"</doc>"); err != nil {
			return nil, err
		}
		bigModule := `
module namespace big="big";
declare function big:fetch() as xs:string { string(doc("big.xml")) };`
		if err := reg.Register(bigModule, "http://x.example.org/big.xq"); err != nil {
			return nil, err
		}
		query = `
import module namespace big="big" at "http://x.example.org/big.xq";
execute at {"xrpc://y"} {big:fetch()}`
		vars = nil
	}
	compiled, err := pathfinder.Compile(query, reg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := compiled.Eval(&pathfinder.ExecCtx{Docs: store.New().Snapshot(), Bulk: cl}, vars); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	mb := float64(payloadKB) / 1024.0
	return &ThroughputResult{
		Direction:   dir,
		PayloadKB:   payloadKB,
		Elapsed:     elapsed,
		MBPerSecond: mb / elapsed.Seconds(),
	}, nil
}

// -------------------------------------------------------------- Table 3

// Table3Row is one row of Table 3 (Saxon latency via the XRPC wrapper).
type Table3Row struct {
	Fn        string
	X         int
	Total     time.Duration
	Compile   time.Duration
	TreeBuild time.Duration
	Exec      time.Duration
}

// RunTable3 performs the §4 wrapper experiment: echoVoid and getPerson
// with x calls in one bulk request against the wrapper-fronted engine,
// reporting the compile/treebuild/exec phases.
func RunTable3(xs []int, cfg xmark.Config) ([]Table3Row, error) {
	return RunTable3Fns([]string{"echoVoid", "getPerson"}, xs, cfg)
}

// RunTable3Fns runs the Table 3 experiment for the selected functions
// only (used by the per-cell benchmarks).
func RunTable3Fns(fns []string, xs []int, cfg xmark.Config) ([]Table3Row, error) {
	if len(xs) == 0 {
		xs = []int{1, 1000}
	}
	reg := modules.NewRegistry()
	if err := reg.Register(GetPersonModule, "http://example.org/functions.xq"); err != nil {
		return nil, err
	}
	w := wrapper.New(reg, nil)
	w.LoadText("xmark.xml", xmark.GeneratePersons(cfg))

	var rows []Table3Row
	for _, fn := range fns {
		for _, x := range xs {
			req := &soap.Request{
				Module:   "functions",
				Method:   fn,
				Location: "http://example.org/functions.xq",
			}
			for i := 0; i < x; i++ {
				if fn == "getPerson" {
					req.Arity = 2
					pid := xmark.PersonID(i % maxInt(cfg.Persons, 1))
					req.Calls = append(req.Calls, []xdm.Sequence{
						{xdm.String("xmark.xml")}, {xdm.String(pid)},
					})
				} else {
					req.Calls = append(req.Calls, []xdm.Sequence{})
				}
			}
			raw := soap.EncodeRequest(req)
			start := time.Now()
			_, _, stats, err := w.Execute(req, raw, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("table 3 %s x=%d: %w", fn, x, err)
			}
			total := time.Since(start)
			rows = append(rows, Table3Row{
				Fn: fn, X: x, Total: total,
				Compile: stats.Compile, TreeBuild: stats.TreeBuild, Exec: stats.Exec,
			})
		}
	}
	return rows, nil
}

// FormatTable3 renders rows in the paper's Table 3 layout.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3: Saxon-role latency via the XRPC Wrapper (msec)\n")
	fmt.Fprintf(&b, "%-22s %10s %10s %10s %10s\n", "", "total", "compile", "treebuild", "exec")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %10.2f %10.2f %10.2f %10.2f\n",
			fmt.Sprintf("%s $x=%d", r.Fn, r.X),
			ms(r.Total), ms(r.Compile), ms(r.TreeBuild), ms(r.Exec))
	}
	return b.String()
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000.0 }

// -------------------------------------------------------------- Table 4

// RunTable4 runs the four Q7 strategies at the given XMark scale.
func RunTable4(cfg xmark.Config) ([]*strategies.Result, error) {
	env, err := strategies.NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	return env.RunAll()
}

// FormatTable4 renders results in the paper's Table 4 layout.
func FormatTable4(results []*strategies.Result) string {
	var b strings.Builder
	b.WriteString("Table 4: Execution time (msec) of Q7 distributed on the loop-lifted engine (A) and the wrapper engine (B)\n")
	fmt.Fprintf(&b, "%-24s %12s %12s %12s %10s %12s\n",
		"", "Total", "A (MonetDB)", "B (Saxon)", "requests", "bytes")
	for _, r := range results {
		fmt.Fprintf(&b, "%-24s %12.2f %12.2f %12.2f %10d %12d\n",
			r.Strategy, ms(r.Total), ms(r.ATime), ms(r.BTime), r.Requests, r.BytesShipped)
	}
	return b.String()
}

// ------------------------------------------------------------- Figure 1

// RunFigure1 evaluates Q3 with tracing enabled and returns the captured
// intermediate tables.
func RunFigure1() (*pathfinder.Trace, error) {
	net := netsim.NewNetwork(0, 0)
	reg := modules.NewRegistry()
	film := `
module namespace film="films";
declare function film:filmsByActor($actor as xs:string) as node()*
{ doc("filmDB.xml")//name[../actor=$actor] };`
	if err := reg.Register(film, "http://x.example.org/film.xq"); err != nil {
		return nil, err
	}
	mk := func(uri, xml string) {
		st := store.New()
		st.LoadXML("filmDB.xml", xml)
		srv := server.New(st, reg, server.NewNativeExecutor(interp.New(reg), reg))
		net.Register(uri, srv)
	}
	mk("xrpc://y.example.org", xmark.PaperFilmDB)
	mk("xrpc://z.example.org", `<films>
<film><name>Sound Of Music</name><actor>Julie Andrews</actor></film>
</films>`)

	compiled, err := pathfinder.Compile(`
import module namespace f="films" at "http://x.example.org/film.xq";
for $actor in ("Julie Andrews", "Sean Connery")
for $dst in ("xrpc://y.example.org", "xrpc://z.example.org")
return execute at {$dst} {f:filmsByActor($actor)}`, reg)
	if err != nil {
		return nil, err
	}
	trace := &pathfinder.Trace{}
	// the trace's order is fixed while the requests are built, so the
	// concurrent dispatch leaves it deterministic
	ec := &pathfinder.ExecCtx{Docs: store.New().Snapshot(), Bulk: client.New(net), Trace: trace}
	if _, err := compiled.Eval(ec, nil); err != nil {
		return nil, err
	}
	return trace, nil
}

// FormatFigure1 renders the captured trace like Figure 1 of the paper.
func FormatFigure1(trace *pathfinder.Trace) string {
	var b strings.Builder
	b.WriteString("Figure 1: Relational Processing of Bulk RPC (multiple destinations)\n\n")
	for _, pt := range trace.PerPeer {
		fmt.Fprintf(&b, "peer %s\n", pt.Peer)
		fmt.Fprintf(&b, "map:\n%s", pt.Map)
		for i, req := range pt.Req {
			fmt.Fprintf(&b, "req (param %d):\n%s", i+1, req)
		}
		fmt.Fprintf(&b, "msg:\n%s", pt.Msg)
		fmt.Fprintf(&b, "res (mapped back):\n%s\n", pt.Res)
	}
	fmt.Fprintf(&b, "result (merge-union):\n%s", trace.Result)
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------- algebra microbench

// AlgebraBenchRow is one operator's row of the columnar-vs-row-store
// microbenchmark (`xrpcbench -table algebra`): the same operator run
// over the same input in both storage layouts, outputs verified
// identical.
type AlgebraBenchRow struct {
	Op       string
	Rows     int
	Columnar time.Duration
	RowStore time.Duration
}

// Speedup is row-store time over columnar time.
func (r *AlgebraBenchRow) Speedup() float64 {
	if r.Columnar <= 0 {
		return 0
	}
	return float64(r.RowStore) / float64(r.Columnar)
}

// RunAlgebraBench times the loop-lifting hot operators (⋈ on iter, ρ
// over (iter, pos), σ, sort) in the columnar engine against the
// row-store reference at n input rows, best of reps runs. Before
// timing, each operator pair is checked for identical output. The input
// shapes come from algebra.Bench*Input, shared with the package's own
// BenchmarkAlgebra* microbenchmarks.
func RunAlgebraBench(n, reps int) ([]AlgebraBenchRow, error) {
	if reps < 1 {
		reps = 3
	}
	mapTbl, varTbl := algebra.BenchJoinInput(n)
	rm, rv := mapTbl.RowStore(), varTbl.RowStore()
	seq := algebra.BenchSeqInput(n)
	rseq := seq.RowStore()
	boolT := algebra.BenchBoolInput(n)
	rbool := boolT.RowStore()

	type op struct {
		name     string
		columnar func() fmt.Stringer
		rowstore func() fmt.Stringer
	}
	ops := []op{
		{"join (⋈ on iter)",
			func() fmt.Stringer { return algebra.Join(mapTbl, varTbl, "outer", algebra.ColIter) },
			func() fmt.Stringer { return algebra.RowJoin(rm, rv, "outer", algebra.ColIter) }},
		{"rownum (ρ iter,pos)",
			func() fmt.Stringer {
				return algebra.RowNum(seq, "n", []string{algebra.ColIter, algebra.ColPos}, "")
			},
			func() fmt.Stringer {
				return algebra.RowRowNum(rseq, "n", []string{algebra.ColIter, algebra.ColPos}, "")
			}},
		{"select (σ bool)",
			func() fmt.Stringer { return algebra.Select(boolT, "b") },
			func() fmt.Stringer { return algebra.RowSelect(rbool, "b") }},
		{"sort (iter,pos)",
			func() fmt.Stringer { return algebra.SortBy(seq, algebra.ColIter, algebra.ColPos) },
			func() fmt.Stringer { return algebra.RowSortBy(rseq, algebra.ColIter, algebra.ColPos) }},
	}
	var rows []AlgebraBenchRow
	// each sample amortizes the operator over enough iterations to total
	// a few milliseconds — single invocations of the cheap operators (σ)
	// run at µs scale, where one GC pause swamps the measurement
	best := func(f func() fmt.Stringer) time.Duration {
		start := time.Now()
		f() // warm-up, and calibrate the per-sample iteration count
		once := time.Since(start)
		iters := 1
		if once < 2*time.Millisecond {
			iters = int(2*time.Millisecond/(once+1)) + 1
		}
		var min time.Duration
		for s := 0; s < reps; s++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				f()
			}
			d := time.Since(start) / time.Duration(iters)
			if s == 0 || d < min {
				min = d
			}
		}
		return min
	}
	for _, o := range ops {
		if c, r := o.columnar().String(), o.rowstore().String(); c != r {
			return nil, fmt.Errorf("algebra bench %q: columnar and row-store outputs differ", o.name)
		}
		runtime.GC() // don't bill one operator for another's garbage
		col := best(o.columnar)
		runtime.GC()
		row := best(o.rowstore)
		rows = append(rows, AlgebraBenchRow{Op: o.name, Rows: n, Columnar: col, RowStore: row})
	}
	return rows, nil
}

// FormatAlgebraBench renders the microbenchmark rows.
func FormatAlgebraBench(rows []AlgebraBenchRow) string {
	var b strings.Builder
	if len(rows) > 0 {
		fmt.Fprintf(&b, "Algebra operators, columnar vs row-store (%d input rows, best of runs)\n", rows[0].Rows)
	}
	fmt.Fprintf(&b, "%-22s %12s %12s %9s\n", "", "columnar", "row-store", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %9.3f ms %9.3f ms %8.2fx\n",
			r.Op, ms(r.Columnar), ms(r.RowStore), r.Speedup())
	}
	return b.String()
}

// --------------------------------------------------- parallel bulk exec

// BulkExecEnv is the server-side bulk execution harness: one native
// (function-cached) peer holding an XMark document, and one pre-encoded
// read-only bulk request of selections over it. It isolates the
// executor's evaluation cost — no network, no client — so the cost per
// call as the bulk grows, and the sequential-vs-parallel contrast of the
// NativeExecutor worker pool, are directly observable.
type BulkExecEnv struct {
	Server *server.Server
	Exec   *server.NativeExecutor
	// Body is the encoded bulk request.
	Body []byte
}

// NewBulkExecEnv wires the harness with a bulk of calls func:getPerson
// calls (§4) over an XMark document of cfg.Persons persons.
func NewBulkExecEnv(calls int, cfg xmark.Config) (*BulkExecEnv, error) {
	req := &soap.Request{
		Module:   "functions",
		Method:   "getPerson",
		Arity:    2,
		Location: "http://example.org/functions.xq",
	}
	for i := 0; i < calls; i++ {
		pid := xmark.PersonID(i % maxInt(cfg.Persons, 1))
		req.Calls = append(req.Calls, []xdm.Sequence{
			{xdm.String("xmark.xml")}, {xdm.String(pid)},
		})
	}
	return newBulkExecEnv(GetPersonModule, "xmark.xml", xmark.GeneratePersons(cfg), req)
}

// NewBulkProbeEnv wires the harness with a bulk of calls b:Q_B3 probes
// (§5, the semi-join's callee side) over cfg.ClosedAuctions auctions.
func NewBulkProbeEnv(calls int, cfg xmark.Config) (*BulkExecEnv, error) {
	req := &soap.Request{
		Module:   "functions_b",
		Method:   "Q_B3",
		Arity:    1,
		Location: "http://example.org/b.xq",
	}
	for i := 0; i < calls; i++ {
		pid := xmark.PersonID(i % maxInt(cfg.Persons, 1))
		req.Calls = append(req.Calls, []xdm.Sequence{{xdm.String(pid)}})
	}
	return newBulkExecEnv(strategies.FunctionsB, "auctions.xml", xmark.GenerateAuctions(cfg), req)
}

func newBulkExecEnv(module, docName, docXML string, req *soap.Request) (*BulkExecEnv, error) {
	reg := modules.NewRegistry()
	if err := reg.Register(module, req.Location); err != nil {
		return nil, err
	}
	st := store.New()
	if err := st.LoadXML(docName, docXML); err != nil {
		return nil, err
	}
	exec := server.NewNativeExecutor(interp.New(reg), reg)
	srv := server.New(st, reg, exec)
	srv.Self = "xrpc://y.example.org"
	return &BulkExecEnv{Server: srv, Exec: exec, Body: soap.EncodeRequest(req)}, nil
}

// Run serves the bulk request once with the given worker pool size and
// returns the elapsed handling time. The response bytes are returned so
// callers can assert parallel/sequential identity.
func (env *BulkExecEnv) Run(parallelism int) (time.Duration, []byte, error) {
	env.Exec.Parallelism = parallelism
	start := time.Now()
	rc, err := env.Server.HandleXRPC(client.XRPCPath, env.Body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := netsim.ReadBody(rc, -1)
	rc.Close()
	if err != nil {
		return 0, nil, err
	}
	if strings.Contains(string(resp), "Fault") {
		return 0, nil, fmt.Errorf("bulk exec returned a fault: %s", resp)
	}
	return time.Since(start), resp, nil
}
