package bench

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/cluster"
	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/server"
	"xrpc/internal/store"
	"xrpc/internal/strategies"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

// The planner experiment measures the self-driving cluster against its
// static predecessor with ZERO hand-written RouteSpecs: every route the
// "planner" rows use is derived by the compiler from the module bodies,
// while the "broadcast" rows run a plain coordinator with neither
// routes nor planner. Every mode's response is verified byte-identical
// to an unsharded single-peer execution before any timing.

// FunctionsI is the range-scan module of the planner experiment: items
// keyed by a fixed-width (hence codepoint-ordered) id, scanned with a
// range predicate the planner can prune against the shard key bounds.
const FunctionsI = `
module namespace i = "functions_i";
declare function i:itemsFrom($k as xs:string) as node()*
{ doc("items.xml")//item[@id >= $k] };`

// benchItemsXML generates n items with fixed-width ids ("i00042"), so
// the partition keys are strictly increasing in codepoint order too
// (KeyRange.Lex) and derived range predicates may prune.
func benchItemsXML(n int) string {
	var b strings.Builder
	b.WriteString("<site><items>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<item id="%s"><seq>%d</seq></item>`, benchItemID(i), i)
	}
	b.WriteString("</items></site>")
	return b.String()
}

func benchItemID(i int) string { return fmt.Sprintf("i%05d", i) }

// PlannerRow is one (workload, mode, peer-count) measurement of the
// planner experiment.
type PlannerRow struct {
	Workload string
	Mode     string // "planner" | "broadcast" | semi-join sides
	Peers    int
	Millis   float64
	// Requests is the network request count of one operation: flat in
	// peer count for planner-routed point work, linear for broadcast.
	Requests int64
	// ServedCalls is the number of function applications the peers
	// executed (0 where the workload does not expose it).
	ServedCalls int64
	// Strategy records the planner's decision where one was made
	// ("routed", "ship-keys", "ship-data").
	Strategy string
	// Verified is set when the mode's response was byte-compared against
	// the unsharded single-peer baseline before timing.
	Verified bool
}

// plannerEnv is one zero-spec deployment (persons.xml + items.xml) with
// either the self-driving coordinator or the plain broadcast one.
type plannerEnv struct {
	net *netsim.Network
	dep *cluster.Deployment
	co  *cluster.Coordinator
}

func newPlannerEnv(personsXML, itemsXML string, shards int, selfDriving bool, rtt time.Duration) (*plannerEnv, error) {
	reg := modules.NewRegistry()
	if err := reg.Register(FunctionsP, "http://example.org/p.xq"); err != nil {
		return nil, err
	}
	if err := reg.Register(FunctionsI, "http://example.org/i.xq"); err != nil {
		return nil, err
	}
	net := netsim.NewNetwork(rtt, ClusterBandwidth)
	docs := map[string]string{"persons.xml": personsXML, "items.xml": itemsXML}
	dep, err := cluster.Deploy(net, reg, docs, cluster.DeployConfig{Shards: shards})
	if err != nil {
		return nil, err
	}
	co := dep.Coordinator() // planner attached, zero hand-written specs
	if !selfDriving {
		co = cluster.NewCoordinator(dep.Table, client.New(net))
	}
	return &plannerEnv{net: net, dep: dep, co: co}, nil
}

func (env *plannerEnv) servedCalls() int64 {
	var total int64
	for s := range env.dep.Servers {
		for _, srv := range env.dep.Servers[s] {
			total += srv.ServedCalls
		}
	}
	return total
}

// plannerBaseline executes the request against one peer holding both
// unsharded documents.
func plannerBaseline(personsXML, itemsXML string, br *client.BulkRequest, rtt time.Duration) ([]byte, error) {
	reg := modules.NewRegistry()
	if err := reg.Register(FunctionsP, "http://example.org/p.xq"); err != nil {
		return nil, err
	}
	if err := reg.Register(FunctionsI, "http://example.org/i.xq"); err != nil {
		return nil, err
	}
	net := netsim.NewNetwork(rtt, ClusterBandwidth)
	st := store.New()
	if err := st.LoadXML("persons.xml", personsXML); err != nil {
		return nil, err
	}
	if err := st.LoadXML("items.xml", itemsXML); err != nil {
		return nil, err
	}
	srv := server.New(st, reg, server.NewNativeExecutor(interp.New(reg), reg))
	net.Register("xrpc://single", srv)
	res, err := client.New(net).CallBulk("xrpc://single", br)
	if err != nil {
		return nil, err
	}
	return encodeClusterResults(br, res), nil
}

func itemsScanRequest(key string) *client.BulkRequest {
	return &client.BulkRequest{
		ModuleURI: "functions_i",
		AtHint:    "http://example.org/i.xq",
		Func:      "itemsFrom",
		Arity:     1,
		Calls:     [][]xdm.Sequence{{{xdm.String(key)}}},
	}
}

// RunPlannerBench sweeps the self-driving planner over the given peer
// counts:
//
//   - probe x1 / probe xN: keyed getPerson bulks with no registered
//     RouteSpec — the planner derives the route, so one probe costs one
//     server call instead of one per peer;
//   - range scan: a derived @id >= $k predicate pruned against
//     codepoint-ordered shard key bounds;
//   - semi-join: the sharded distributed semi-join shipping keys, data,
//     and whichever side the cost model measures as smaller.
//
// Each mode's response is verified byte-identical to the unsharded (or
// keys-side) baseline before timing.
func RunPlannerBench(cfg xmark.Config, peerCounts []int, rtt time.Duration, reps int) ([]PlannerRow, error) {
	if len(peerCounts) == 0 {
		peerCounts = []int{1, 2, 4, 8}
	}
	if reps < 1 {
		reps = 3
	}
	personsXML := xmark.GeneratePersons(cfg)
	nItems := 4 * cfg.Persons
	if nItems < 64 {
		nItems = 64
	}
	itemsXML := benchItemsXML(nItems)

	nKeys := 8
	if cfg.Persons < nKeys {
		nKeys = cfg.Persons
	}
	workloads := []struct {
		name     string
		br       *client.BulkRequest
		strategy string
	}{
		{"probe x1", probeRequestP(personKeys(cfg.Persons, 1)), "routed"},
		{fmt.Sprintf("probe x%d", nKeys), probeRequestP(personKeys(cfg.Persons, nKeys)), "routed"},
		// the scan key sits at 7/8 of the id space: only the last shard's
		// key bounds can satisfy @id >= $k at every peer count
		{"range scan", itemsScanRequest(benchItemID(nItems * 7 / 8)), "routed"},
	}

	var rows []PlannerRow
	for _, wl := range workloads {
		baseline, err := plannerBaseline(personsXML, itemsXML, wl.br, rtt)
		if err != nil {
			return nil, fmt.Errorf("planner bench %s: baseline: %w", wl.name, err)
		}
		for _, peers := range peerCounts {
			for _, mode := range []string{"planner", "broadcast"} {
				env, err := newPlannerEnv(personsXML, itemsXML, peers, mode == "planner", rtt)
				if err != nil {
					return nil, err
				}
				run := func() error {
					res, err := env.co.Scatter(wl.br)
					if err != nil {
						return err
					}
					if !bytes.Equal(encodeClusterResults(wl.br, res), baseline) {
						return fmt.Errorf("response differs from unsharded baseline")
					}
					return nil
				}
				if err := run(); err != nil { // identity before timing
					return nil, fmt.Errorf("planner bench %s %s peers=%d: %w", wl.name, mode, peers, err)
				}
				row, err := timePlannerOp(env, wl.name, mode, peers, reps, run)
				if err != nil {
					return nil, err
				}
				if mode == "planner" {
					row.Strategy = wl.strategy
				}
				rows = append(rows, *row)
			}
		}
	}

	semi, err := runPlannerSemiJoin(cfg, peerCounts, rtt)
	if err != nil {
		return nil, err
	}
	return append(rows, semi...), nil
}

// runPlannerSemiJoin sweeps the sharded semi-join over the peer counts,
// shipping keys, shipping data, and letting the cost model choose; the
// three results must serialize identically before their timings count.
func runPlannerSemiJoin(cfg xmark.Config, peerCounts []int, rtt time.Duration) ([]PlannerRow, error) {
	var rows []PlannerRow
	for _, peers := range peerCounts {
		env, err := strategies.NewShardedEnv(cfg, peers, 1, netsim.NewNetwork(rtt, ClusterBandwidth))
		if err != nil {
			return nil, err
		}
		keysRes, keysSeq, err := env.RunSemiJoin()
		if err != nil {
			return nil, fmt.Errorf("semi-join peers=%d ship-keys: %w", peers, err)
		}
		want := xdm.SerializeSequence(keysSeq)
		dataRes, dataSeq, err := env.RunSemiJoinData()
		if err != nil {
			return nil, fmt.Errorf("semi-join peers=%d ship-data: %w", peers, err)
		}
		if xdm.SerializeSequence(dataSeq) != want {
			return nil, fmt.Errorf("semi-join peers=%d: data-side result differs from keys side", peers)
		}
		autoRes, autoSeq, choice, err := env.RunSemiJoinAuto()
		if err != nil {
			return nil, fmt.Errorf("semi-join peers=%d auto: %w", peers, err)
		}
		if xdm.SerializeSequence(autoSeq) != want {
			return nil, fmt.Errorf("semi-join peers=%d: auto result differs from keys side", peers)
		}
		chosen := "ship-data"
		if choice.ShipKeys {
			chosen = "ship-keys"
		}
		rows = append(rows,
			PlannerRow{Workload: "semi-join", Mode: "ship-keys", Peers: peers,
				Millis: ms(keysRes.Total), Requests: keysRes.Requests, Verified: true},
			PlannerRow{Workload: "semi-join", Mode: "ship-data", Peers: peers,
				Millis: ms(dataRes.Total), Requests: dataRes.Requests, Verified: true},
			PlannerRow{Workload: "semi-join", Mode: "auto", Peers: peers,
				Millis: ms(autoRes.Total), Requests: autoRes.Requests,
				Strategy: chosen, Verified: true},
		)
	}
	return rows, nil
}

// timePlannerOp times run (best of reps) and attributes per-op request
// and served-call counts from a final instrumented run.
func timePlannerOp(env *plannerEnv, workload, mode string, peers, reps int, run func() error) (*PlannerRow, error) {
	var best time.Duration
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := run(); err != nil {
			return nil, err
		}
		d := time.Since(start)
		if r == 0 || d < best {
			best = d
		}
	}
	env.net.ResetStats()
	served0 := env.servedCalls()
	if err := run(); err != nil {
		return nil, err
	}
	return &PlannerRow{
		Workload:    workload,
		Mode:        mode,
		Peers:       peers,
		Millis:      ms(best),
		Requests:    env.net.Stats.Requests.Load(),
		ServedCalls: env.servedCalls() - served0,
		Verified:    true,
	}, nil
}

// FormatPlannerBench renders the sweep grouped by workload.
func FormatPlannerBench(rows []PlannerRow) string {
	var b strings.Builder
	last := ""
	for _, r := range rows {
		if r.Workload != last {
			fmt.Fprintf(&b, "%s\n  %-10s %-6s %10s %10s %13s %10s\n",
				r.Workload, "mode", "peers", "msec", "requests", "served calls", "strategy")
			last = r.Workload
		}
		fmt.Fprintf(&b, "  %-10s %-6d %10.2f %10d %13d %10s\n",
			r.Mode, r.Peers, r.Millis, r.Requests, r.ServedCalls, r.Strategy)
	}
	return b.String()
}
