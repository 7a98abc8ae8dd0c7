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
	"xrpc/internal/txn"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

// FunctionsP is the routed-cluster workload module: a point read and an
// updating function, both keyed by the person id — the partition key of
// persons.xml. The updating body is total (an empty match produces an
// empty pending update list), so broadcasting it is semantically legal,
// just wasteful; that is exactly the routed-vs-broadcast comparison the
// cluster-update experiment times.
const FunctionsP = `
module namespace p = "functions_p";
declare function p:getPerson($pid as xs:string) as node()*
{ doc("persons.xml")//person[@id=$pid] };
declare updating function p:setCity($pid as xs:string, $city as xs:string)
{ for $c in doc("persons.xml")//person[@id=$pid]/address/city
  return replace value of node $c with $city };`

// PersonsPath is the partitioned container of persons.xml.
const PersonsPath = "/site/people/person"

// PersonRoutes declares the partition keys of the FunctionsP functions.
func PersonRoutes() []cluster.RouteSpec {
	var out []cluster.RouteSpec
	for _, fn := range []string{"getPerson", "setCity"} {
		out = append(out, cluster.RouteSpec{
			ModuleURI: "functions_p", Func: fn, KeyArg: 0,
			Doc: "persons.xml", Path: PersonsPath,
		})
	}
	return out
}

// ClusterUpdateRow is one (workload, mode, peer-count) measurement of
// the cluster-update experiment.
type ClusterUpdateRow struct {
	Workload string // "update xN" or "probe xN"
	Mode     string // routed/broadcast (writes), pruned/full (probes)
	Peers    int
	Millis   float64
	// Requests is the number of network requests one operation costs
	// (incl. 2PC verbs for writes).
	Requests int64
	// ServedCalls is the number of function applications the peers
	// executed for one operation — the server-side work routing avoids.
	ServedCalls int64
	// Verified is set when the mode's results were checked against the
	// unsharded single-peer baseline before timing.
	Verified bool
}

// clusterUpdateEnv is one deployed persons cluster plus its workloads.
type clusterUpdateEnv struct {
	net *netsim.Network
	dep *cluster.Deployment
	co  *cluster.Coordinator // routed/pruned (routes registered)
}

func newClusterUpdateEnv(xml string, shards int, routes bool, rtt time.Duration) (*clusterUpdateEnv, error) {
	reg := modules.NewRegistry()
	if err := reg.Register(FunctionsP, "http://example.org/p.xq"); err != nil {
		return nil, err
	}
	cfg := cluster.DeployConfig{Shards: shards}
	if routes {
		cfg.Routes = PersonRoutes()
	}
	net := netsim.NewNetwork(rtt, ClusterBandwidth)
	dep, err := cluster.Deploy(net, reg, map[string]string{"persons.xml": xml}, cfg)
	if err != nil {
		return nil, err
	}
	co := dep.Coordinator()
	if !routes {
		// the broadcast/full baselines measure the pre-planner cluster: a
		// plain coordinator, no routes and no self-driving planner (the
		// deployment coordinator would derive the routes and prune anyway)
		co = cluster.NewCoordinator(dep.Table, client.New(net))
	}
	return &clusterUpdateEnv{net: net, dep: dep, co: co}, nil
}

func personKeys(persons, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = xmark.PersonID(i * persons / n)
	}
	return keys
}

func probeRequestP(keys []string) *client.BulkRequest {
	br := &client.BulkRequest{
		ModuleURI: "functions_p",
		AtHint:    "http://example.org/p.xq",
		Func:      "getPerson",
		Arity:     1,
	}
	for _, k := range keys {
		br.Calls = append(br.Calls, []xdm.Sequence{{xdm.String(k)}})
	}
	return br
}

func updateRequestP(keys []string, city string) *client.BulkRequest {
	br := &client.BulkRequest{
		ModuleURI: "functions_p",
		AtHint:    "http://example.org/p.xq",
		Func:      "setCity",
		Arity:     2,
		Updating:  true,
	}
	for _, k := range keys {
		br.Calls = append(br.Calls, []xdm.Sequence{{xdm.String(k)}, {xdm.String(city)}})
	}
	return br
}

// broadcastUpdate is the pre-range-metadata write path a cluster would
// be left with: ship every updating call to every shard primary under
// one queryID (non-owning shards evaluate it to an empty PUL) and run
// 2PC over all primaries.
func broadcastUpdate(env *clusterUpdateEnv, br *client.BulkRequest) error {
	txCl := client.New(env.net)
	txCl.QueryID = txn.NewQueryID("xrpc://bench-coordinator", 30)
	primaries := make([]string, env.dep.Table.NumShards())
	for s := range primaries {
		primaries[s] = env.dep.Table.Primary(s)
	}
	for _, p := range primaries {
		if _, err := txCl.CallBulk(p, br); err != nil {
			tc := &txn.Coordinator{Client: txCl}
			tc.AbortAll(primaries)
			return err
		}
	}
	return (&txn.Coordinator{Client: txCl}).CommitAll(primaries)
}

// servedCalls sums the function applications executed across all peers.
func (env *clusterUpdateEnv) servedCalls() int64 {
	var total int64
	for s := range env.dep.Servers {
		for _, srv := range env.dep.Servers[s] {
			total += srv.ServedCalls
		}
	}
	return total
}

// unshardedBaseline applies upd (when non-nil) to a single peer holding
// the whole document and returns the encoded probe response.
func unshardedBaseline(xml string, upd, probe *client.BulkRequest, rtt time.Duration) ([]byte, error) {
	reg := modules.NewRegistry()
	if err := reg.Register(FunctionsP, "http://example.org/p.xq"); err != nil {
		return nil, err
	}
	net := netsim.NewNetwork(rtt, ClusterBandwidth)
	st := store.New()
	if err := st.LoadXML("persons.xml", xml); err != nil {
		return nil, err
	}
	srv := server.New(st, reg, server.NewNativeExecutor(interp.New(st, reg, nil), reg))
	net.Register("xrpc://single", srv)
	cl := client.New(net)
	if upd != nil {
		if _, err := cl.CallBulk("xrpc://single", upd); err != nil {
			return nil, err
		}
	}
	res, err := cl.CallBulk("xrpc://single", probe)
	if err != nil {
		return nil, err
	}
	return encodeClusterResults(probe, res), nil
}

// RunClusterUpdateBench measures the range-aware cluster against its
// broadcast predecessor over the given peer counts:
//
//   - writes: a routed updating bulk (each call travels to its owning
//     shard's primary, 2PC over the touched primaries) vs the broadcast
//     equivalent (every call to every primary, 2PC over all);
//   - probes: a key-predicate read bulk with predicate pruning vs the
//     full scatter.
//
// Before any timing, each mode's post-update probe response is verified
// byte-identical to an unsharded single-peer execution of the same
// calls.
func RunClusterUpdateBench(cfg xmark.Config, peerCounts []int, rtt time.Duration, reps int) ([]ClusterUpdateRow, error) {
	if len(peerCounts) == 0 {
		peerCounts = []int{2, 4, 8}
	}
	if reps < 1 {
		reps = 3
	}
	xml := xmark.GeneratePersons(cfg)
	nKeys := 8
	if cfg.Persons < nKeys {
		nKeys = cfg.Persons
	}
	spread := personKeys(cfg.Persons, nKeys)
	single := spread[:1]

	var rows []ClusterUpdateRow
	for _, wl := range []struct {
		name string
		keys []string
	}{
		{fmt.Sprintf("update x%d", nKeys), spread},
		{"update x1", single},
	} {
		upd := updateRequestP(wl.keys, "Benchtown")
		probe := probeRequestP(wl.keys)
		baseline, err := unshardedBaseline(xml, upd, probe, rtt)
		if err != nil {
			return nil, err
		}
		for _, peers := range peerCounts {
			for _, mode := range []string{"routed", "broadcast"} {
				env, err := newClusterUpdateEnv(xml, peers, mode == "routed", rtt)
				if err != nil {
					return nil, err
				}
				run := func() error {
					if mode == "routed" {
						_, err := env.co.Update(upd)
						return err
					}
					return broadcastUpdate(env, upd)
				}
				// identity before timing: the committed state must probe
				// byte-identically to the unsharded baseline
				if err := run(); err != nil {
					return nil, fmt.Errorf("cluster-update %s %s peers=%d: %w", wl.name, mode, peers, err)
				}
				got, err := env.co.Scatter(probe)
				if err != nil {
					return nil, err
				}
				if !bytes.Equal(encodeClusterResults(probe, got), baseline) {
					return nil, fmt.Errorf("cluster-update %s %s peers=%d: state differs from unsharded baseline", wl.name, mode, peers)
				}
				row, err := timeClusterOp(env, wl.name, mode, peers, reps, run)
				if err != nil {
					return nil, err
				}
				rows = append(rows, *row)
			}
		}
	}

	// probes: pruned vs full scatter of the same key-predicate bulk
	probe := probeRequestP(spread)
	baseline, err := unshardedBaseline(xml, nil, probe, rtt)
	if err != nil {
		return nil, err
	}
	for _, peers := range peerCounts {
		for _, mode := range []string{"pruned", "full"} {
			env, err := newClusterUpdateEnv(xml, peers, mode == "pruned", rtt)
			if err != nil {
				return nil, err
			}
			run := func() error {
				res, err := env.co.Scatter(probe)
				if err != nil {
					return err
				}
				if !bytes.Equal(encodeClusterResults(probe, res), baseline) {
					return fmt.Errorf("probe response differs from unsharded baseline")
				}
				return nil
			}
			if err := run(); err != nil { // identity + cache warm-up
				return nil, fmt.Errorf("cluster-update probe %s peers=%d: %w", mode, peers, err)
			}
			row, err := timeClusterOp(env, fmt.Sprintf("probe x%d", nKeys), mode, peers, reps, run)
			if err != nil {
				return nil, err
			}
			rows = append(rows, *row)
		}
	}
	return rows, nil
}

// timeClusterOp times run (best of reps) and attributes the per-op
// request and served-call counts.
func timeClusterOp(env *clusterUpdateEnv, workload, mode string, peers, reps int, run func() error) (*ClusterUpdateRow, error) {
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
	return &ClusterUpdateRow{
		Workload:    workload,
		Mode:        mode,
		Peers:       peers,
		Millis:      ms(best),
		Requests:    env.net.Stats.Requests.Load(),
		ServedCalls: env.servedCalls() - served0,
		Verified:    true,
	}, nil
}

// FormatClusterUpdateBench renders the sweep grouped by workload.
func FormatClusterUpdateBench(rows []ClusterUpdateRow) string {
	var b strings.Builder
	last := ""
	for _, r := range rows {
		if r.Workload != last {
			fmt.Fprintf(&b, "%s\n  %-10s %-6s %10s %10s %13s\n",
				r.Workload, "mode", "peers", "msec", "requests", "served calls")
			last = r.Workload
		}
		fmt.Fprintf(&b, "  %-10s %-6d %10.2f %10d %13d\n",
			r.Mode, r.Peers, r.Millis, r.Requests, r.ServedCalls)
	}
	return b.String()
}
