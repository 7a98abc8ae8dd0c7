package bench

import (
	"xrpc/internal/client"
	"xrpc/internal/cluster"
	"xrpc/internal/soap"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

// ClusterBandwidth is the simulated link bandwidth of the planner
// experiment: the ~10 MB/s effective SOAP throughput the paper measured
// on its 1 Gb/s LAN. With shipping this slow relative to CPU, the
// experiment exposes the lever sharding actually pulls: response bytes
// split across N concurrent links.
const ClusterBandwidth = 10 * 1024 * 1024

// ClusterProbeRequest builds the Q_B3 probe workload against the §5
// shard module: one call per generated person, the scattered probe side
// of the sharded semi-join. The cluster scatter benchmarks time it.
func ClusterProbeRequest(cfg xmark.Config) *client.BulkRequest {
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
}

func encodeClusterResults(br *client.BulkRequest, res []xdm.Sequence) []byte {
	return soap.EncodeResponse(&soap.Response{
		Module: br.ModuleURI, Method: br.Func, Results: res,
	})
}

// FunctionsP is the routed-cluster workload module: a point read and an
// updating function, both keyed by the person id — the partition key of
// persons.xml. The updating body is total (an empty match produces an
// empty pending update list), so broadcasting it is semantically legal,
// just wasteful.
const FunctionsP = `
module namespace p = "functions_p";
declare function p:getPerson($pid as xs:string) as node()*
{ doc("persons.xml")//person[@id=$pid] };
declare updating function p:setCity($pid as xs:string, $city as xs:string)
{ for $c in doc("persons.xml")//person[@id=$pid]/address/city
  return replace value of node $c with $city };`

// PersonRoutes declares the partition keys of the FunctionsP functions:
// the person id, over the partitioned container of persons.xml.
func PersonRoutes() []cluster.RouteSpec {
	var out []cluster.RouteSpec
	for _, fn := range []string{"getPerson", "setCity"} {
		out = append(out, cluster.RouteSpec{
			ModuleURI: "functions_p", Func: fn, KeyArg: 0,
			Doc: "persons.xml", Path: "/site/people/person",
		})
	}
	return out
}

// personKeys spreads n person ids evenly over the generated persons.
func personKeys(persons, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = xmark.PersonID(i * persons / n)
	}
	return keys
}

// probeRequestP is a getPerson bulk with one call per key.
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
