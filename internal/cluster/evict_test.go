package cluster

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/obs"
	"xrpc/internal/store/storetest"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

func cityOfRequest(pids ...string) *client.BulkRequest {
	br := &client.BulkRequest{
		ModuleURI: "functions_p",
		AtHint:    "http://example.org/p.xq",
		Func:      "cityOf",
		Arity:     1,
	}
	for _, pid := range pids {
		br.Calls = append(br.Calls, []xdm.Sequence{{xdm.String(pid)}})
	}
	return br
}

// ownerShard resolves the single shard holding pid.
func ownerShard(t *testing.T, dep *Deployment, pid string) int {
	t.Helper()
	cand := dep.Table.CandidateShards("persons.xml", personsPath, pid)
	if len(cand) != 1 {
		t.Fatalf("pid %s resolves to %v shards", pid, cand)
	}
	return cand[0]
}

// Eviction is final: once a failed AdoptPUL evicts a replica, the
// coordinator sends it nothing again — not the AdoptPUL of a later
// routed update, not a scatter read, and not a failover read when the
// primary fails.
func TestEvictionIsFinal(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	dep := deployPersons(t, net, 40, 1, 2)
	reg := obs.NewRegistry()
	co := dep.Coordinator()
	co.Metrics = NewMetrics(reg, 1)
	primary, replica := dep.Table.Replicas(0)[0], dep.Table.Replicas(0)[1]

	net.FailNext(replica, 1) // the AdoptPUL forward fails
	if _, err := co.Update(setCityRequest("Evictville", "person1")); err != nil {
		t.Fatal(err)
	}
	if reps := dep.Table.Replicas(0); len(reps) != 1 || reps[0] != primary {
		t.Fatalf("replicas after the failed AdoptPUL = %v, want [%s]", reps, primary)
	}
	reqs, _, _ := net.PeerStats(replica)

	if _, err := co.Update(setCityRequest("Afterville", "person1")); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Scatter(cityOfRequest("person1", "person2")); err != nil {
		t.Fatal(err)
	}
	res, err := co.CallBulk(DefaultClusterURI, cityOfRequest("person1"))
	if err != nil {
		t.Fatal(err)
	}
	if got := xdm.SerializeSequence(res[0]); !strings.Contains(got, "Afterville") {
		t.Fatalf("routed read = %q, want the primary's Afterville", got)
	}
	// the primary fails a read: there is no replica left to fail over to
	net.FailNext(primary, 1)
	if _, err := co.CallBulk(DefaultClusterURI, cityOfRequest("person1")); err == nil {
		t.Fatal("read with its only peer failing succeeded")
	}

	if now, _, _ := net.PeerStats(replica); now != reqs {
		t.Fatalf("evicted replica received %d requests after its eviction, want 0", now-reqs)
	}
	if n := obsMust(t, reg, "xrpc_cluster_evictions_total"); n != 1 {
		t.Fatalf("evictions counter = %v, want 1", n)
	}
	repDoc := storetest.Doc(t, dep.Stores[0][1], "persons.xml")
	if strings.Contains(xdm.SerializeNode(repDoc), "Afterville") {
		t.Fatal("evicted replica holds a commit made after its eviction")
	}
}

// A short unavailability burst at a replica (restart, load spike) is
// absorbed by the client retry policy instead of evicting the replica;
// without the policy the same burst evicts it. Guards the
// retry-before-evict contract.
func TestTransientBurstDoesNotEvictHealthyReplica(t *testing.T) {
	newDeployment := func() (*netsim.Network, *Deployment, *Coordinator) {
		net := netsim.NewNetwork(0, 0)
		dep := deployPersons(t, net, 40, 1, 2)
		return net, dep, dep.Coordinator()
	}

	net, dep, co := newDeployment()
	co.Client.Retry = &client.RetryPolicy{Max: 3, Base: time.Microsecond, Sleep: func(time.Duration) {}}
	replica := dep.Table.Replicas(0)[1]
	net.FailNext(replica, 2) // burst hits the AdoptPUL replication sends

	if _, err := co.Update(setCityRequest("Burstville", "person1")); err != nil {
		t.Fatal(err)
	}
	if reps := dep.Table.Replicas(0); len(reps) != 2 || reps[1] != replica {
		t.Fatalf("healthy replica evicted through a transient burst: replicas = %v", reps)
	}
	repDoc := storetest.Doc(t, dep.Stores[0][1], "persons.xml")
	if !strings.Contains(xdm.SerializeNode(repDoc), "Burstville") {
		t.Fatal("replica missed the commit despite surviving the burst")
	}

	// contrast: the identical burst without a retry policy evicts the
	// replica — the regression this test exists to catch
	net, dep, co = newDeployment()
	net.FailNext(dep.Table.Replicas(0)[1], 2)
	if _, err := co.Update(setCityRequest("Burstville", "person1")); err != nil {
		t.Fatal(err)
	}
	if reps := dep.Table.Replicas(0); len(reps) != 1 {
		t.Fatalf("without retry, replicas = %v, want the burst to evict one", reps)
	}
}

// labelModule inserts a node per call, so an update applied twice
// shows as two labels.
const labelModule = `
module namespace l = "functions_l";
declare updating function l:addLabel($pid as xs:string, $v as xs:string)
{ for $p in doc("persons.xml")//person[@id=$pid]
  return insert node <label>{$v}</label> into $p };`

// loseReply delivers one matching request and then reports a transport
// error, as a connection reset after the peer answered does: the
// sender cannot tell whether the request took effect.
type loseReply struct {
	netsim.Transport
	dest, marker string
	lost         atomic.Bool
}

func (l *loseReply) Send(dest, path string, body []byte) ([]byte, error) {
	resp, err := l.Transport.Send(dest, path, body)
	if err == nil && dest == l.dest && bytes.Contains(body, []byte(l.marker)) && l.lost.CompareAndSwap(false, true) {
		return nil, errors.New("connection reset after delivery")
	}
	return resp, err
}

// Under the retry policy a lost reply must not apply an update twice:
// the apply phase is not re-sent (the transaction aborts instead), a
// re-sent AdoptPUL leaves the replica with the list adopted once — the
// version fence cannot see a list merged twice — and a re-sent Commit
// is answered with the version the first one produced, so the update
// succeeds and no replica is evicted.
func TestRetriedUpdateAppliesOnce(t *testing.T) {
	for _, tc := range []struct {
		name, marker string
		atReplica    bool
		wantErr      bool
		wantLabels   int
	}{
		{"apply at the primary", "addLabel", false, true, 0},
		{"AdoptPUL at the replica", "AdoptPUL", true, false, 1},
		{"Commit at the primary", "Commit", false, false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := netsim.NewNetwork(0, 0)
			reg := modules.NewRegistry()
			if err := reg.Register(labelModule, "http://example.org/l.xq"); err != nil {
				t.Fatal(err)
			}
			xml := xmark.GeneratePersons(xmark.Config{Persons: 10, Seed: 11})
			dep, err := Deploy(net, reg, map[string]string{"persons.xml": xml}, DeployConfig{
				Shards: 1, Replication: 2,
				Routes: []RouteSpec{{ModuleURI: "functions_l", Func: "addLabel", KeyArg: 0,
					Doc: "persons.xml", Path: personsPath}},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { dep.Close() })
			co := dep.Coordinator()
			dest := dep.Table.Replicas(0)[0]
			if tc.atReplica {
				dest = dep.Table.Replicas(0)[1]
			}
			co.Client.Transport = &loseReply{Transport: net, dest: dest, marker: tc.marker}
			co.Client.Retry = &client.RetryPolicy{Max: 3, Base: time.Microsecond, Sleep: func(time.Duration) {}}

			_, err = co.Update(&client.BulkRequest{
				ModuleURI: "functions_l", AtHint: "http://example.org/l.xq",
				Func: "addLabel", Arity: 2, Updating: true,
				Calls: [][]xdm.Sequence{{{xdm.String("person1")}, {xdm.String("once")}}},
			})
			if (err != nil) != tc.wantErr {
				t.Fatalf("Update err = %v, want error %v", err, tc.wantErr)
			}
			if reps := dep.Table.Replicas(0); len(reps) != 2 {
				t.Fatalf("replicas = %v, want both kept", reps)
			}
			for r, st := range dep.Stores[0] {
				doc := xdm.SerializeNode(storetest.Doc(t, st, "persons.xml"))
				if n := strings.Count(doc, "<label>once</label>"); n != tc.wantLabels {
					t.Errorf("peer %d holds %d labels, want %d", r, n, tc.wantLabels)
				}
			}
		})
	}
}

func obsMust(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	v, ok := reg.Gather(name)
	if !ok {
		t.Fatalf("metric %s not registered", name)
	}
	return v
}
