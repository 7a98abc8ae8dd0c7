package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
	"xrpc/internal/store/storetest"

	"xrpc/internal/client"
	"xrpc/internal/netsim"
	"xrpc/internal/obs"
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

// deployDurablePersons is deployPersons plus a WAL per replica.
func deployDurablePersons(t *testing.T, net *netsim.Network, persons, shards, replication int, segBytes, snapBytes int64) *Deployment {
	t.Helper()
	xml := xmark.GeneratePersons(xmark.Config{Persons: persons, Seed: 11})
	dep, err := Deploy(net, personsRegistry(t), map[string]string{"persons.xml": xml},
		DeployConfig{
			Shards: shards, Replication: replication, Routes: personRoutes(),
			WALRoot: t.TempDir(), WALSegmentBytes: segBytes, WALSnapshotBytes: snapBytes,
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	return dep
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

// A demoted replica misses commits, resyncs from its primary via the
// syncFrom log-shipping path, rejoins through the table-flip, and then
// serves a routed read with the post-demotion state.
func TestEvictedReplicaRejoinsAndServesReads(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	dep := deployDurablePersons(t, net, 40, 2, 2, 0, 0)
	reg := obs.NewRegistry()
	co := dep.Coordinator()
	co.Metrics = NewMetrics(reg, 2)

	const pid = "person1"
	shard := ownerShard(t, dep, pid)
	replica := dep.Table.Replicas(shard)[1]

	co.evict(shard, replica, errors.New("injected fault"))
	if got := len(dep.Table.Replicas(shard)); got != 1 {
		t.Fatalf("replicas after evict = %d, want 1", got)
	}
	if d := co.Demoted(); len(d) != 1 || d[0].URI != replica {
		t.Fatalf("Demoted() = %+v, want one entry for %s", d, replica)
	}

	// the demoted replica misses this commit
	if _, err := co.Update(setCityRequest("Rejoinville", pid)); err != nil {
		t.Fatal(err)
	}

	if err := co.Rejoin(shard, replica); err != nil {
		t.Fatalf("Rejoin: %v", err)
	}
	if d := co.Demoted(); len(d) != 0 {
		t.Fatalf("Demoted() after rejoin = %+v, want empty", d)
	}
	reps := dep.Table.Replicas(shard)
	if len(reps) != 2 || reps[1] != replica {
		t.Fatalf("replicas after rejoin = %v, want [primary %s]", reps, replica)
	}
	if n := obsMust(t, reg, "xrpc_cluster_rejoins_total"); n != 1 {
		t.Fatalf("rejoins counter = %v, want 1", n)
	}
	if n := obsMust(t, reg, "xrpc_cluster_resyncs_total"); n < 1 {
		t.Fatalf("resyncs counter = %v, want >= 1", n)
	}

	// demote the old primary: the rejoined replica is now the shard's
	// only peer, so a routed read must be served from its resynced state
	if !dep.Table.Evict(shard, reps[0]) {
		t.Fatalf("could not evict primary %s", reps[0])
	}
	res, err := co.CallBulk(DefaultClusterURI, cityOfRequest(pid))
	if err != nil {
		t.Fatalf("routed read after rejoin: %v", err)
	}
	if got := xdm.SerializeSequence(res[0]); !strings.Contains(got, "Rejoinville") {
		t.Fatalf("rejoined replica serves %q, want the missed commit's city Rejoinville", got)
	}
}

// When the primary's log was truncated past the replica's version, the
// resync falls back to a full snapshot transfer and still converges.
func TestRejoinAfterLogTruncation(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	// tiny segment/snapshot thresholds: the primary snapshots and
	// truncates constantly, so the demoted replica's version falls below
	// the log's floor almost immediately
	dep := deployDurablePersons(t, net, 40, 1, 2, 512, 1024)
	co := dep.Coordinator()

	const pid = "person2"
	shard := ownerShard(t, dep, pid)
	replica := dep.Table.Replicas(shard)[1]
	co.evict(shard, replica, errors.New("injected fault"))

	for i := 0; i < 30; i++ {
		if _, err := co.Update(setCityRequest(fmt.Sprintf("City%d", i), pid)); err != nil {
			t.Fatal(err)
		}
	}
	primarySrv := dep.Servers[shard][0]
	if primarySrv.WAL().Base() == 0 {
		t.Fatal("primary never truncated its log; the fallback path is not exercised")
	}

	if err := co.Rejoin(shard, replica); err != nil {
		t.Fatalf("Rejoin after truncation: %v", err)
	}
	primDoc := storetest.Doc(t, dep.Stores[shard][0], "persons.xml")
	repDoc := storetest.Doc(t, dep.Stores[shard][1], "persons.xml")
	if xdm.SerializeNode(primDoc) != xdm.SerializeNode(repDoc) {
		t.Fatal("snapshot-transfer rejoin left the replica differing from its primary")
	}
	if got, want := dep.Stores[shard][1].Version(), dep.Stores[shard][0].Version(); got != want {
		t.Fatalf("replica version %d, primary %d", got, want)
	}

	// and the rejoined replica keeps receiving ordinary 2PC replication
	if _, err := co.Update(setCityRequest("AfterRejoin", pid)); err != nil {
		t.Fatal(err)
	}
	repDoc = storetest.Doc(t, dep.Stores[shard][1], "persons.xml")
	if !strings.Contains(xdm.SerializeNode(repDoc), "AfterRejoin") {
		t.Fatal("post-rejoin commit was not replicated to the rejoined replica")
	}
}

// A short unavailability burst at a replica (restart, load spike) is
// absorbed by the client retry policy instead of demoting the replica;
// without the policy the same burst demotes it. Guards the
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
	if d := co.Demoted(); len(d) != 0 {
		t.Fatalf("healthy replica demoted through a transient burst: %+v", d)
	}
	if got := len(dep.Table.Replicas(0)); got != 2 {
		t.Fatalf("replicas = %d, want 2", got)
	}
	repDoc := storetest.Doc(t, dep.Stores[0][1], "persons.xml")
	if !strings.Contains(xdm.SerializeNode(repDoc), "Burstville") {
		t.Fatal("replica missed the commit despite surviving the burst")
	}

	// contrast: the identical burst without a retry policy demotes the
	// replica — the regression this test exists to catch
	net, dep, co = newDeployment()
	net.FailNext(dep.Table.Replicas(0)[1], 2)
	if _, err := co.Update(setCityRequest("Burstville", "person1")); err != nil {
		t.Fatal(err)
	}
	if d := co.Demoted(); len(d) != 1 {
		t.Fatalf("without retry, demotions = %+v, want the burst to demote", d)
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
