package cluster

import (
	"fmt"
	"sync"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/server"
	"xrpc/internal/xdm"
)

// Eviction used to be the end of a replica's life; with durable shards
// it is a demotion. The coordinator remembers every replica it removed
// from the table, and Rejoin drives the demote→resync→rejoin cycle:
// tell the demoted peer to catch up from its shard's current primary
// (the resyncFrom system verb — log shipping when the primary's WAL
// still covers the replica's version, full snapshot transfer
// otherwise), verify the fence versions line up, and re-add it through
// the routing table's ordinary table-flip path.

// DemotedReplica records one eviction awaiting rejoin.
type DemotedReplica struct {
	Shard int
	URI   string
	// Reason is the eviction cause (diagnostics only).
	Reason string
	// When is the eviction time.
	When time.Time
}

// demotions tracks evicted replicas; embedded in Coordinator state via
// a dedicated mutex (evictions happen on the update hot path).
type demotions struct {
	mu   sync.Mutex
	list []DemotedReplica
}

func (d *demotions) add(rep DemotedReplica) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range d.list {
		if r.Shard == rep.Shard && r.URI == rep.URI {
			return // already queued for rejoin
		}
	}
	d.list = append(d.list, rep)
}

func (d *demotions) remove(shard int, uri string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, r := range d.list {
		if r.Shard == shard && r.URI == uri {
			d.list = append(d.list[:i:i], d.list[i+1:]...)
			return
		}
	}
}

func (d *demotions) snapshot() []DemotedReplica {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]DemotedReplica(nil), d.list...)
}

// Demoted lists the replicas evicted from the table and not yet
// rejoined, oldest first.
func (co *Coordinator) Demoted() []DemotedReplica {
	return co.demoted.snapshot()
}

// Rejoin resyncs one demoted replica from its shard's current primary
// and re-adds it to the routing table once its version has caught up to
// the primary's. The replica serves no routed traffic until the final
// Table.Add — the same table-flip path a fresh deployment uses.
//
// Known gap: commits that land between the final resync round and the
// Table.Add are not replicated to the rejoining peer (it is not yet in
// the table). The post-add fence probe below narrows the window but a
// racing update can still slip through; closing it needs primary-side
// membership (see ROADMAP).
func (co *Coordinator) Rejoin(shard int, uri string) error {
	primary := co.Table.Primary(shard)
	if primary == "" {
		return xdm.Errorf("XRPC0007", "cluster: shard %d has no primary to resync from", shard)
	}
	if primary == uri {
		return xdm.Errorf("XRPC0007", "cluster: %s is shard %d's primary, not a demoted replica", uri, shard)
	}
	const maxAttempts = 3
	var repV int64
	caught := false
	for attempt := 0; attempt < maxAttempts && !caught; attempt++ {
		v, err := co.resync(uri, primary)
		if err != nil {
			return fmt.Errorf("cluster: resync %s from %s: %w", uri, primary, err)
		}
		repV = v
		primV, err := co.peerVersion(primary)
		if err != nil {
			return fmt.Errorf("cluster: probing primary %s: %w", primary, err)
		}
		caught = repV >= primV
	}
	if !caught {
		return xdm.Errorf("XRPC0007",
			"cluster: %s cannot catch shard %d's primary (replica at v%d)", uri, shard, repV)
	}
	if err := co.Table.Add(shard, uri); err != nil {
		return err
	}
	co.demoted.remove(shard, uri)
	if m := co.Metrics; m != nil {
		m.Rejoins.Inc()
	}
	return nil
}

// resync tells the demoted peer to catch up from primary (the
// resyncFrom system verb runs on the follower) and returns the
// follower's post-resync version.
func (co *Coordinator) resync(uri, primary string) (int64, error) {
	if m := co.Metrics; m != nil {
		m.Resyncs.Inc()
	}
	res, err := co.Client.CallBulk(uri, &client.BulkRequest{
		ModuleURI: client.SystemModule,
		Func:      "resyncFrom",
		Arity:     1,
		Calls:     [][]xdm.Sequence{{{xdm.String(primary)}}},
	})
	if err != nil {
		return 0, err
	}
	if len(res) != 1 || len(res[0]) < 2 {
		return 0, xdm.Errorf("XRPC0007", "resyncFrom: malformed reply (%d items)", len(res))
	}
	v, ok := res[0][1].(xdm.Integer)
	if !ok {
		return 0, xdm.Errorf("XRPC0007", "resyncFrom: no version in reply")
	}
	return int64(v), nil
}

// peerVersion probes one peer's commit-fence version via shardInfo.
func (co *Coordinator) peerVersion(uri string) (int64, error) {
	res, err := co.Client.CallBulk(uri, &client.BulkRequest{
		ModuleURI: client.SystemModule,
		Func:      "shardInfo",
		Arity:     0,
		Calls:     [][]xdm.Sequence{{}},
	})
	if err != nil {
		return 0, err
	}
	if len(res) != 1 {
		return 0, xdm.Errorf("XRPC0007", "shardInfo: malformed reply")
	}
	for _, it := range res[0] {
		if v, ok := server.ParseVersionItem(it.StringValue()); ok {
			return v, nil
		}
	}
	return 0, xdm.Errorf("XRPC0007", "shardInfo reply from %s carries no version fence", uri)
}
