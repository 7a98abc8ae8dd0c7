// Package txn implements the originator side of distributed atomic
// commit for updating XRPC queries (§2.3). The paper deliberately does
// not add 2PC to the XRPC network protocol itself; instead it relies on
// WS-AtomicTransaction / WS-Coordination. This package is a minimal
// stand-in for those industry stacks with the same verbs: the peer that
// started the query registers every participating peer (learned from the
// participating-peers piggyback in XRPC responses) and drives
// Prepare/Commit — aborting everywhere if any participant fails to
// prepare.
package txn

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/obs"
	"xrpc/internal/soap"
	"xrpc/internal/xdm"
)

// WSATModule is the reserved module URI for WS-AT verbs (matching
// server.WSATModule).
const WSATModule = "urn:wsat"

// NewQueryID mints a fresh queryID for a query starting now at host,
// with the given isolation timeout in seconds.
func NewQueryID(host string, timeout int) *soap.QueryID {
	var buf [8]byte
	rand.Read(buf[:])
	return &soap.QueryID{
		ID:        "q-" + hex.EncodeToString(buf[:]),
		Host:      host,
		Timestamp: time.Now().UTC(),
		Timeout:   timeout,
	}
}

// Metrics counts 2PC verbs across transactions. Cluster coordinators
// create one txn.Coordinator per updating query, so the counters live
// here and are shared by reference; a nil *Metrics disables counting.
type Metrics struct {
	Prepares        *obs.Counter
	PrepareFailures *obs.Counter
	Commits         *obs.Counter
	CommitFailures  *obs.Counter
	Aborts          *obs.Counter
}

// NewMetrics registers the 2PC counter family.
func NewMetrics(reg *obs.Registry, labels ...obs.Label) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Prepares: reg.NewCounter("xrpc_txn_prepares_total",
			"2PC Prepare verbs sent to participants.", labels...),
		PrepareFailures: reg.NewCounter("xrpc_txn_prepare_failures_total",
			"Failed Prepare verbs (each aborts the transaction).", labels...),
		Commits: reg.NewCounter("xrpc_txn_commits_total",
			"2PC Commit verbs sent to prepared participants.", labels...),
		CommitFailures: reg.NewCounter("xrpc_txn_commit_failures_total",
			"Failed Commit verbs after successful prepare (heuristic outcomes).", labels...),
		Aborts: reg.NewCounter("xrpc_txn_aborts_total",
			"2PC Abort verbs sent to participants.", labels...),
	}
}

// Coordinator drives two-phase commit across the participants of one
// query. The embedded client must carry the query's QueryID.
type Coordinator struct {
	Client *client.Client
	// Log receives protocol events (optional, for tests/experiments).
	// Called serialized, but from multiple goroutines: each phase fans
	// its verbs out to the participants concurrently.
	Log func(event, peer string)
	// Metrics, when set, counts the protocol verbs this coordinator
	// issues (shared across per-query coordinators by the cluster).
	Metrics *Metrics

	logMu sync.Mutex
}

func (co *Coordinator) logf(event, peer string) {
	if co.Log != nil {
		co.logMu.Lock()
		co.Log(event, peer)
		co.logMu.Unlock()
	}
}

// Verb sends one WS-AT verb (Prepare, Commit, Abort, AdoptPUL) with its
// arguments to peer under the query's queryID and returns its result.
// It is the one place the WS-AT request format is built; it counts and
// logs nothing, which the phase methods below do for the participants.
func (co *Coordinator) Verb(peer, method string, args ...xdm.Sequence) (xdm.Sequence, error) {
	res, err := co.Client.CallBulk(peer, &client.BulkRequest{
		ModuleURI: WSATModule,
		Func:      method,
		Arity:     len(args),
		Calls:     [][]xdm.Sequence{args},
	})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// PrepareAll runs phase 1 of 2PC: Prepare at every peer concurrently
// (the participants are independent, and durable peers fsync their logs
// inside the verb — overlapping the flushes keeps a multi-shard commit
// at one flush latency instead of one per participant), returning each
// peer's prepare result in peer order. The XRPC server piggybacks the
// prepared (serialized) pending update list on the ack — result[i][1],
// when present — which is what replica PUL replication forwards. If any
// Prepare fails, every peer is aborted and the error returned (the
// lowest failed peer index, deterministically); no peer commits.
func (co *Coordinator) PrepareAll(peers []string) ([]xdm.Sequence, error) {
	out := make([]xdm.Sequence, len(peers))
	failed, err := client.Fanout(len(peers), func(i int) (err error) {
		co.logf("prepare", peers[i])
		if co.Metrics != nil {
			co.Metrics.Prepares.Inc()
		}
		if out[i], err = co.Verb(peers[i], "Prepare"); err != nil {
			co.logf("prepare-failed", peers[i])
			if co.Metrics != nil {
				co.Metrics.PrepareFailures.Inc()
			}
		}
		return err
	})
	if err != nil {
		co.AbortAll(peers)
		return nil, fmt.Errorf("txn: prepare failed at %s: %w", peers[failed], err)
	}
	return out, nil
}

// CommitPrepared runs phase 2 over already-prepared peers, concurrently
// (so durable peers' commit-record fsyncs overlap), returning each
// peer's commit result in peer order (the XRPC server reports its
// post-commit store version as result[i][1] — the replication fence). A
// commit failure after successful prepare is a heuristic outcome: it is
// reported (lowest failed peer index, deterministically), but the
// remaining peers still commit; the failed peer's result is nil.
func (co *Coordinator) CommitPrepared(peers []string) ([]xdm.Sequence, error) {
	out := make([]xdm.Sequence, len(peers))
	failed, err := client.Fanout(len(peers), func(i int) (err error) {
		co.logf("commit", peers[i])
		if co.Metrics != nil {
			co.Metrics.Commits.Inc()
		}
		if out[i], err = co.Verb(peers[i], "Commit"); err != nil && co.Metrics != nil {
			co.Metrics.CommitFailures.Inc()
		}
		return err
	})
	if err != nil {
		return out, fmt.Errorf("txn: commit failed at %s: %w", peers[failed], err)
	}
	return out, nil
}

// CommitAll runs the 2PC protocol over all peers: Prepare each (phase
// 1), then Commit each (phase 2). If any Prepare fails, every peer is
// aborted and the error is returned — no peer commits.
func (co *Coordinator) CommitAll(peers []string) error {
	if _, err := co.PrepareAll(peers); err != nil {
		return err
	}
	_, err := co.CommitPrepared(peers)
	return err
}

// AbortAll tells every peer to discard the query's deferred state.
// Errors are ignored: peers that cannot be reached will expire the
// queryID via its timeout (§2.2: "a timeout mechanism is inevitable").
func (co *Coordinator) AbortAll(peers []string) {
	for _, p := range peers {
		co.logf("abort", p)
		if co.Metrics != nil {
			co.Metrics.Aborts.Inc()
		}
		_, _ = co.Verb(p, "Abort")
	}
}
