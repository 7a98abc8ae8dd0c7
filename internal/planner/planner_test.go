package planner

import (
	"testing"
	"time"
)

func TestStatsLatencyEWMA(t *testing.T) {
	s := NewStats()
	s.ObserveCall(1, 2*time.Millisecond)
	if got := s.Latency(1); got != 2e-3 {
		t.Fatalf("latency after one call = %v, want 2ms", got)
	}
	// an unobserved shard costs the default latency
	if got := s.Latency(7); got != defaultLatency {
		t.Fatalf("unobserved latency = %v, want default %v", got, defaultLatency)
	}
}

func TestCostModelOrdersStrategies(t *testing.T) {
	s := NewStats()
	// a routed single-shard probe must beat broadcasting it to 8 shards
	routed := s.EstimateScatter([]ShardLoad{{Shard: 0, Calls: 1}}, 1, false)
	broadcast := s.EstimateBroadcast(8, 1)
	if routed >= broadcast {
		t.Fatalf("routed %v >= broadcast %v", routed, broadcast)
	}
	// broadcast cost is monotone in shard count and call count
	if s.EstimateBroadcast(2, 4) >= s.EstimateBroadcast(4, 4) {
		t.Fatal("broadcast not monotone in shards")
	}
	if s.EstimateBroadcast(2, 4) >= s.EstimateBroadcast(2, 400) {
		t.Fatal("broadcast not monotone in calls")
	}
	// a slow observed shard raises its strategies' estimates
	s.ObserveCall(0, 80*time.Millisecond)
	slow := s.EstimateScatter([]ShardLoad{{Shard: 0, Calls: 1}}, 1, false)
	fast := s.EstimateScatter([]ShardLoad{{Shard: 1, Calls: 1}}, 1, false)
	if slow <= fast {
		t.Fatalf("observed-slow shard %v <= unobserved %v", slow, fast)
	}
}

func TestChooseSemiJoinShipsSmallerSide(t *testing.T) {
	s := NewStats()
	// few small keys against many fat rows: ship the keys
	if c := s.ChooseSemiJoin(10, 8, 10_000, 2048); !c.ShipKeys {
		t.Fatalf("keys side smaller but choice = ship data (%+v)", c)
	}
	// many keys against three tiny rows: ship the data
	if c := s.ChooseSemiJoin(100_000, 16, 3, 64); c.ShipKeys {
		t.Fatalf("data side smaller but choice = ship keys (%+v)", c)
	}
	// the estimates surface for the slow-query log
	if c := s.ChooseSemiJoin(1, 1, 1, 1); c.EstKeys <= 0 || c.EstData <= 0 {
		t.Fatalf("estimates not populated: %+v", c)
	}
}
