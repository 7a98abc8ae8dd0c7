package planner

// The cost model. Estimates are work costs in seconds — additive over
// shards, monotone in calls and bytes — not wall-clock predictions:
// the planner only ever compares two estimates for the same request,
// so the constants matter at the margins (does per-part encoding
// outweigh the pruned calls?) and the observed latency EWMA does the
// rest.
const (
	// defaultLatency is the per-shard-request overhead assumed before
	// any call has been observed (~LAN round trip).
	defaultLatency = 1e-3
	// encodeCost is the client-side cost of encoding one call.
	encodeCost = 2e-6
	// execCost is the shard-side cost of executing one call.
	execCost = 50e-6
	// byteCost is seconds per shipped byte at the paper's ~10 MB/s
	// effective SOAP throughput (the semi-join sides' wire term).
	byteCost = 1.0 / (10 << 20)
)

// ShardLoad is one contacted shard's share of a strategy: how many
// calls it would execute.
type ShardLoad struct {
	Shard int
	Calls int
}

// EstimateScatter costs a scatter strategy: one request to every load's
// shard, executing load.Calls calls there. encodeOnce marks the
// broadcast path's destination-independent body (encoded once however
// many shards are contacted); the pruned path encodes one body per
// contacted shard.
func (s *Stats) EstimateScatter(loads []ShardLoad, totalCalls int, encodeOnce bool) float64 {
	var cost float64
	if encodeOnce {
		cost += float64(totalCalls) * encodeCost
	}
	for _, l := range loads {
		cost += s.Latency(l.Shard) + float64(l.Calls)*execCost
		if !encodeOnce {
			cost += float64(l.Calls) * encodeCost
		}
	}
	return cost
}

// EstimateBroadcast costs the broadcast strategy over n shards, each
// executing every call.
func (s *Stats) EstimateBroadcast(n, totalCalls int) float64 {
	loads := make([]ShardLoad, n)
	for i := range loads {
		loads[i] = ShardLoad{Shard: i, Calls: totalCalls}
	}
	return s.EstimateScatter(loads, totalCalls, true)
}

// SemiJoinChoice is the costed ship-smallest-side decision for a
// distributed semi-join: ship the probe keys to the data (classic
// semi-join) or ship the data side whole and filter at the probe side.
type SemiJoinChoice struct {
	ShipKeys bool
	// EstKeys and EstData are the two sides' estimated wire+work costs
	// in seconds (for the slow-query log's estimated-vs-actual line).
	EstKeys, EstData float64
}

// ChooseSemiJoin costs both sides of a semi-join from measured sizes:
// keys probe keys of avg keyBytes each against dataItems rows of avg
// itemBytes each. Shipping keys executes one probe per key at the data
// side and returns only matches; shipping data returns every row once.
// Ties ship keys (the paper's default: probes are usually smaller).
func (s *Stats) ChooseSemiJoin(keys int, keyBytes float64, dataItems int64, itemBytes float64) SemiJoinChoice {
	estKeys := float64(keys) * (keyBytes*byteCost + execCost + encodeCost)
	estData := float64(dataItems) * (itemBytes*byteCost + execCost/8)
	return SemiJoinChoice{ShipKeys: estKeys <= estData, EstKeys: estKeys, EstData: estData}
}
