package planner

import (
	"sync"
	"time"
)

const ewmaAlpha = 0.2

// ewma is an exponentially weighted moving average (α = 0.2).
type ewma struct {
	v   float64
	set bool
}

func (e *ewma) observe(x float64) {
	if !e.set {
		e.v, e.set = x, true
		return
	}
	e.v += ewmaAlpha * (x - e.v)
}

// Stats is the cost model's one observed input: each shard's per-call
// latency average. All methods are safe for concurrent use; unknown
// shard indexes grow the table.
type Stats struct {
	mu      sync.RWMutex
	latency []ewma // seconds per shard call, by shard index
}

// NewStats builds an empty statistics table.
func NewStats() *Stats { return &Stats{} }

// ObserveCall feeds one successful shard call into the shard's rolling
// latency average.
func (s *Stats) ObserveCall(shard int, d time.Duration) {
	if s == nil || shard < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.latency) <= shard {
		s.latency = append(s.latency, ewma{})
	}
	s.latency[shard].observe(d.Seconds())
}

// Latency returns the shard's observed per-call latency in seconds
// (defaultLatency when unobserved).
func (s *Stats) Latency(shard int) float64 {
	if s == nil {
		return defaultLatency
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if shard < 0 || shard >= len(s.latency) || !s.latency[shard].set {
		return defaultLatency
	}
	return s.latency[shard].v
}
