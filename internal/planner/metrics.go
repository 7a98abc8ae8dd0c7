package planner

import "xrpc/internal/obs"

// Metrics records the planner's derivation outcomes onto an
// obs.Registry. The strategy each read executes is counted once, by the
// coordinator that executes it (cluster.Metrics.Scatters).
type Metrics struct {
	// Derivations counts per-function derivation outcomes
	// (derived/fallback) as modules are analysed.
	Derivations *obs.CounterVec
	// Inapplicable counts requests whose route spec existed but could
	// not apply (arity mismatch, unkeyed ranges, no matching container).
	Inapplicable *obs.Counter
}

// NewMetrics registers the planner metric families.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Derivations: reg.NewCounterVec("xrpc_planner_derivations_total",
			"Route-spec derivation outcomes per analysed function.", "outcome"),
		Inapplicable: reg.NewCounter("xrpc_planner_inapplicable_specs_total",
			"Requests whose route spec existed but could not apply (fell back to broadcast)."),
	}
}

func (m *Metrics) countDerivation(outcome string) {
	if m != nil {
		m.Derivations.With(outcome).Inc()
	}
}

func (m *Metrics) countInapplicable() {
	if m != nil {
		m.Inapplicable.Inc()
	}
}
