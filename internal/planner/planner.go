// Package planner is the self-driving half of the cluster's strategy
// choice: it derives routing predicates from compiled library modules
// (pathfinder.DeriveRouteKeys), keeps each shard's observed call
// latency, and costs the strategy space — routed, pruned, broadcast,
// ship-smallest-side semi-join — so the coordinator can execute the
// cheapest plan instead of the declared one. Underivable functions
// always fall back to broadcast: the planner may miss an optimisation,
// never produce a wrong route.
package planner

import (
	"log/slog"
	"sync"

	"xrpc/internal/modules"
	"xrpc/internal/pathfinder"
)

// Planner caches per-module route-key derivations against a module
// registry, invalidated whole-sale when the registry generation moves
// (a re-registration may change any function body).
type Planner struct {
	// Registry resolves module URIs to parsed modules; its Generation
	// fences the derivation cache.
	Registry *modules.Registry
	// Stats, when non-nil, refines the cost model with each shard's
	// observed call latency (see Stats).
	Stats *Stats
	// Metrics, when non-nil, records derivation outcomes and
	// inapplicable specs. Nil disables all recording.
	Metrics *Metrics
	// Logger receives the once-per-(module,function) warnings about
	// specs that cannot apply. Nil discards them.
	Logger *slog.Logger

	mu      sync.Mutex
	gen     int64
	derived map[string]*modDerivation
	warned  map[string]bool
}

// modDerivation is one module's cached analysis, indexed by function
// local name.
type modDerivation struct {
	keys   map[string]pathfinder.RouteKey
	misses map[string]string
}

// New builds a planner over a registry with fresh stats.
func New(reg *modules.Registry) *Planner {
	return &Planner{Registry: reg, Stats: NewStats()}
}

// KeyFor returns the derived route key for function fn of the module,
// deriving and caching the whole module on first use. The second
// return carries the derivation-miss reason when ok is false; a module
// that cannot be resolved at all reports every function as a miss.
func (p *Planner) KeyFor(moduleURI, atHint, fn string) (pathfinder.RouteKey, string, bool) {
	if p == nil || p.Registry == nil {
		return pathfinder.RouteKey{}, "no planner", false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if gen := p.Registry.Generation(); gen != p.gen || p.derived == nil {
		// a module re-registration may have changed any body: drop every
		// cached derivation and re-analyse on demand under the new fence
		p.derived = make(map[string]*modDerivation)
		p.gen = gen
	}
	d, ok := p.derived[moduleURI]
	if !ok {
		d = p.deriveLocked(moduleURI, atHint)
		p.derived[moduleURI] = d
	}
	if k, ok := d.keys[fn]; ok {
		return k, "", true
	}
	if reason, ok := d.misses[fn]; ok {
		return pathfinder.RouteKey{}, reason, false
	}
	return pathfinder.RouteKey{}, "function not declared in module", false
}

func (p *Planner) deriveLocked(moduleURI, atHint string) *modDerivation {
	d := &modDerivation{keys: map[string]pathfinder.RouteKey{}, misses: map[string]string{}}
	var hints []string
	if atHint != "" {
		hints = []string{atHint}
	}
	m, err := p.Registry.ResolveModule(moduleURI, hints)
	if err != nil {
		d.misses[""] = "module unresolvable: " + err.Error()
		return d
	}
	keys, misses := pathfinder.DeriveRouteKeys(m)
	for _, k := range keys {
		d.keys[k.Func] = k
		p.Metrics.countDerivation("derived")
	}
	for _, ms := range misses {
		d.misses[ms.Func] = ms.Reason
		p.Metrics.countDerivation("fallback")
	}
	return d
}

// WarnInapplicable reports a route spec that exists but cannot apply to
// the live request or table (arity/KeyArg mismatch, unkeyed ranges, no
// matching container): logged once per (module, function, reason) so
// misrouting regressions are visible, counted on every occurrence so
// their rate is measurable.
func (p *Planner) WarnInapplicable(moduleURI, fn, reason string) {
	if p == nil {
		return
	}
	p.Metrics.countInapplicable()
	p.mu.Lock()
	key := moduleURI + "#" + fn + "\x00" + reason
	seen := p.warned[key]
	if !seen {
		if p.warned == nil {
			p.warned = make(map[string]bool)
		}
		p.warned[key] = true
	}
	p.mu.Unlock()
	if !seen && p.Logger != nil {
		p.Logger.Warn("route spec inapplicable; falling back to broadcast",
			"module", moduleURI, "func", fn, "reason", reason)
	}
}
