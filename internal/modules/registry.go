// Package modules implements an in-memory XQuery module registry. In the
// paper, modules live at HTTP locations (the at-hint, e.g.
// "http://x.example.org/film.xq") and every peer fetches and caches them.
// The registry plays that role: it stores module sources indexed both by
// target namespace URI and by location hint.
//
// Every Register parses the source into a new *xq.Module, so the module
// ResolveModule returns doubles as the version of its text: a cache of
// compiled text (interp.PlanCache) remembers the modules it was compiled
// against and is stale exactly when the registry holds a different one.
// The registry therefore notifies nobody; Generation serves the caches
// that key on "any module changed" (response cache, planner).
package modules

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xrpc/internal/xq"
)

// Registry resolves module imports to parsed library modules.
type Registry struct {
	mu     sync.RWMutex
	byURI  map[string]*entry
	byHint map[string]*entry
	gen    atomic.Int64
}

type entry struct {
	source string
	parsed *xq.Module
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byURI: map[string]*entry{}, byHint: map[string]*entry{}}
}

// Register parses a library module source and indexes it under its
// declared namespace URI and the given location hints.
func (r *Registry) Register(source string, hints ...string) error {
	m, err := xq.Parse(source)
	if err != nil {
		return fmt.Errorf("modules: %w", err)
	}
	if !m.IsLibrary {
		return fmt.Errorf("modules: source is not a library module")
	}
	e := &entry{source: source, parsed: m}
	r.mu.Lock()
	r.byURI[m.ModuleURI] = e
	for _, h := range hints {
		r.byHint[h] = e
	}
	r.mu.Unlock()
	// every (re-)registration can change semantics without any store
	// write, so it must advance the generation that fences the response
	// caches and the planner's derivations
	r.gen.Add(1)
	return nil
}

// Generation returns a counter that advances on every Register call.
// Caches keyed on module content include it in their fence: a store
// version alone cannot see module re-registration.
func (r *Registry) Generation() int64 { return r.gen.Load() }

// ResolveModule implements interp.ModuleResolver: lookup by namespace
// URI first, then by location hint.
func (r *Registry) ResolveModule(uri string, atHints []string) (*xq.Module, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e, ok := r.byURI[uri]; ok {
		return e.parsed, nil
	}
	for _, h := range atHints {
		if e, ok := r.byHint[h]; ok {
			return e.parsed, nil
		}
	}
	return nil, fmt.Errorf("modules: could not load module %q", uri)
}

// Source returns the registered source text for a module URI.
func (r *Registry) Source(uri string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.byURI[uri]
	if !ok {
		return "", false
	}
	return e.source, true
}

// URIs lists all registered namespace URIs.
func (r *Registry) URIs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.byURI))
	for u := range r.byURI {
		out = append(out, u)
	}
	return out
}
