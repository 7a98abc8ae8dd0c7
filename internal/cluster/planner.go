package cluster

import (
	"fmt"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/planner"
)

// planner.go is the coordinator half of the self-driving planner: it
// resolves each bulk request to a strategy decision before execution.
// Hand-written RouteSpecs stay authoritative — registering one is a
// semantic promise (see RouteSpec), and pruning under it can be
// load-bearing (a function may legitimately return non-empty on a
// non-owning shard, in which case only the pruned execution is the
// intended answer), so registered specs are never cost-downgraded to
// broadcast. Compiler-derived specs carry a proof that the function's
// result is empty whenever the key misses the shard, which makes
// pruned and broadcast byte-identical — and exactly that equivalence
// is what licenses the cost model to pick between them.

// planDecision is one request's resolved strategy.
type planDecision struct {
	// strategy is what executes: "broadcast", "pruned" (per-shard call
	// subsets), or "routed" (every call to at most one shard — the
	// degenerate pruned case the strategy counter reports separately).
	strategy string
	// parts is what executes, in ascending shard order: the per-shard
	// partition, or for a broadcast every shard with every call.
	parts []*shardPart
	// est and estAlt are the cost model's estimates (seconds) for the
	// chosen strategy and the rejected alternative, for the slow-query
	// log's estimated-vs-actual line. Zero when no comparison ran.
	est, estAlt float64
}

// broadcastPlan is the plan whose parts are every shard, all calls:
// each part carries br itself, so all of them share its one encoding.
func (co *Coordinator) broadcastPlan(br *client.BulkRequest) *planDecision {
	orig := make([]int, len(br.Calls))
	for i := range orig {
		orig[i] = i
	}
	parts := make([]*shardPart, co.Table.NumShards())
	for s := range parts {
		parts[s] = &shardPart{shard: s, br: br, orig: orig}
	}
	return &planDecision{strategy: "broadcast", parts: parts}
}

// resolveSpec is the one registered-then-derived route lookup, for reads
// and updates alike. A hand-written spec wins. One that names the
// function but cannot apply to this request is warned once and counted,
// and the lookup falls through to the compiler-derived spec — just as
// sound, since the derivation proves the body only touches rows carrying
// the key; a derivation that cannot apply to the live table is warned
// the same way. source says where the answer, or the refusal, came from
// ("" when nothing names the function: the documented broadcast
// fallback); reason is why a nil spec was refused.
func (co *Coordinator) resolveSpec(br *client.BulkRequest) (spec *RouteSpec, source, reason string) {
	spec, reason = co.registeredSpec(br)
	if spec != nil {
		return spec, "registered", ""
	}
	if reason != "" {
		co.warnInapplicable(br, reason)
		source = "registered"
	}
	d, why, analysed := co.derivedSpec(br)
	if !analysed {
		return nil, source, reason
	}
	if d == nil {
		co.warnInapplicable(br, why)
	}
	return d, "derived", why
}

// plan resolves the strategy for a read-only bulk request. It never
// produces a wrong route: registered specs are trusted as declared,
// derived specs are validated against the live table (container, key
// attribute, operator soundness) and rejected to broadcast — with a
// once-per-function warning — on any mismatch.
func (co *Coordinator) plan(br *client.BulkRequest) *planDecision {
	spec, source, _ := co.resolveSpec(br)
	if spec != nil && source == "registered" && !co.Table.Prunable(spec.Doc, spec.Path) {
		co.warnInapplicable(br, fmt.Sprintf(
			"container %s %s has no keyed range metadata", spec.Doc, spec.Path))
		spec = nil
	}
	if spec == nil {
		return co.broadcastPlan(br)
	}
	return co.decide(spec, br, source == "derived")
}

// derivedSpec asks the planner for a compiler-derived route key and
// validates it against the live routing table. analysed is false when
// there is no planner or no derivation (plain broadcast, no warning);
// a derivation that cannot apply returns (nil, reason, true).
func (co *Coordinator) derivedSpec(br *client.BulkRequest) (spec *RouteSpec, reason string, analysed bool) {
	p := co.Planner
	if p == nil {
		return nil, "", false
	}
	k, _, ok := p.KeyFor(br.ModuleURI, br.AtHint, br.Func)
	if !ok {
		return nil, "", false
	}
	if k.Param >= br.Arity {
		return nil, fmt.Sprintf("derived key parameter $%d outside request arity %d",
			k.Param, br.Arity), true
	}
	r, ok := co.Table.FindContainer(k.Doc, k.PathSuffix, k.Rooted)
	if !ok {
		return nil, fmt.Sprintf(
			"derived container %s %s does not resolve to the provably unique home of its elements (no, ambiguous, or unkeyed container match, or the element name occurs outside it)",
			k.Doc, k.PathSuffix), true
	}
	if r.KeyAttr != k.KeyAttr {
		return nil, fmt.Sprintf("derived key attribute @%s is not the container key @%s",
			k.KeyAttr, r.KeyAttr), true
	}
	if k.Op != "=" && !r.Lex {
		// range predicates compare in codepoint order; the shard bounds
		// are only codepoint-meaningful when the partitioner saw the
		// container's keys codepoint-sorted end to end (KeyRange.Lex)
		return nil, fmt.Sprintf(
			"range predicate on @%s needs codepoint-ordered keys (container %s %s is natural-ordered only)",
			k.KeyAttr, r.Doc, r.Path), true
	}
	return &RouteSpec{
		ModuleURI: br.ModuleURI, Func: br.Func,
		KeyArg: k.Param, Doc: r.Doc, Path: r.Path, Op: k.Op,
	}, "", true
}

// decide partitions the request under the spec and labels the result.
// For derived specs (costed) the cost model may still pick broadcast —
// sound because the derivation proves the two byte-identical; for
// registered specs the pruned execution always stands.
func (co *Coordinator) decide(spec *RouteSpec, br *client.BulkRequest, costed bool) *planDecision {
	parts := co.partition(br, spec)
	d := &planDecision{parts: parts}
	// routed iff every call reached at most one shard — counted per
	// call, not in aggregate (one call on two shards plus one call with
	// zero candidates sums to len(Calls) but is still pruned)
	perCall := make([]int, len(br.Calls))
	for _, p := range parts {
		for _, g := range p.orig {
			perCall[g]++
		}
	}
	d.strategy = "routed"
	for _, c := range perCall {
		if c > 1 {
			d.strategy = "pruned"
			break
		}
	}
	var st *planner.Stats
	if co.Planner != nil {
		st = co.Planner.Stats
	}
	loads := make([]planner.ShardLoad, len(parts))
	for i, p := range parts {
		loads[i] = planner.ShardLoad{Shard: p.shard, Calls: len(p.br.Calls)}
	}
	d.est = st.EstimateScatter(loads, len(br.Calls), false)
	d.estAlt = st.EstimateBroadcast(co.Table.NumShards(), len(br.Calls))
	if costed && d.est > d.estAlt {
		b := co.broadcastPlan(br)
		b.est, b.estAlt = d.estAlt, d.est
		return b
	}
	return d
}

// warnInapplicable routes a spec-cannot-apply event to the planner's
// once-per-(module, function, reason) warning and counter.
func (co *Coordinator) warnInapplicable(br *client.BulkRequest, reason string) {
	co.Planner.WarnInapplicable(br.ModuleURI, br.Func, reason)
}

// notePlannerCall feeds one successful shard call into the rolling
// latency average the cost model reads.
func (co *Coordinator) notePlannerCall(shard int, d time.Duration) {
	if p := co.Planner; p != nil {
		p.Stats.ObserveCall(shard, d)
	}
}
