package pathfinder

import (
	"strings"

	"xrpc/internal/algebra"
	"xrpc/internal/client"
	"xrpc/internal/interp"
	"xrpc/internal/xdm"
	"xrpc/internal/xq"
)

// argKey builds a value-identity key for one call argument. Because XRPC
// parameters travel by value (§2.2), two arguments that serialize
// identically produce identical remote calls and may share one δ'd call.
func argKey(seq xdm.Sequence) string {
	var b strings.Builder
	for _, it := range seq {
		if n, ok := it.(*xdm.Node); ok {
			b.WriteString("n:")
			xdm.WriteNode(&b, n)
		} else {
			b.WriteString(it.TypeName())
			b.WriteByte(':')
			b.WriteString(it.StringValue())
		}
		b.WriteByte('\x01')
	}
	return b.String()
}

// compileExecuteAt implements the relational translation rule of
// Figure 2 of the paper:
//
//	execute at { dst } { f(param_1, …, param_n) }  ⇒  result
//
//	map_p  = π_iter,iterp ( ρ_iterp ( σ_item=p (dst) ) )
//	req_ip = π_iterp,pos,item ( ρ_pos ( ⋈_iter (map_p, param_i) ) )
//	msg_p  = f(req_1p, …, req_np) @ p            -- one Bulk RPC per peer
//	res_p  = π_iter,pos,item ( ⋈_iterp (msg_p, map_p) )
//	result = ∪_{p ∈ δ(dst.item)} res_p
//
// All loop iterations that target the same peer travel in a single Bulk
// RPC request; distinct peers are dispatched in parallel (§3.2
// "Parallel & Out-Of-Order").
func (env *staticEnv) compileExecuteAt(n *xq.ExecuteAt) (Plan, error) {
	destPlan, err := env.compile(n.Dest)
	if err != nil {
		return nil, err
	}
	f, mod, atHint, ok := env.static.LookupFunc(env.module, n.Call.Name, len(n.Call.Args))
	if !ok {
		return nil, unsupported("execute at of undeclared function " + n.Call.Name)
	}
	paramPlans := make([]Plan, len(n.Call.Args))
	for i, a := range n.Call.Args {
		p, err := env.compile(a)
		if err != nil {
			return nil, err
		}
		paramPlans[i] = p
	}
	decl := f
	moduleURI, projection := mod.ModuleURI, env.proj[n]
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		if ec.Bulk == nil {
			return nil, xdm.NewError("XRPC0001", "no RPC transport configured for execute at")
		}
		dst, err := destPlan(ec, sc)
		if err != nil {
			return nil, err
		}
		params := make([]*algebra.Table, len(paramPlans))
		for i, pp := range paramPlans {
			t, err := pp(ec, sc)
			if err != nil {
				return nil, err
			}
			params[i] = t
		}
		return execBulkRPC(ec, sc, dst, params, decl, moduleURI, atHint, projection)
	}, nil
}

// destPart is one destination's Bulk RPC, with the global index of each
// of its calls for re-uniting the results (the map_p tables of Figure 1).
type destPart struct {
	dest string
	br   *client.BulkRequest
	orig []int // orig[j] = global call index of the part's call j
}

// execBulkRPC is the runtime of the Figure 2 rule.
func execBulkRPC(ec *ExecCtx, sc *scope, dst *algebra.Table, params []*algebra.Table,
	decl *xq.FuncDecl, moduleURI, atHint, projection string) (*algebra.Table, error) {

	dstByIter, err := singletonByIter(dst, "execute at destination")
	if err != nil {
		return nil, err
	}
	paramGroups := make([]map[int64]xdm.Sequence, len(params))
	for i, p := range params {
		paramGroups[i] = groupByIter(p)
	}

	// iteration order and the unique peer list δ(dst.item), preserving
	// first-appearance order
	iters := itersOf(sc.loop)
	var peers []string
	peerSeen := map[string]bool{}
	iterPeer := map[int64]string{}
	var liveIters []int64
	for _, it := range iters {
		d, ok := dstByIter[it]
		if !ok {
			continue // empty destination: no call in this iteration
		}
		peer := d.StringValue()
		iterPeer[it] = peer
		liveIters = append(liveIters, it)
		if !peerSeen[peer] {
			peerSeen[peer] = true
			peers = append(peers, peer)
		}
	}

	var trace *Trace
	if ec.Trace != nil {
		trace = ec.Trace
		trace.Dst = dst
		trace.PerPeer = nil
	}

	// build one Bulk RPC per peer: map table + per-parameter req tables.
	// Everything order-dependent — the peer order, each part's calls and
	// the traced tables — is fixed here, before any dispatch.
	parts := make([]destPart, 0, len(peers))
	origOf := map[int64]int{}
	for i, it := range liveIters {
		origOf[it] = i
	}
	// duplicate elimination: many iterations may request the very same
	// call (a loop-invariant execute-at, or repeated semi-join probe
	// keys). Read-only duplicate calls are removed with δ and the single
	// result fanned back out to every requesting iteration; updating
	// calls run once per iteration (each application has its own side
	// effects). One-at-a-time mode also skips δ — it models the naive
	// mechanism of Table 2 faithfully.
	dedupe := !decl.Updating && !ec.OneAtATime && !ec.NoDedup
	var seqBase int64
	if decl.Updating {
		// one disjoint sequence-number block per execute-at evaluation
		seqBase = ec.nextSeqSite() << 24
	}
	totalCalls := 0
	callOfIter := make([]int, len(liveIters)) // liveIter index -> global call index
	for _, peer := range peers {
		var mapTbl *algebra.Table
		var reqTbls []*algebra.Table
		if trace != nil {
			mapTbl = algebra.NewTable("iter", "iterp")
			reqTbls = make([]*algebra.Table, len(params))
			for i := range reqTbls {
				reqTbls[i] = algebra.NewTable("iterp", algebra.ColPos, algebra.ColItem)
			}
		}
		br := &client.BulkRequest{
			ModuleURI:  moduleURI,
			AtHint:     atHint,
			Func:       decl.LocalName(),
			Arity:      decl.Arity(),
			Updating:   decl.Updating,
			Projection: projection,
		}
		var origIdx []int // call index within part -> global call index
		seenCall := map[string]int{}
		seenIterp := map[string]int64{}
		iterp := int64(0)
		for li, it := range liveIters {
			if iterPeer[it] != peer {
				continue
			}
			args := make([]xdm.Sequence, len(params))
			var keyB strings.Builder
			for i := range params {
				// the caller performs parameter up-casting (§2.2)
				conv, err := interp.ConvertParam(paramGroups[i][it], decl.Params[i].Type)
				if err != nil {
					return nil, err
				}
				args[i] = conv
				if dedupe {
					keyB.WriteString(argKey(conv))
					keyB.WriteByte('\x00')
				}
			}
			if dedupe {
				if gc, dup := seenCall[keyB.String()]; dup {
					callOfIter[li] = gc
					if trace != nil {
						mapTbl.Append(xdm.Integer(it), xdm.Integer(seenIterp[keyB.String()]))
					}
					continue
				}
				seenCall[keyB.String()] = totalCalls
				seenIterp[keyB.String()] = iterp + 1
			}
			iterp++
			br.Calls = append(br.Calls, args)
			if decl.Updating {
				// deterministic update order: ship the original query
				// position of this iteration so the peer applies the
				// pending updates in query order despite the bulk's
				// out-of-order execution
				br.SeqNrs = append(br.SeqNrs, seqBase|int64(origOf[it]))
			}
			origIdx = append(origIdx, totalCalls)
			callOfIter[li] = totalCalls
			totalCalls++
			if trace != nil {
				mapTbl.Append(xdm.Integer(it), xdm.Integer(iterp))
				for i, arg := range args {
					for p, item := range arg {
						reqTbls[i].Append(xdm.Integer(iterp), xdm.Integer(p+1), item)
					}
				}
			}
		}
		parts = append(parts, destPart{dest: peer, br: br, orig: origIdx})
		if trace != nil {
			trace.PerPeer = append(trace.PerPeer, &PeerTrace{Peer: peer, Map: mapTbl, Req: reqTbls})
		}
	}

	// dispatch: one Bulk RPC per peer, all peers at once (the lowest
	// peer's error wins), or — the Table 2 comparison mode — one
	// synchronous RPC per call
	callResults := make([]xdm.Sequence, totalCalls)
	if ec.OneAtATime {
		for _, part := range parts {
			for j, call := range part.br.Calls {
				single := *part.br
				single.Calls = [][]xdm.Sequence{call}
				if part.br.SeqNrs != nil {
					single.SeqNrs = part.br.SeqNrs[j : j+1]
				}
				res, err := ec.Bulk.CallBulk(part.dest, &single)
				if err != nil {
					return nil, err
				}
				callResults[part.orig[j]] = res[0]
			}
		}
	} else if _, err := client.Fanout(len(parts), func(i int) error {
		res, err := ec.Bulk.CallBulk(parts[i].dest, parts[i].br)
		if err != nil {
			return err
		}
		for j, seq := range res {
			callResults[parts[i].orig[j]] = seq
		}
		return nil
	}); err != nil {
		return nil, err
	}
	// fan results back out to the iterations
	results := make([]xdm.Sequence, len(liveIters))
	for li := range liveIters {
		results[li] = callResults[callOfIter[li]]
	}

	// map results back into the outer loop: res_p = msg_p ⋈ map_p, then
	// the merge-union over peers realized by emitting in iter order
	out := seqTable()
	for i, it := range liveIters {
		for p, item := range results[i] {
			out.AppendSeq(it, int64(p+1), item)
		}
	}
	if trace != nil {
		for pi, part := range parts {
			msg := algebra.NewTable("iterp", algebra.ColPos, algebra.ColItem)
			res := seqTable()
			for j, gc := range part.orig {
				for p, item := range callResults[gc] {
					msg.Append(xdm.Integer(j+1), xdm.Integer(p+1), item)
				}
			}
			for li, it := range liveIters {
				if iterPeer[it] != part.dest {
					continue
				}
				for p, item := range results[li] {
					res.Append(xdm.Integer(it), xdm.Integer(p+1), item)
				}
			}
			trace.PerPeer[pi].Msg = msg
			trace.PerPeer[pi].Res = res
		}
		trace.Result = out
	}
	return out, nil
}
