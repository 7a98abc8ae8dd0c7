package cluster

import (
	"log/slog"
	"net/http"

	"xrpc/internal/client"
	"xrpc/internal/obs"
	"xrpc/internal/server"
	"xrpc/internal/soap"
	"xrpc/internal/xdm"
)

// Proxy exposes a Coordinator as an ordinary XRPC peer over HTTP: a
// client posts a bulk request to /xrpc exactly as it would to a single
// server, and receives the merged cluster response — streamed. It takes
// requests in and answers them as a peer does (server.ReadRequest and
// server.Reply), so it accepts gzip requests, gzips its answers when
// Gzip is set, and faults with the codes a peer would. Read requests
// flow through the read pipeline into a writer sink (what ScatterStream
// does, through a client pinned to the request's queryID when it
// carries one), so the proxy forwards shard results to the client as
// they arrive and never materializes the merged response; updating
// requests route through Update (whose result, one status sequence per
// call, is small by construction).
type Proxy struct {
	Co *Coordinator
	// Gzip enables gzip Content-Encoding on responses for clients that
	// advertise Accept-Encoding: gzip, as Server.Gzip does for a peer.
	Gzip bool
	// Log, when non-nil, receives structured records for proxy-level
	// failures (malformed requests, scatter faults, mid-stream aborts),
	// each carrying the request's trace ID. Nil disables logging.
	Log *slog.Logger
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, status := server.ReadRequest(w, r, 0)
	if status != 0 {
		return
	}
	rp := server.NewReply(w, r, p.Gzip, nil)
	req, err := soap.DecodeRequest(body)
	if err != nil {
		if p.Log != nil {
			p.Log.Error("malformed request", "remote", r.RemoteAddr, "err", err)
		}
		rp.Finish(xdm.Errorf("XRPC0003", "malformed request: %v", err))
		return
	}
	// the proxy is the cluster's front door: a request arriving without a
	// trace ID is minted one here, and the ID rides the envelope to every
	// shard (and into each shard's slow-query log) via BulkRequest
	trace := req.TraceID
	if trace == "" {
		trace = obs.NewTraceID()
	}
	br := &client.BulkRequest{
		ModuleURI:  req.Module,
		AtHint:     req.Location,
		Func:       req.Method,
		Arity:      req.Arity,
		Updating:   req.Updating,
		Calls:      req.Calls,
		ByFragment: req.ByFragment,
		SeqNrs:     req.SeqNrs,
		TraceID:    trace,
		Projection: req.Projection,
	}
	if req.Updating {
		results, err := p.Co.Update(br)
		if err == nil {
			err = rp.Send(func(enc *soap.Encoder) {
				enc.EncodeResponse(&soap.Response{Module: req.Module, Method: req.Method, Results: results})
			})
		} else if p.Log != nil {
			p.Log.Error("update failed", "trace_id", trace,
				"module", req.Module, "method", req.Method, "err", err)
		}
		rp.Finish(err)
		return
	}
	// a request inside an isolation scope reads through a client pinned to
	// its queryID (repeatable read at every shard); everything else about
	// the coordinator — planner, routes, table — is the
	// one shared instance, for reads and for Update alike
	cl := p.Co.Client
	if req.QueryID != nil {
		cl = client.New(cl.Transport)
		cl.QueryID = req.QueryID
	}
	err = p.Co.scatterStream(cl, br, rp)
	if err != nil && p.Log != nil {
		if rp.Written() == 0 {
			p.Log.Error("scatter failed", "trace_id", trace,
				"module", req.Module, "method", req.Method, "err", err)
		} else {
			p.Log.Error("scatter aborted mid-stream", "trace_id", trace,
				"module", req.Module, "method", req.Method,
				"bytes_written", rp.Written(), "err", err)
		}
	}
	rp.Finish(err)
}
