package cluster

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"

	"xrpc/internal/client"
	"xrpc/internal/obs"
	"xrpc/internal/server"
	"xrpc/internal/soap"
)

// Proxy exposes a Coordinator as an ordinary XRPC peer over HTTP: a
// client posts a bulk request to /xrpc exactly as it would to a single
// server, and receives the merged cluster response — streamed. Read
// requests flow through the read pipeline into a writer sink (what
// ScatterStream does, through a client pinned to the request's queryID
// when it carries one), so the proxy forwards shard results to the
// client as they arrive and never materializes the merged response;
// updating requests route through Update (whose result, one status
// sequence per call, is small by construction).
type Proxy struct {
	Co *Coordinator
	// Log, when non-nil, receives structured records for proxy-level
	// failures (malformed requests, scatter faults, mid-stream aborts),
	// each carrying the request's trace ID. Nil disables logging.
	Log *slog.Logger
}

// ServeHTTP implements http.Handler. It takes requests in as a peer
// does (server.ReadRequest): a client that gzips its requests for a
// peer may send them to the proxy too.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, status := server.ReadRequest(w, r, 0)
	if status != 0 {
		return
	}
	w.Header().Set("Content-Type", "application/soap+xml; charset=utf-8")
	req, err := soap.DecodeRequest(body)
	if err != nil {
		if p.Log != nil {
			p.Log.Error("malformed request", "remote", r.RemoteAddr, "err", err)
		}
		soap.EncodeFaultTo(w, &soap.Fault{Code: "env:Sender",
			Reason: fmt.Sprintf("malformed request: %v", err)})
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
	}
	if req.Updating {
		results, err := p.Co.Update(br)
		if err != nil {
			if p.Log != nil {
				p.Log.Error("update failed", "trace_id", trace,
					"module", req.Module, "method", req.Method, "err", err)
			}
			soap.EncodeFaultTo(w, proxyFault(err))
			return
		}
		soap.EncodeResponseTo(w, &soap.Response{
			Module: req.Module, Method: req.Method, Results: results,
		})
		return
	}
	sink := &proxySink{w: w}
	if f, ok := w.(http.Flusher); ok {
		sink.f = f
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
	if err := p.Co.scatterStream(cl, br, sink); err != nil {
		if sink.wrote == 0 {
			// nothing left the process yet: a clean fault envelope
			if p.Log != nil {
				p.Log.Error("scatter failed", "trace_id", trace,
					"module", req.Module, "method", req.Method, "err", err)
			}
			soap.EncodeFaultTo(w, proxyFault(err))
			return
		}
		// mid-stream failure with merged bytes already on the wire: the
		// partial envelope must not arrive looking complete, so abort
		// the connection — the client's decoder sees truncation, not a
		// silently shortened result
		if p.Log != nil {
			p.Log.Error("scatter aborted mid-stream", "trace_id", trace,
				"module", req.Module, "method", req.Method,
				"bytes_written", sink.wrote, "err", err)
		}
		panic(http.ErrAbortHandler)
	}
}

func proxyFault(err error) *soap.Fault {
	if f, ok := err.(*soap.Fault); ok {
		return f
	}
	return &soap.Fault{Code: "env:Receiver", Reason: err.Error()}
}

// proxySink forwards encoder chunks to the client immediately and
// remembers whether anything was written (the fault-vs-abort decision
// above).
type proxySink struct {
	w     io.Writer
	f     http.Flusher
	wrote int64
}

func (s *proxySink) Write(p []byte) (int, error) {
	n, err := s.w.Write(p)
	s.wrote += int64(n)
	if err != nil {
		return n, err
	}
	if s.f != nil {
		s.f.Flush()
	}
	return n, nil
}
