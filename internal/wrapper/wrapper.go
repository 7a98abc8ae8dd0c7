// Package wrapper implements the XRPC wrapper of §4 of the paper: a SOAP
// service handler that lets any XQuery processor — one with no native
// XRPC support — answer XRPC calls. The wrapper stores the incoming
// request message in a temporary location, generates an XQuery query
// (Figure 3) that iterates over the bulk calls, applies the requested
// function to each, and constructs the SOAP response envelope by element
// construction; then it executes that query on the wrapped engine.
//
// In the reproduction the wrapped processor is the tree-walking
// interpreter configured Saxon-style: no function cache (the module and
// the generated query are compiled per request) and no persistent store
// (source documents are re-parsed per request, the "treebuild" phase of
// Table 3).
package wrapper

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/docres"
	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/soap"
	"xrpc/internal/xdm"
	"xrpc/internal/xquf"
)

// RequestDocURI is the temporary location the incoming request message
// is stored under ("/tmp/requestXXX.xml" in the paper).
const RequestDocURI = "/tmp/request.xml"

// Wrapper wraps an XRPC-incapable XQuery engine. It implements
// server.Executor.
type Wrapper struct {
	// Registry resolves the imported module (compiled per request — the
	// wrapped processor has no function cache).
	Registry *modules.Registry
	// Texts holds the engine's source documents as raw XML text,
	// re-parsed on every access like a stream-oriented processor.
	Texts map[string]string
	// Remote, when set, resolves documents not found in Texts — used
	// for xrpc:// data shipping from the wrapped engine (the execution
	// relocation strategy of §5 needs the Saxon peer to fetch
	// persons.xml from the MonetDB peer).
	Remote docres.DocResolver
	// PureXQueryMarshal makes the generated query use the pure-XQuery
	// n2s/s2n implementations (PureMarshalModule) instead of the native
	// ones — §4's "can be implemented purely in XQuery".
	PureXQueryMarshal bool

	reqSeq atomic.Int64

	mu sync.Mutex
	// LastQuery is the most recently generated query text (Figure 3),
	// kept for inspection.
	LastQuery string
	// LastStats holds the compile/treebuild/exec phases of the last
	// request (Table 3).
	LastStats interp.Stats
}

// New creates a wrapper over a module registry and raw document texts.
// The pure-XQuery marshaling module is registered so either marshaling
// mode works.
func New(reg *modules.Registry, texts map[string]string) *Wrapper {
	if texts == nil {
		texts = map[string]string{}
	}
	if reg != nil {
		// best effort; a caller may have registered it already
		_ = reg.Register(PureMarshalModule, "urn:xrpc-marshal")
	}
	return &Wrapper{Registry: reg, Texts: texts}
}

// LoadText registers a source document as raw text.
func (w *Wrapper) LoadText(name, text string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.Texts[name] = text
}

// GenerateQuery produces the XQuery query the wrapper runs for a request
// — the exact shape of Figure 3 of the paper (native marshaling).
func GenerateQuery(req *soap.Request, requestDoc string) string {
	return GenerateQueryWith(req, requestDoc, false)
}

// GenerateQueryWith optionally generates the pure-XQuery-marshaling
// variant, which imports PureMarshalModule and calls xm:n2s/xm:s2n.
func GenerateQueryWith(req *soap.Request, requestDoc string, pureMarshal bool) string {
	n2s, s2n := "xrpcw:n2s", "xrpcw:s2n"
	var b strings.Builder
	fmt.Fprintf(&b, "import module namespace func = %q at %q;\n", req.Module, req.Location)
	if pureMarshal {
		n2s, s2n = "xm:n2s", "xm:s2n"
		b.WriteString("import module namespace xm = \"urn:xrpc-marshal\" at \"urn:xrpc-marshal\";\n")
	}
	b.WriteString(`declare namespace env = "` + soap.NSEnv + "\";\n")
	b.WriteString(`declare namespace xrpc = "` + soap.NSXRPC + "\";\n")
	b.WriteString(`<env:Envelope xmlns:env="` + soap.NSEnv + `"` + "\n")
	b.WriteString(`  xmlns:xrpc="` + soap.NSXRPC + `"` + "\n")
	b.WriteString(`  xmlns:xs="` + soap.NSXS + `"` + "\n")
	b.WriteString(`  xmlns:xsi="` + soap.NSXSI + `"` + "\n")
	b.WriteString(`  xsi:schemaLocation="` + soap.SchemaLoc + `">` + "\n")
	b.WriteString("<env:Body>\n")
	fmt.Fprintf(&b, `<xrpc:response xrpc:module=%q xrpc:method=%q>{`+"\n", req.Module, req.Method)
	fmt.Fprintf(&b, "  for $call in doc(%q)//xrpc:call\n", requestDoc)
	var params []string
	for i := 1; i <= req.Arity; i++ {
		fmt.Fprintf(&b, "  let $param%d := %s($call/xrpc:sequence[%d])\n", i, n2s, i)
		params = append(params, fmt.Sprintf("$param%d", i))
	}
	fmt.Fprintf(&b, "  return %s(func:%s(%s))\n", s2n, req.Method, strings.Join(params, ", "))
	b.WriteString("}</xrpc:response>\n</env:Body>\n</env:Envelope>")
	return b.String()
}

// Execute implements server.Executor: the full wrapper cycle for one
// request message (store request doc, generate query, compile, execute,
// decode response), recording the three latency phases of Table 3.
func (w *Wrapper) Execute(req *soap.Request, raw []byte, _ docres.DocResolver, _ client.BulkCaller) ([]xdm.Sequence, *xquf.UpdateList, *interp.Stats, error) {
	reqDoc := fmt.Sprintf("/tmp/request%d.xml", w.reqSeq.Add(1))
	stats := &interp.Stats{}

	// per-request document source: request message + the engine's raw
	// texts, parsed on access with treebuild accounting
	docs := &timingDocSource{
		texts:     w.Texts,
		extra:     map[string]string{reqDoc: string(raw)},
		remote:    w.Remote,
		treeBuild: &stats.TreeBuild,
	}
	engine := &interp.Engine{
		Modules: w.Registry,
		ExtFuncs: map[string]interp.ExtFunc{
			"xrpcw:n2s": extN2S,
			"xrpcw:s2n": extS2N,
		},
	}

	query := GenerateQueryWith(req, reqDoc, w.PureXQueryMarshal)
	w.mu.Lock()
	w.LastQuery = query
	w.mu.Unlock()

	compileStart := time.Now()
	compiled, err := engine.Compile(query)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("wrapper: generated query does not compile: %w", err)
	}
	stats.Compile = time.Since(compileStart)

	execStart := time.Now()
	seq, pul, err := engine.Eval(compiled, &interp.EvalOptions{Docs: docs, CollectUpdates: true})
	if err != nil {
		return nil, nil, nil, err
	}
	stats.Exec = time.Since(execStart) - stats.TreeBuild
	if stats.Exec < 0 {
		stats.Exec = 0
	}

	// the query's value is the response envelope; walk it to hand the
	// per-call sequences back to the server layer (no text round-trip)
	if len(seq) != 1 {
		return nil, nil, nil, fmt.Errorf("wrapper: generated query returned %d items", len(seq))
	}
	env, ok := seq[0].(*xdm.Node)
	if !ok {
		return nil, nil, nil, fmt.Errorf("wrapper: generated query returned a non-node")
	}
	results, err := extractResults(env)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("wrapper: generated response invalid: %w", err)
	}
	// updating calls return empty sequences; pad to the call count
	for len(results) < len(req.Calls) {
		results = append(results, xdm.Sequence{})
	}
	w.mu.Lock()
	w.LastStats = *stats
	w.mu.Unlock()
	return results, pul, stats, nil
}

// extractResults pulls the per-call sequences out of the constructed
// envelope tree.
func extractResults(env *xdm.Node) ([]xdm.Sequence, error) {
	node := env
	for _, local := range []string{"Body", "response"} {
		var next *xdm.Node
		for _, c := range node.ChildElements() {
			name := c.Name
			if i := strings.IndexByte(name, ':'); i >= 0 {
				name = name[i+1:]
			}
			if name == local {
				next = c
				break
			}
		}
		if next == nil {
			return nil, fmt.Errorf("missing %s element", local)
		}
		node = next
	}
	var out []xdm.Sequence
	for _, c := range node.ChildElements() {
		name := c.Name
		if i := strings.IndexByte(name, ':'); i >= 0 {
			name = name[i+1:]
		}
		if name != "sequence" {
			continue
		}
		seq, err := soap.DecodeSequence(c)
		if err != nil {
			return nil, err
		}
		out = append(out, seq)
	}
	return out, nil
}

// extN2S is the n2s marshaling function exposed to the generated query:
// <xrpc:sequence> element -> XDM sequence.
func extN2S(args []xdm.Sequence) (xdm.Sequence, error) {
	if len(args) != 1 || len(args[0]) != 1 {
		return nil, xdm.NewError("XRPC0008", "n2s expects one sequence element")
	}
	n, ok := args[0][0].(*xdm.Node)
	if !ok {
		return nil, xdm.NewError("XRPC0008", "n2s expects a node")
	}
	return soap.DecodeSequence(n)
}

// extS2N is the s2n marshaling function: XDM sequence ->
// <xrpc:sequence> element.
func extS2N(args []xdm.Sequence) (xdm.Sequence, error) {
	if len(args) != 1 {
		return nil, xdm.NewError("XRPC0008", "s2n expects one argument")
	}
	return xdm.Singleton(soap.SequenceToNode(args[0])), nil
}

// timingDocSource parses raw XML text on every fn:doc access and
// accumulates parse time into the treebuild phase, mimicking a
// stream-oriented processor like Saxon that rebuilds source trees per
// query.
type timingDocSource struct {
	texts     map[string]string
	extra     map[string]string
	remote    docres.DocResolver
	treeBuild *time.Duration
	// parsed caches trees within one request: fn:doc is stable inside a
	// query, so a bulk of 1000 calls parses each source document once
	// (Saxon's Table 3 treebuild is likewise paid once per query).
	parsed map[string]*xdm.Node
}

// Doc implements docres.DocResolver.
func (s *timingDocSource) Doc(uri string) (*xdm.Node, error) {
	if doc, ok := s.parsed[uri]; ok {
		return doc, nil
	}
	text, ok := s.extra[uri]
	if !ok {
		text, ok = s.texts[uri]
	}
	if !ok {
		if s.remote != nil {
			return s.remote.Doc(uri)
		}
		return nil, xdm.Errorf("FODC0002", "document %q not found", uri)
	}
	start := time.Now()
	doc, err := xdm.ParseDocument(uri, text)
	*s.treeBuild += time.Since(start)
	if err != nil {
		return nil, err
	}
	if s.parsed == nil {
		s.parsed = map[string]*xdm.Node{}
	}
	s.parsed[uri] = doc
	return doc, nil
}
