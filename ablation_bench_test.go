// Ablation benchmarks for design choices README.md's "Architecture"
// section describes: call deduplication (δ) in the Figure 2 rule, the
// §4 predicate hash index, and call-by-fragment message compression.
// Each Benchmark pair measures the system with the mechanism on and off.
package xrpc

import (
	"testing"

	"xrpc/internal/client"
	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/pathfinder"
	"xrpc/internal/server"
	"xrpc/internal/soap"
	"xrpc/internal/store"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

// --- ablation 1: δ over identical bulk calls -------------------------

const invariantCallQuery = `
import module namespace f="films" at "http://x.example.org/film.xq";
for $p in (1 to 50)
return count(execute at {"xrpc://y"} {f:filmsByActor("Sean Connery")})`

func dedupEnv(b *testing.B) (*pathfinder.Compiled, *netsim.Network, *store.Snapshot) {
	b.Helper()
	net := netsim.NewNetwork(0, 0)
	reg := modules.NewRegistry()
	film := `
module namespace film="films";
declare function film:filmsByActor($actor as xs:string) as node()*
{ doc("filmDB.xml")//name[../actor=$actor] };`
	if err := reg.Register(film, "http://x.example.org/film.xq"); err != nil {
		b.Fatal(err)
	}
	st := store.New()
	if err := st.LoadXML("filmDB.xml", xmark.GenerateFilmDB(200, nil)); err != nil {
		b.Fatal(err)
	}
	srv := server.New(st, reg, server.NewNativeExecutor(interp.New(reg), reg))
	net.Register("xrpc://y", srv)
	compiled, err := pathfinder.Compile(invariantCallQuery, reg)
	if err != nil {
		b.Fatal(err)
	}
	return compiled, net, store.New().Snapshot()
}

func benchDedup(b *testing.B, noDedup bool) {
	compiled, net, local := dedupEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ec := &pathfinder.ExecCtx{Docs: local, Bulk: client.New(net), NoDedup: noDedup}
		if _, err := compiled.Eval(ec, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_CallDedup_On(b *testing.B)  { benchDedup(b, false) }
func BenchmarkAblation_CallDedup_Off(b *testing.B) { benchDedup(b, true) }

// --- ablation 2: the §4 predicate hash index --------------------------

func benchPredIndex(b *testing.B, disabled bool) {
	st := store.New()
	cfg := xmark.Config{Persons: 500, Seed: 1}
	if err := st.LoadXML("persons.xml", xmark.GeneratePersons(cfg)); err != nil {
		b.Fatal(err)
	}
	snap := st.Snapshot()
	defer snap.Release()
	eng := interp.New(nil)
	eng.DisablePredIndex = disabled
	compiled, err := eng.Compile(`
for $i in (0 to 199)
let $pid := concat("person", string($i))
return count(doc("persons.xml")//person[@id=$pid])`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Eval(compiled, &interp.EvalOptions{Docs: snap}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_PredIndex_On(b *testing.B)  { benchPredIndex(b, false) }
func BenchmarkAblation_PredIndex_Off(b *testing.B) { benchPredIndex(b, true) }

// --- ablation 3: call-by-fragment compression --------------------------

func benchByFragment(b *testing.B, byFragment bool) {
	doc, err := xdm.ParseDocument("site.xml", xmark.GeneratePersons(xmark.Config{Persons: 100, Seed: 2}))
	if err != nil {
		b.Fatal(err)
	}
	people := xdm.Step(doc, xdm.AxisDescendant, xdm.NodeTest{Name: "people"})[0]
	persons := xdm.Step(doc, xdm.AxisDescendant, xdm.NodeTest{Name: "person"})
	params := []xdm.Sequence{{people}, {persons[10]}, {persons[90]}}
	req := &soap.Request{
		Module: "m", Method: "f", Arity: 3, Location: "l",
		ByFragment: byFragment,
		Calls:      [][]xdm.Sequence{params},
	}
	b.ResetTimer()
	var bytes int
	for i := 0; i < b.N; i++ {
		msg := soap.EncodeRequest(req)
		bytes = len(msg)
		if _, err := soap.DecodeRequest(msg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(bytes), "message-bytes")
}

func BenchmarkAblation_ByFragment_On(b *testing.B)  { benchByFragment(b, true) }
func BenchmarkAblation_ByFragment_Off(b *testing.B) { benchByFragment(b, false) }
