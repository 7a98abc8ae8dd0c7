package pathfinder

import (
	"strings"
	"testing"

	"xrpc/internal/xq"
)

// the routed-workload module shared by the cluster tests and the
// cluster benchmarks, verbatim (keep in sync with
// internal/cluster/routed_test.go and bench.FunctionsP).
const personsModuleSrc = `
module namespace p = "functions_p";
declare function p:getPerson($pid as xs:string) as node()*
{ doc("persons.xml")//person[@id=$pid] };
declare function p:cityOf($pid as xs:string) as xs:string
{ string(doc("persons.xml")//person[@id=$pid]/address/city) };
declare updating function p:setCity($pid as xs:string, $city as xs:string)
{ for $c in doc("persons.xml")//person[@id=$pid]/address/city
  return replace value of node $c with $city };`

// the peer-B module of the Q7 strategies experiment, verbatim (keep in
// sync with internal/strategies/strategies.go).
const functionsBSrc = `
module namespace b = "functions_b";
declare function b:Q_B1() as node()*
{ doc("auctions.xml")//closed_auction };
declare function b:Q_B2() as node()*
{ for $p in doc("xrpc://A/persons.xml")//person,
      $ca in doc("auctions.xml")//closed_auction
  where $p/@id = $ca/buyer/@person
  return <result>{$p, $ca/annotation}</result>
};
declare function b:Q_B3($pid as xs:string) as node()*
{ doc("auctions.xml")//closed_auction[./buyer/@person=$pid] };`

func derive(t *testing.T, src string) (map[string]RouteKey, map[string]string) {
	t.Helper()
	m, err := xq.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	keys, misses := DeriveRouteKeys(m)
	km := make(map[string]RouteKey, len(keys))
	for _, k := range keys {
		km[k.Func] = k
	}
	mm := make(map[string]string, len(misses))
	for _, ms := range misses {
		mm[ms.Func] = ms.Reason
	}
	return km, mm
}

func wantKey(t *testing.T, got map[string]RouteKey, fn string, want RouteKey) {
	t.Helper()
	k, ok := got[fn]
	if !ok {
		t.Fatalf("%s: not derived", fn)
	}
	want.Func = fn
	if k != want {
		t.Fatalf("%s: derived %+v, want %+v", fn, k, want)
	}
}

func wantMiss(t *testing.T, misses map[string]string, fn, reasonPart string) {
	t.Helper()
	r, ok := misses[fn]
	if !ok {
		t.Fatalf("%s: expected a derivation miss, got a derived key", fn)
	}
	if !strings.Contains(r, reasonPart) {
		t.Fatalf("%s: miss reason %q, want it to mention %q", fn, r, reasonPart)
	}
}

// TestDeriveRouteKeysPersons pins the derivations for the routed
// persons workload: the probe and the updating function both key on
// parameter 0 against person/@id, and cityOf must NOT derive — its
// string() wrapper turns the empty sequence into the non-empty ""
// singleton, so a pruned execution would not be byte-identical to
// broadcast.
func TestDeriveRouteKeysPersons(t *testing.T) {
	keys, misses := derive(t, personsModuleSrc)
	wantKey(t, keys, "getPerson", RouteKey{
		Param: 0, Doc: "persons.xml", PathSuffix: "person", KeyAttr: "id", Op: "=",
	})
	wantKey(t, keys, "setCity", RouteKey{
		Param: 0, Doc: "persons.xml", PathSuffix: "person", KeyAttr: "id", Op: "=",
	})
	wantMiss(t, misses, "cityOf", "not provably empty")
}

// TestDeriveRouteKeysFunctionsB: none of the Q7 peer-B functions may
// derive — Q_B1/Q_B2 have no parameters, and Q_B3 filters on
// buyer/@person, a sub-element attribute that is not the container's
// partition key.
func TestDeriveRouteKeysFunctionsB(t *testing.T) {
	keys, misses := derive(t, functionsBSrc)
	if len(keys) != 0 {
		t.Fatalf("derived %v, want none", keys)
	}
	wantMiss(t, misses, "Q_B1", "no parameters")
	wantMiss(t, misses, "Q_B2", "no parameters")
	wantMiss(t, misses, "Q_B3", "no comparison")
}

// TestDeriveRouteKeysShapes covers the shape variations: rooted child
// chains, range comparisons in both operand orders, identity wrappers
// around the parameter, and trailing steps below the keyed container.
func TestDeriveRouteKeysShapes(t *testing.T) {
	keys, misses := derive(t, `
module namespace s = "shapes";
declare function s:rooted($k as xs:string) as node()*
{ doc("persons.xml")/site/people/person[@id=$k] };
declare function s:from($k as xs:string) as node()*
{ doc("persons.xml")//person[@id >= $k] };
declare function s:upTo($k as xs:string) as node()*
{ doc("persons.xml")//person[$k >= @id] };
declare function s:wrapped($k as xs:string) as node()*
{ doc("persons.xml")//person[@id = data($k)] };
declare function s:below($k as xs:string) as node()*
{ doc("persons.xml")//person[@id=$k]/address/city };
declare function s:valueEq($k as xs:string) as node()*
{ doc("persons.xml")//person[@id eq $k] };
declare function s:second($p as xs:string, $k as xs:string) as node()*
{ doc("persons.xml")//person[@id=$k] };`)
	wantKey(t, keys, "rooted", RouteKey{
		Param: 0, Doc: "persons.xml", PathSuffix: "/site/people/person",
		Rooted: true, KeyAttr: "id", Op: "=",
	})
	wantKey(t, keys, "from", RouteKey{
		Param: 0, Doc: "persons.xml", PathSuffix: "person", KeyAttr: "id", Op: ">=",
	})
	wantKey(t, keys, "upTo", RouteKey{
		Param: 0, Doc: "persons.xml", PathSuffix: "person", KeyAttr: "id", Op: "<=",
	})
	wantKey(t, keys, "wrapped", RouteKey{
		Param: 0, Doc: "persons.xml", PathSuffix: "person", KeyAttr: "id", Op: "=",
	})
	wantKey(t, keys, "below", RouteKey{
		Param: 0, Doc: "persons.xml", PathSuffix: "person", KeyAttr: "id", Op: "=",
	})
	wantKey(t, keys, "valueEq", RouteKey{
		Param: 0, Doc: "persons.xml", PathSuffix: "person", KeyAttr: "id", Op: "=",
	})
	wantKey(t, keys, "second", RouteKey{
		Param: 1, Doc: "persons.xml", PathSuffix: "person", KeyAttr: "id", Op: "=",
	})
	if len(misses) != 0 {
		t.Fatalf("unexpected misses: %v", misses)
	}
}

// TestDeriveRouteKeysRejections: every construct that would break the
// empty-on-miss promise must miss, with a diagnosable reason.
func TestDeriveRouteKeysRejections(t *testing.T) {
	_, misses := derive(t, `
module namespace r = "rejects";
declare function r:shadowed($k as xs:string) as node()*
{ for $k in ("x") return doc("persons.xml")//person[@id=$k] };
declare function r:counted($k as xs:string) as xs:integer
{ count(doc("persons.xml")//person[@id=$k]) };
declare function r:conflicting($k as xs:string) as node()*
{ (doc("persons.xml")//person[@id=$k], doc("persons.xml")//person[@name=$k]) };
declare function r:extraDoc($k as xs:string) as node()*
{ (doc("persons.xml")//person[@id=$k], doc("other.xml")//person) };
declare function r:constructed($k as xs:string) as node()*
{ <hit>{doc("persons.xml")//person[@id=$k]}</hit> };
declare function r:remote($k as xs:string) as node()*
{ (doc("persons.xml")//person[@id=$k],
   execute at {"xrpc://B"} { r:shadowed($k) }) };
declare function r:negated($k as xs:string) as node()*
{ doc("persons.xml")//person[@id != $k] };`)
	wantMiss(t, misses, "shadowed", "no comparison")
	wantMiss(t, misses, "counted", "not provably empty")
	wantMiss(t, misses, "conflicting", "conflicting key comparisons")
	wantMiss(t, misses, "extraDoc", "not provably empty")
	wantMiss(t, misses, "constructed", "not provably empty")
	wantMiss(t, misses, "remote", "not provably empty")
	wantMiss(t, misses, "negated", "no comparison")
}
