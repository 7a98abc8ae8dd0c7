package pathfinder

import (
	"testing"

	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/xdm"
	"xrpc/internal/xq"
	"xrpc/internal/xqrt"
)

// These tests drive xqrt.PlanCache the way a query processor does —
// keyed on normalized text, the loop-lifted plan lifted from the cached
// static context — which needs this package's Lift to evaluate.

type planCacheFixture struct {
	reg *modules.Registry
	eng *interp.Engine
	pc  *xqrt.PlanCache
}

func newPlanCacheFixture() *planCacheFixture {
	reg := modules.NewRegistry()
	return &planCacheFixture{
		reg: reg,
		eng: interp.New(reg),
		pc:  xqrt.NewPlanCache(xqrt.DefaultPlanCacheBytes, xqrt.DefaultPlanCacheEntries),
	}
}

// run compiles src through the cache and evaluates its lifted plan.
func (f *planCacheFixture) run(tb testing.TB, src string) string {
	tb.Helper()
	static, err := f.pc.Compile(f.eng.Modules, xq.Normalize(src), src)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := Lift(static)
	if err != nil {
		tb.Fatal(err)
	}
	seq, err := plan.Eval(&ExecCtx{}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return xdm.SerializeSequence(seq)
}

func (f *planCacheFixture) wantCounts(t *testing.T, hits, misses int64, why string) {
	t.Helper()
	if h, m := f.pc.Hits.Load(), f.pc.Misses.Load(); h != hits || m != misses {
		t.Fatalf("hits=%d misses=%d, want %d/%d: %s", h, m, hits, misses, why)
	}
}

func TestPlanCacheSharesNormalizedVariants(t *testing.T) {
	f := newPlanCacheFixture()
	variants := []string{
		"for $i in (1,2,3) return $i + 1",
		"for $i in (1,2,3)\n  return $i + 1",
		"for $i in (1,2,3) (: same plan :) return $i + 1",
	}
	for i, src := range variants {
		if got := f.run(t, src); got != "2 3 4" {
			t.Fatalf("variant %d = %q", i, got)
		}
	}
	f.wantCounts(t, 2, 1, "layout variants share one plan")

	static, _ := f.pc.Compile(f.eng.Modules, xq.Normalize(variants[0]), variants[0])
	first, _ := Lift(static)
	if again, _ := Lift(static); again != first {
		t.Fatal("a cached static context was lifted twice")
	}
}

func TestPlanCacheDistinguishesDifferentQueries(t *testing.T) {
	f := newPlanCacheFixture()
	f.run(t, "1 + 1")
	f.run(t, "1 + 2")
	f.wantCounts(t, 0, 2, "distinct queries must not share")
}

// The one invalidation rule, with nothing wired between registry and
// cache: registering a module again invalidates exactly the plans that
// import it — directly or through another module — and no other.
func TestPlanCacheInvalidatesOnRegistration(t *testing.T) {
	f := newPlanCacheFixture()
	register := func(src string) {
		t.Helper()
		if err := f.reg.Register(src); err != nil {
			t.Fatal(err)
		}
	}
	register(`module namespace m="m"; declare function m:f() { 1 };`)
	register(`module namespace n="n"; import module namespace m="m"; declare function n:g() { m:f() + 10 };`)
	const plain = "1 + 1"
	const direct = `import module namespace m="m"; m:f()`
	const transitive = `import module namespace n="n"; n:g()`
	for _, q := range []string{plain, direct, transitive} {
		f.run(t, q)
		f.run(t, q)
	}
	f.wantCounts(t, 3, 3, "each text compiles once")

	register(`module namespace other="other"; declare function other:h() { 0 };`)
	for _, q := range []string{plain, direct, transitive} {
		f.run(t, q)
	}
	f.wantCounts(t, 6, 3, "an unrelated registration must keep every plan warm")

	register(`module namespace m="m"; declare function m:f() { 2 };`)
	if got := f.run(t, plain); got != "2" {
		t.Fatalf("%s = %q", plain, got)
	}
	f.wantCounts(t, 7, 3, "a text importing nothing is never invalidated")
	if got := f.run(t, direct); got != "2" {
		t.Fatalf("%s = %q after m was re-registered (stale plan)", direct, got)
	}
	if got := f.run(t, transitive); got != "12" {
		t.Fatalf("%s = %q after m was re-registered (stale plan)", transitive, got)
	}
	f.wantCounts(t, 7, 5, "both importers of m recompile, once")
	f.run(t, direct)
	f.run(t, transitive)
	f.wantCounts(t, 9, 5, "recompiled plans are warm")
}

func BenchmarkPlanCacheHit(b *testing.B) {
	f := newPlanCacheFixture()
	const src = "for $i in (1,2,3)\n  return $i + 1"
	f.run(b, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		static, err := f.pc.Compile(f.eng.Modules, xq.Normalize(src), src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Lift(static); err != nil {
			b.Fatal(err)
		}
	}
}
