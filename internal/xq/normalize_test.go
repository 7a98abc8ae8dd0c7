package xq

import (
	"reflect"
	"strings"
	"testing"
)

func TestNormalizeCollapsesLayout(t *testing.T) {
	a := "module namespace f = \"urn:f\";\ndeclare function f:one() { 1 + 2 };\n"
	b := "module   namespace f =\t\"urn:f\" ;\n\n  declare function f:one()\r\n{ 1 + 2 } ;"
	na, nb := Normalize(a), Normalize(b)
	if na != nb {
		t.Fatalf("layout variants normalize differently:\n%q\n%q", na, nb)
	}
}

func TestNormalizeStripsComments(t *testing.T) {
	a := "for $x in (1,2) return $x"
	b := "for $x in (: a (: nested :) comment :) (1,2) return $x"
	if Normalize(a) != Normalize(b) {
		t.Fatalf("comment variant normalizes differently:\n%q\n%q", Normalize(a), Normalize(b))
	}
}

func TestNormalizeCommentIsSeparator(t *testing.T) {
	// a(:c:)b lexes as two names; ab as one — must stay distinct keys
	if Normalize("a(:c:)b") == Normalize("ab") {
		t.Fatal("comment-separated names collapsed into one key")
	}
	if got := Normalize("a(:c:)b"); got != "a b" {
		t.Fatalf("Normalize(a(:c:)b) = %q; want %q", got, "a b")
	}
}

func TestNormalizeKeepsStringsVerbatim(t *testing.T) {
	src := `concat("two  spaces", 'it''s', "a (: not a comment :) b")`
	got := Normalize(src)
	for _, lit := range []string{`"two  spaces"`, `'it''s'`, `"a (: not a comment :) b"`} {
		if !strings.Contains(got, lit) {
			t.Fatalf("literal %s altered: %q", lit, got)
		}
	}
	if Normalize(`"a  b"`) == Normalize(`"a b"`) {
		t.Fatal("distinct string literals share a key")
	}
}

func TestNormalizeStopsAtConstructor(t *testing.T) {
	// constructor content is raw-character-significant: both the
	// whitespace and the "(:" inside must survive byte-for-byte
	tail := "<a>  two  spaces (: literal :) {1+1}</a>"
	src := "declare   function f:mk() {   " + tail
	got := Normalize(src)
	if !strings.Contains(got, tail) {
		t.Fatalf("constructor tail altered:\n src=%q\n got=%q", src, got)
	}
	// whitespace after the first constructor must NOT collapse
	a := "1, <a>x</a>,   <b>y</b>"
	b := "1, <a>x</a>, <b>y</b>"
	if Normalize(a) == Normalize(b) {
		t.Fatal("post-constructor text was normalized")
	}
}

func TestNormalizeLessThanIsNotConstructor(t *testing.T) {
	// '<' before a space or digit is a comparison and normalizes fine
	a := "if (1 <   2) then 1 else 2"
	b := "if (1 < 2) then 1 else 2"
	if Normalize(a) != Normalize(b) {
		t.Fatalf("comparison variants differ: %q vs %q", Normalize(a), Normalize(b))
	}
}

func TestNormalizeTrimsEnds(t *testing.T) {
	if got := Normalize("  \n 1 + 1 \t(: tail :) "); got != "1+1" {
		t.Fatalf("Normalize = %q; want %q", got, "1+1")
	}
	if got := Normalize(""); got != "" {
		t.Fatalf("Normalize(empty) = %q", got)
	}
}

// semantics-preservation spot check: normalized text of a comment-free,
// constructor-free module still parses to the same shape
func TestNormalizedSourceStillParses(t *testing.T) {
	src := "module namespace f = \"urn:f\";\ndeclare function f:q($d) { for $x in $d//item return $x };"
	if _, err := Parse(src); err != nil {
		t.Fatalf("fixture does not parse: %v", err)
	}
	if _, err := Parse(Normalize(src)); err != nil {
		t.Fatalf("normalized source does not parse: %v\n%q", err, Normalize(src))
	}
}

// FuzzParse: any input parses or fails without a panic, and a text that
// parses parses to the same AST from its Normalize key — the plan
// caches' bar: one key never stands for two programs.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		`-3 cast as xs:string`, `let $x := 3 return -$x instance of xs:integer`, `() castable as xs:integer?`,
		`1 or 2 and 3 = 4 to 5 + 6 * 7 | 8 instance of xs:integer* castable as xs:boolean cast as xs:string?`,
		`for $a at $i in (1, 2) let $b := $a where $a eq 1 order by $b descending return $a div 2`,
		`some $x in //a[@n = 1]/b satisfies $x/.. is $x << $x`,
		`typeswitch (1) case $i as xs:integer return $i default return -1`,
		`module namespace m = "urn:m"; declare updating function m:f($x as node()) { delete node $x };`,
		`import module namespace b = "urn:b" at "b.xq"; execute at {"xrpc://p"} {b:f(1, "a (: b :)")}`,
		"if (1 (: c :) <\n2) then <a b=\"{1}\">{2}</a> else element {\"e\"} {text {3}}",
		`insert node <a/> as last into $d, replace value of node $d with 1, rename node $d as "e"`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Parse(src) // must not panic
		if err != nil {
			return
		}
		n, err := Parse(Normalize(src))
		if err != nil {
			t.Fatalf("%q parses, its key %q does not: %v", src, Normalize(src), err)
		}
		if !reflect.DeepEqual(m, n) {
			t.Fatalf("%q and its key %q parse to different programs", src, Normalize(src))
		}
	})
}
