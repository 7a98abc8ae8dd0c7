package xdm

import (
	"strings"
	"testing"
)

func TestSerializeSpecialNodes(t *testing.T) {
	c := NewComment("a comment")
	if got := SerializeNode(c); got != "<!--a comment-->" {
		t.Errorf("comment = %q", got)
	}
	pi := NewPI("target", "data here")
	if got := SerializeNode(pi); got != "<?target data here?>" {
		t.Errorf("pi = %q", got)
	}
	pi2 := NewPI("t", "")
	if got := SerializeNode(pi2); got != "<?t?>" {
		t.Errorf("empty pi = %q", got)
	}
	a := NewAttribute("k", `v"1`)
	if got := SerializeNode(a); got != `k="v&quot;1"` {
		t.Errorf("attr = %q", got)
	}
}

func TestCastEdgeCases(t *testing.T) {
	// INF/NaN doubles
	if v, err := CastAtomic(String("INF"), "xs:double"); err != nil || v.StringValue() != "INF" {
		t.Errorf("INF cast = %v, %v", v, err)
	}
	if v, err := CastAtomic(String("-INF"), "xs:double"); err != nil || v.StringValue() != "-INF" {
		t.Errorf("-INF cast = %v, %v", v, err)
	}
	if v, err := CastAtomic(String("NaN"), "xs:double"); err != nil || v.StringValue() != "NaN" {
		t.Errorf("NaN cast = %v, %v", v, err)
	}
	// NaN to integer fails
	nan, _ := CastAtomic(String("NaN"), "xs:double")
	if _, err := CastAtomic(nan, "xs:integer"); err == nil {
		t.Error("NaN->integer must fail")
	}
	// boolean casts
	for s, want := range map[string]bool{"true": true, "1": true, "false": false, "0": false} {
		v, err := CastAtomic(String(s), "xs:boolean")
		if err != nil || bool(v.(Boolean)) != want {
			t.Errorf("boolean(%q) = %v, %v", s, v, err)
		}
	}
	if _, err := CastAtomic(String("maybe"), "xs:boolean"); err == nil {
		t.Error("boolean('maybe') must fail")
	}
	// unsupported target
	if _, err := CastAtomic(String("x"), "xs:dateTime"); err == nil {
		t.Error("unsupported type must fail")
	}
	// decimal/double numeric conversions
	if v, _ := CastAtomic(Integer(3), "xs:decimal"); v.(Decimal) != 3 {
		t.Errorf("int->decimal = %v", v)
	}
	if v, _ := CastAtomic(Decimal(2.5), "xs:double"); v.(Double) != 2.5 {
		t.Errorf("decimal->double = %v", v)
	}
	if v, _ := CastAtomic(Boolean(true), "xs:integer"); v.(Integer) != 1 {
		t.Errorf("true->integer = %v", v)
	}
	// node atomization inside cast
	doc := mustParse(t, "<n>12</n>")
	if v, err := CastAtomic(doc.Children()[0], "xs:integer"); err != nil || v.(Integer) != 12 {
		t.Errorf("node->integer = %v, %v", v, err)
	}
}

func TestCompareBooleans(t *testing.T) {
	lt, err := CompareAtomic(Boolean(false), Boolean(true), OpLt)
	if err != nil || !lt {
		t.Errorf("false < true: %v %v", lt, err)
	}
	eq, _ := CompareAtomic(Boolean(true), Boolean(true), OpEq)
	if !eq {
		t.Error("true eq true")
	}
	// untyped vs boolean
	ok, err := CompareAtomic(Untyped("true"), Boolean(true), OpEq)
	if err != nil || !ok {
		t.Errorf("untyped true = true: %v %v", ok, err)
	}
}

func TestCompareOpString(t *testing.T) {
	names := map[CompareOp]string{
		OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	}
	for op, want := range names {
		if op.String() != want {
			t.Errorf("%d = %q", op, op.String())
		}
	}
}

func TestNodeKindStrings(t *testing.T) {
	kinds := []NodeKind{DocumentNode, ElementNode, AttributeNode, TextNode, CommentNode, PINode}
	for _, k := range kinds {
		if k.String() == "" || !strings.Contains(k.String(), "(") {
			t.Errorf("kind %d name = %q", k, k.String())
		}
	}
}

func TestAxisStrings(t *testing.T) {
	axes := []Axis{
		AxisChild, AxisDescendant, AxisDescendantOrSelf, AxisAttribute,
		AxisSelf, AxisParent, AxisAncestor, AxisAncestorOrSelf,
		AxisFollowingSibling, AxisPrecedingSibling, AxisFollowing, AxisPreceding,
	}
	seen := map[string]bool{}
	for _, a := range axes {
		name := a.String()
		if name == "" || seen[name] {
			t.Errorf("axis %d name %q duplicate/empty", a, name)
		}
		seen[name] = true
	}
	if !AxisParent.Reverse() || AxisChild.Reverse() {
		t.Error("reverse axis classification wrong")
	}
}

func TestAncestorOrSelfAndSelfAxes(t *testing.T) {
	doc := mustParse(t, `<a><b><c/></b></a>`)
	c := Step(doc, AxisDescendant, NodeTest{Name: "c"})[0]
	aos := Step(c, AxisAncestorOrSelf, NodeTest{KindTest: true, AnyKind: true})
	if len(aos) != 4 { // c, b, a, document
		t.Errorf("ancestor-or-self = %d", len(aos))
	}
	self := Step(c, AxisSelf, NodeTest{Name: "c"})
	if len(self) != 1 {
		t.Errorf("self = %d", len(self))
	}
	if got := Step(c, AxisSelf, NodeTest{Name: "b"}); len(got) != 0 {
		t.Errorf("self with wrong name = %d", len(got))
	}
}

func TestDeepEqualMixedKinds(t *testing.T) {
	a := mustParse(t, `<x><!--c--><y/></x>`)
	b := mustParse(t, `<x><y/></x>`)
	// comments are ignored at element level
	if !DeepEqual(Sequence{a.Children()[0]}, Sequence{b.Children()[0]}) {
		t.Error("comments should be ignored by deep-equal")
	}
	// kind mismatch
	txt := NewText("x")
	txt.Seal()
	cm := NewComment("x")
	cm.Seal()
	if DeepEqual(Sequence{txt}, Sequence{cm}) {
		t.Error("text vs comment must differ")
	}
	// atomic vs node
	if DeepEqual(Sequence{String("x")}, Sequence{txt}) {
		t.Error("atomic vs node must differ")
	}
}

func TestEffectiveBooleanErrors(t *testing.T) {
	if _, err := EffectiveBoolean(Sequence{String("a"), String("b")}); err == nil {
		t.Error("multi-atomic EBV must error")
	}
}

func TestErrorFormatting(t *testing.T) {
	e := NewError("XPTY0004", "type mismatch")
	if !strings.Contains(e.Error(), "err:XPTY0004") {
		t.Errorf("error = %q", e.Error())
	}
	e2 := Errorf("FORG0001", "bad %q", "value")
	if !strings.Contains(e2.Error(), `"value"`) {
		t.Errorf("errorf = %q", e2.Error())
	}
}

func TestSequenceString(t *testing.T) {
	doc := mustParse(t, "<a/>")
	s := Sequence{String("x"), Integer(3), doc.Children()[0]}
	out := s.String()
	if !strings.Contains(out, `"x"`) || !strings.Contains(out, "3") || !strings.Contains(out, "<a>") {
		t.Errorf("debug string = %q", out)
	}
}

func TestNumericValueFromUntyped(t *testing.T) {
	if f, ok := NumericValue(Untyped(" 42.5 ")); !ok || f != 42.5 {
		t.Errorf("untyped numeric = %v %v", f, ok)
	}
	if _, ok := NumericValue(Untyped("abc")); ok {
		t.Error("abc should not be numeric")
	}
	if _, ok := NumericValue(String("3")); ok {
		t.Error("xs:string is not numeric without cast")
	}
}

func TestConcatSequences(t *testing.T) {
	got := Concat(Sequence{Integer(1)}, nil, Sequence{Integer(2), Integer(3)})
	if len(got) != 3 {
		t.Errorf("concat = %v", got)
	}
}

func TestSetDocURI(t *testing.T) {
	doc := mustParse(t, "<a/>")
	clone := doc.Clone()
	if clone.DocURI() != "" {
		t.Errorf("clone uri = %q", clone.DocURI())
	}
	clone.SetDocURI("new.xml")
	if clone.DocURI() != "new.xml" {
		t.Errorf("set uri = %q", clone.DocURI())
	}
	if clone.Children()[0].DocURI() != "new.xml" {
		t.Error("children must share the tree uri")
	}
}
