package xq

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// exprNodes is one value of every AST node; TestWalkVisitsEveryExprField
// holds it against the exprNode() receivers ast.go declares.
var exprNodes = []Expr{
	&StringLit{}, &IntLit{}, &DecimalLit{}, &DoubleLit{}, &VarRef{}, &ContextItem{}, &SeqExpr{}, &EmptySeq{},
	&RangeExpr{}, &Arith{}, &Unary{}, &Comparison{}, &Logic{}, &UnionExpr{}, &If{}, &FLWOR{}, &Quantified{},
	&Path{}, &FuncCall{}, &ExecuteAt{}, &DirElem{}, &Enclosed{}, &CompElem{}, &CompAttr{}, &CompText{},
	&Cast{}, &Typeswitch{}, &Castable{}, &InstanceOf{}, &Insert{}, &Delete{}, &Replace{}, &Rename{},
}

var (
	exprType   = reflect.TypeOf((*Expr)(nil)).Elem()
	clauseType = reflect.TypeOf((*FLWORClause)(nil)).Elem()
)

// plant puts a fresh sentinel in every expression-typed place below v —
// an Expr field, each element of a one-element slice, the fields of a
// nested struct or of a node a pointer field refers to (execute at's
// call), both kinds of FLWOR clause — and returns the sentinels planted.
func plant(v reflect.Value, planted *[]*VarRef) {
	switch t := v.Type(); {
	case t == exprType:
		s := &VarRef{Name: fmt.Sprintf("sentinel%d", len(*planted))}
		*planted = append(*planted, s)
		v.Set(reflect.ValueOf(s))
	case t == clauseType:
		panic("a FLWORClause outside a slice")
	case t.Kind() == reflect.Slice && t.Elem() == clauseType:
		clauses := []FLWORClause{&ForClause{Var: "f", PosVar: "p"}, &LetClause{Var: "l"}}
		for _, c := range clauses {
			plant(reflect.ValueOf(c).Elem(), planted)
		}
		v.Set(reflect.ValueOf(clauses))
	case t.Kind() == reflect.Slice:
		v.Set(reflect.MakeSlice(t, 1, 1))
		plant(v.Index(0), planted)
	case t.Kind() == reflect.Pointer && t.Elem().Kind() == reflect.Struct:
		v.Set(reflect.New(t.Elem()))
		plant(v.Elem(), planted)
	case t.Kind() == reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			plant(v.Field(i), planted)
		}
	}
}

// TestWalkVisitsEveryExprField is the guard that keeps Walk the complete
// traversal: every type ast.go gives an exprNode() method must be in
// exprNodes, and Walk must reach a sentinel planted in each of its
// expression-typed fields. A node added to the AST and not to Walk fails
// here, before any analysis built on Walk can miss it.
func TestWalkVisitsEveryExprField(t *testing.T) {
	file, err := goparser.ParseFile(token.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "exprNode" || fd.Recv == nil {
			continue
		}
		recv := fd.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		declared = append(declared, recv.(*ast.Ident).Name)
	}
	var listed []string
	for _, n := range exprNodes {
		listed = append(listed, reflect.TypeOf(n).Elem().Name())
	}
	sort.Strings(declared)
	sort.Strings(listed)
	if !slices.Equal(declared, listed) {
		t.Fatalf("ast.go declares the nodes\n  %v\nexprNodes lists\n  %v", declared, listed)
	}

	for _, n := range exprNodes {
		name := reflect.TypeOf(n).Elem().Name()
		var planted []*VarRef
		plant(reflect.ValueOf(n).Elem(), &planted)
		visited := map[Expr]bool{}
		self := 0
		Walk(n, nil, func(x Expr, _ map[string]bool) {
			visited[x] = true
			if x == n {
				self++
			}
		})
		if self != 1 {
			t.Errorf("%s: Walk visited the node itself %d times", name, self)
		}
		for _, s := range planted {
			if !visited[s] {
				t.Errorf("%s: Walk does not reach %s of %+v", name, s.Name, n)
			}
		}
		if len(visited) != 1+len(planted) {
			t.Errorf("%s: Walk visited %d expressions, want the node and its %d sentinels", name, len(visited), len(planted))
		}
	}
}

// TestWalkBinders: the bound set a visitor sees is what the enclosing
// clauses inside the walked expression bind at that point, on top of
// what the caller passed — a for's range does not see its own variable,
// a typeswitch branch sees only its own.
func TestWalkBinders(t *testing.T) {
	e := mustParseExpr(t, `for $a at $i in $r1, $b in $r2 let $c := $r3 where $w order by $o return
		(some $q in $r4 satisfies $s,
		 typeswitch ($r5) case $t as xs:string return $ct default $z return $cd,
		 $x[$pred])`)
	seen := map[string]string{}
	Walk(e, map[string]bool{"outer": true}, func(x Expr, bound map[string]bool) {
		if v, ok := x.(*VarRef); ok {
			var names []string
			for n := range bound {
				names = append(names, n)
			}
			sort.Strings(names)
			seen[v.Name] = strings.Join(names, " ")
		}
	})
	body := "a b c i outer"
	for name, want := range map[string]string{
		"r1": "outer", "r2": "a i outer", "r3": "a b i outer", "w": body, "o": body,
		"r4": body, "s": body + " q", "r5": body, "ct": body + " t", "cd": body + " z", "x": body, "pred": body,
	} {
		if seen[name] != want {
			t.Errorf("$%s visited with %q bound, want %q", name, seen[name], want)
		}
	}
}
