package xq

import (
	"strings"

	"xrpc/internal/xdm"
)

// Expr is an XQuery expression AST node.
type Expr interface{ exprNode() }

// StringLit is a string literal.
type StringLit struct{ Val string }

// IntLit is an xs:integer literal.
type IntLit struct{ Val int64 }

// DecimalLit is an xs:decimal literal.
type DecimalLit struct{ Val float64 }

// DoubleLit is an xs:double literal.
type DoubleLit struct{ Val float64 }

// VarRef references a bound variable ($name).
type VarRef struct{ Name string }

// ContextItem is the "." expression.
type ContextItem struct{}

// SeqExpr is the comma operator: concatenation of sub-sequences.
type SeqExpr struct{ Items []Expr }

// EmptySeq is "()".
type EmptySeq struct{}

// RangeExpr is "Lo to Hi".
type RangeExpr struct{ Lo, Hi Expr }

// Arith is an arithmetic expression (+ - * div idiv mod).
type Arith struct {
	Op   string
	L, R Expr
}

// Unary is unary minus (Neg) or plus.
type Unary struct {
	Neg bool
	X   Expr
}

// Comparison covers value comparisons (eq ne lt le gt ge), general
// comparisons (= != < <= > >=) and node comparisons (is << >>).
type Comparison struct {
	Op      string
	General bool
	Node    bool
	L, R    Expr
}

// Logic is "and" / "or".
type Logic struct {
	Op   string
	L, R Expr
}

// UnionExpr is "|" / "union" between node sequences.
type UnionExpr struct{ L, R Expr }

// If is if (C) then T else E.
type If struct{ Cond, Then, Else Expr }

// ForClause is one "for $v [at $p] in E" binding of a FLWOR.
type ForClause struct {
	Var    string
	PosVar string // "" when absent
	In     Expr
}

// LetClause is one "let $v := E" binding.
type LetClause struct {
	Var string
	Val Expr
}

// FLWORClause is a for or let clause.
type FLWORClause interface{ flworClause() }

func (*ForClause) flworClause() {}
func (*LetClause) flworClause() {}

// OrderSpec is one "order by" key.
type OrderSpec struct {
	Key        Expr
	Descending bool
}

// FLWOR is a for/let/where/order by/return expression.
type FLWOR struct {
	Clauses []FLWORClause
	Where   Expr // nil when absent
	OrderBy []OrderSpec
	Return  Expr
}

// Quantified is "some/every $v in E satisfies P".
type Quantified struct {
	Every     bool
	Var       string
	In        Expr
	Satisfies Expr
}

// Step is one axis step of a path, with predicates.
type Step struct {
	Axis  xdm.Axis
	Test  xdm.NodeTest
	Preds []Expr
}

// Path is a path expression: an optional root expression (nil means the
// path is rooted at "/" or the context item), followed by steps. Filter
// is the primary-expression-with-predicates form.
type Path struct {
	Root      Expr // nil: rooted per FromRoot
	FromRoot  bool // leading "/" or "//"
	DescRoot  bool // leading "//" (implicit descendant-or-self::node())
	Steps     []Step
	RootPreds []Expr // predicates applied to Root before steps (filter expr)
}

// FuncCall is a (possibly prefixed) static function call.
type FuncCall struct {
	Name string
	Args []Expr
}

// ExecuteAt is the XRPC extension: execute at {Dest} {Call}.
type ExecuteAt struct {
	Dest Expr
	Call *FuncCall
}

// DirAttr is an attribute in a direct element constructor; the value is
// a concatenation of string literals and enclosed expressions.
type DirAttr struct {
	Name  string
	Value []Expr
}

// DirElem is a direct element constructor <name attr="...">content</name>.
// Content items are StringLit (literal text), nested DirElem, or
// arbitrary enclosed expressions.
type DirElem struct {
	Name    string
	Attrs   []DirAttr
	Content []Expr
}

// Enclosed marks an enclosed expression { E } inside constructor content,
// whose sequence value is inserted with space-separated atomics.
type Enclosed struct{ X Expr }

// CompElem is a computed element constructor: element {name} {content}.
type CompElem struct {
	Name    Expr
	Content Expr
}

// CompAttr is a computed attribute constructor.
type CompAttr struct {
	Name  Expr
	Value Expr
}

// CompText is a computed text node constructor: text {E}.
type CompText struct{ Val Expr }

// TypeswitchCase is one "case [$var as] SequenceType return Expr" branch.
type TypeswitchCase struct {
	Var  string // optional binding variable ("" when absent)
	Type SeqType
	Ret  Expr
}

// Typeswitch is "typeswitch (E) case ... default [$var] return Expr".
type Typeswitch struct {
	Operand    Expr
	Cases      []TypeswitchCase
	DefaultVar string
	Default    Expr
}

// Cast is "E cast as T", or "E cast as T?" when Optional.
type Cast struct {
	X        Expr
	Type     string
	Optional bool
}

// Castable is "E castable as T", or "E castable as T?" when Optional.
type Castable struct {
	X        Expr
	Type     string
	Optional bool
}

// InstanceOf is "E instance of T" (occurrence-aware, simple types only).
type InstanceOf struct {
	X    Expr
	Type SeqType
}

// InsertPos says where "insert node" places the new nodes.
type InsertPos int

// Insert positions.
const (
	InsertInto InsertPos = iota
	InsertAsFirst
	InsertAsLast
	InsertBefore
	InsertAfter
)

// Insert is the XQUF "insert node(s) Source ... Target" expression.
type Insert struct {
	Source Expr
	Pos    InsertPos
	Target Expr
}

// Delete is the XQUF "delete node(s) Target" expression.
type Delete struct{ Target Expr }

// Replace is the XQUF "replace [value of] node Target with Source".
type Replace struct {
	ValueOf bool
	Target  Expr
	Source  Expr
}

// Rename is the XQUF "rename node Target as NewName".
type Rename struct {
	Target  Expr
	NewName Expr
}

func (*StringLit) exprNode()   {}
func (*IntLit) exprNode()      {}
func (*DecimalLit) exprNode()  {}
func (*DoubleLit) exprNode()   {}
func (*VarRef) exprNode()      {}
func (*ContextItem) exprNode() {}
func (*SeqExpr) exprNode()     {}
func (*EmptySeq) exprNode()    {}
func (*RangeExpr) exprNode()   {}
func (*Arith) exprNode()       {}
func (*Unary) exprNode()       {}
func (*Comparison) exprNode()  {}
func (*Logic) exprNode()       {}
func (*UnionExpr) exprNode()   {}
func (*If) exprNode()          {}
func (*FLWOR) exprNode()       {}
func (*Quantified) exprNode()  {}
func (*Path) exprNode()        {}
func (*FuncCall) exprNode()    {}
func (*ExecuteAt) exprNode()   {}
func (*DirElem) exprNode()     {}
func (*Enclosed) exprNode()    {}
func (*CompElem) exprNode()    {}
func (*CompAttr) exprNode()    {}
func (*CompText) exprNode()    {}
func (*Cast) exprNode()        {}
func (*Typeswitch) exprNode()  {}
func (*Castable) exprNode()    {}
func (*InstanceOf) exprNode()  {}
func (*Insert) exprNode()      {}
func (*Delete) exprNode()      {}
func (*Replace) exprNode()     {}
func (*Rename) exprNode()      {}

// SeqType is a sequence type: an item type name plus occurrence
// indicator. Occurrence is one of '1', '?', '*', '+'; Empty means
// "empty-sequence()".
type SeqType struct {
	TypeName   string // "xs:string", "node()", "element()", "item()", ...
	Occurrence byte
	Empty      bool
}

// String renders the sequence type in XQuery syntax.
func (t SeqType) String() string {
	if t.Empty {
		return "empty-sequence()"
	}
	if t.Occurrence == '1' || t.Occurrence == 0 {
		return t.TypeName
	}
	return t.TypeName + string(t.Occurrence)
}

// Param is a declared function parameter.
type Param struct {
	Name string
	Type SeqType
}

// FuncDecl is a user-defined function declaration.
type FuncDecl struct {
	Name     string // prefixed QName as written
	Params   []Param
	Return   SeqType
	Updating bool
	External bool
	Body     Expr
}

// Arity returns the number of parameters.
func (f *FuncDecl) Arity() int { return len(f.Params) }

// LocalName returns the name without its prefix.
func (f *FuncDecl) LocalName() string { return LocalOf(f.Name) }

// VarDecl is a prolog variable declaration.
type VarDecl struct {
	Name string
	Type SeqType
	Val  Expr
}

// ModuleImport records "import module namespace p = uri at hint".
type ModuleImport struct {
	Prefix  string
	URI     string
	AtHints []string
}

// Module is a parsed query or library module.
type Module struct {
	IsLibrary    bool
	ModulePrefix string // library modules: declared prefix
	ModuleURI    string // library modules: target namespace
	Namespaces   map[string]string
	Options      map[string]string // e.g. "xrpc:isolation" -> "repeatable"
	Imports      []ModuleImport
	Variables    []*VarDecl
	Functions    []*FuncDecl
	Body         Expr // nil for library modules
}

// Function finds a declared function by local or prefixed name and arity.
func (m *Module) Function(name string, arity int) *FuncDecl {
	for _, f := range m.Functions {
		if f.Arity() != arity {
			continue
		}
		if f.Name == name || f.LocalName() == LocalOf(name) {
			return f
		}
	}
	return nil
}

// LocalOf strips the prefix off a QName ("fn:doc" → "doc").
func LocalOf(name string) string {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[i+1:]
	}
	return name
}
