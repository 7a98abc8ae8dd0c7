package xq

import (
	"slices"
	"strconv"
	"strings"

	"xrpc/internal/xdm"
)

// Parse parses a complete XQuery main module or library module.
func Parse(src string) (*Module, error) {
	p := &parser{lex: &lexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	m, err := p.parseModule()
	if err != nil {
		return nil, err
	}
	return m, nil
}

// ParseExpr parses a single expression (no prolog).
func ParseExpr(src string) (Expr, error) {
	p := &parser{lex: &lexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != TokEOF {
		return nil, p.errorf("unexpected %s after expression", p.tok)
	}
	return e, nil
}

type parser struct {
	lex    *lexer
	tok    Token
	peeked *Token
}

func (p *parser) errorf(format string, args ...any) error {
	return p.lex.errorf(p.tok.Pos, format, args...)
}

func (p *parser) advance() error {
	if p.peeked != nil {
		p.tok = *p.peeked
		p.peeked = nil
		return nil
	}
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// peek returns the token after the current one without consuming it.
func (p *parser) peek() (Token, error) {
	if p.peeked == nil {
		t, err := p.lex.next()
		if err != nil {
			return Token{}, err
		}
		p.peeked = &t
	}
	return *p.peeked, nil
}

// expect consumes the current token if it matches text, else errors.
func (p *parser) expect(text string) error {
	if !p.tok.Is(text) {
		return p.errorf("expected %q, found %s", text, p.tok)
	}
	return p.advance()
}

// accept consumes the token if it matches, reporting whether it did.
func (p *parser) accept(text string) (bool, error) {
	if p.tok.Is(text) {
		return true, p.advance()
	}
	return false, nil
}

// ---------------------------------------------------------------- prolog

func (p *parser) parseModule() (*Module, error) {
	m := &Module{
		Namespaces: map[string]string{
			"xs":    "http://www.w3.org/2001/XMLSchema",
			"fn":    "http://www.w3.org/2005/xpath-functions",
			"xrpc":  "http://monetdb.cwi.nl/XQuery",
			"local": "http://www.w3.org/2005/xquery-local-functions",
		},
		Options: map[string]string{},
	}
	// optional version declaration
	if p.tok.Is("xquery") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect("version"); err != nil {
			return nil, err
		}
		if p.tok.Kind != TokString {
			return nil, p.errorf("expected version string")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	// module declaration (library module)
	if p.tok.Is("module") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect("namespace"); err != nil {
			return nil, err
		}
		prefix := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		if p.tok.Kind != TokString {
			return nil, p.errorf("expected namespace URI string")
		}
		m.IsLibrary = true
		m.ModulePrefix = prefix
		m.ModuleURI = p.tok.Text
		m.Namespaces[prefix] = p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	// prolog declarations
	for {
		switch {
		case p.tok.Is("declare"):
			if err := p.parseDeclare(m); err != nil {
				return nil, err
			}
		case p.tok.Is("import"):
			if err := p.parseImport(m); err != nil {
				return nil, err
			}
		default:
			goto body
		}
	}
body:
	if m.IsLibrary {
		if p.tok.Kind != TokEOF {
			return nil, p.errorf("library module cannot have a body (found %s)", p.tok)
		}
		return m, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != TokEOF {
		return nil, p.errorf("unexpected %s after query body", p.tok)
	}
	m.Body = e
	return m, nil
}

func (p *parser) parseDeclare(m *Module) error {
	if err := p.advance(); err != nil { // consume "declare"
		return err
	}
	switch {
	case p.tok.Is("namespace"):
		if err := p.advance(); err != nil {
			return err
		}
		prefix := p.tok.Text
		if err := p.advance(); err != nil {
			return err
		}
		if err := p.expect("="); err != nil {
			return err
		}
		if p.tok.Kind != TokString {
			return p.errorf("expected namespace URI string")
		}
		m.Namespaces[prefix] = p.tok.Text
		if err := p.advance(); err != nil {
			return err
		}
		return p.expect(";")
	case p.tok.Is("option"):
		if err := p.advance(); err != nil {
			return err
		}
		name := p.tok.Text
		if p.tok.Kind != TokName {
			return p.errorf("expected option name")
		}
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.Kind != TokString {
			return p.errorf("expected option value string")
		}
		m.Options[name] = p.tok.Text
		if err := p.advance(); err != nil {
			return err
		}
		return p.expect(";")
	case p.tok.Is("variable"):
		if err := p.advance(); err != nil {
			return err
		}
		if err := p.expect("$"); err != nil {
			return err
		}
		v := &VarDecl{Name: p.tok.Text, Type: SeqType{TypeName: "item()", Occurrence: '*'}}
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.Is("as") {
			if err := p.advance(); err != nil {
				return err
			}
			t, err := p.parseSeqType()
			if err != nil {
				return err
			}
			v.Type = t
		}
		if err := p.expect(":="); err != nil {
			return err
		}
		e, err := p.parseExprSingle()
		if err != nil {
			return err
		}
		v.Val = e
		m.Variables = append(m.Variables, v)
		return p.expect(";")
	case p.tok.Is("updating"), p.tok.Is("function"):
		updating := false
		if p.tok.Is("updating") {
			updating = true
			if err := p.advance(); err != nil {
				return err
			}
		}
		if err := p.expect("function"); err != nil {
			return err
		}
		f, err := p.parseFunctionDecl(updating)
		if err != nil {
			return err
		}
		m.Functions = append(m.Functions, f)
		return p.expect(";")
	case p.tok.Is("boundary-space"), p.tok.Is("default"), p.tok.Is("base-uri"),
		p.tok.Is("construction"), p.tok.Is("ordering"), p.tok.Is("copy-namespaces"):
		// recognized-but-ignored setters: skip to ';'
		for !p.tok.Is(";") && p.tok.Kind != TokEOF {
			if err := p.advance(); err != nil {
				return err
			}
		}
		return p.expect(";")
	default:
		return p.errorf("unsupported declaration 'declare %s'", p.tok)
	}
}

func (p *parser) parseImport(m *Module) error {
	if err := p.advance(); err != nil { // consume "import"
		return err
	}
	if !p.tok.Is("module") {
		return p.errorf("only 'import module' is supported, found %s", p.tok)
	}
	if err := p.advance(); err != nil {
		return err
	}
	if err := p.expect("namespace"); err != nil {
		return err
	}
	imp := ModuleImport{Prefix: p.tok.Text}
	if err := p.advance(); err != nil {
		return err
	}
	if err := p.expect("="); err != nil {
		return err
	}
	if p.tok.Kind != TokString {
		return p.errorf("expected module URI string")
	}
	imp.URI = p.tok.Text
	if err := p.advance(); err != nil {
		return err
	}
	if p.tok.Is("at") {
		if err := p.advance(); err != nil {
			return err
		}
		for {
			if p.tok.Kind != TokString {
				return p.errorf("expected location hint string")
			}
			imp.AtHints = append(imp.AtHints, p.tok.Text)
			if err := p.advance(); err != nil {
				return err
			}
			if ok, err := p.accept(","); err != nil {
				return err
			} else if !ok {
				break
			}
		}
	}
	m.Namespaces[imp.Prefix] = imp.URI
	m.Imports = append(m.Imports, imp)
	return p.expect(";")
}

func (p *parser) parseFunctionDecl(updating bool) (*FuncDecl, error) {
	f := &FuncDecl{Updating: updating, Return: SeqType{TypeName: "item()", Occurrence: '*'}}
	if p.tok.Kind != TokName {
		return nil, p.errorf("expected function name")
	}
	f.Name = p.tok.Text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	for !p.tok.Is(")") {
		if err := p.expect("$"); err != nil {
			return nil, err
		}
		prm := Param{Name: p.tok.Text, Type: SeqType{TypeName: "item()", Occurrence: '*'}}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.Is("as") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			t, err := p.parseSeqType()
			if err != nil {
				return nil, err
			}
			prm.Type = t
		}
		f.Params = append(f.Params, prm)
		if ok, err := p.accept(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if p.tok.Is("as") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		t, err := p.parseSeqType()
		if err != nil {
			return nil, err
		}
		f.Return = t
	}
	if p.tok.Is("external") {
		f.External = true
		return f, p.advance()
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	f.Body = body
	if err := p.expect("}"); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *parser) parseSeqType() (SeqType, error) {
	var t SeqType
	if p.tok.Kind != TokName {
		return t, p.errorf("expected type name, found %s", p.tok)
	}
	name := p.tok.Text
	if err := p.advance(); err != nil {
		return t, err
	}
	// kind tests and item() take parentheses
	if p.tok.Is("(") {
		if err := p.advance(); err != nil {
			return t, err
		}
		// allow an optional name inside element(name)/attribute(name)
		if p.tok.Kind == TokName || p.tok.Is("*") {
			if err := p.advance(); err != nil {
				return t, err
			}
		}
		if err := p.expect(")"); err != nil {
			return t, err
		}
		if name == "empty-sequence" {
			t.Empty = true
			return t, nil
		}
		name += "()"
	}
	t.TypeName = name
	t.Occurrence = '1'
	switch {
	case p.tok.Is("?"):
		t.Occurrence = '?'
		return t, p.advance()
	case p.tok.Is("*"):
		t.Occurrence = '*'
		return t, p.advance()
	case p.tok.Is("+"):
		t.Occurrence = '+'
		return t, p.advance()
	}
	return t, nil
}

// parseSingleType parses the target of cast and castable: an atomic type
// name and an optional "?". It takes no other occurrence indicator, so
// "3 cast as xs:integer * 2" multiplies.
func (p *parser) parseSingleType() (SeqType, error) {
	if p.tok.Kind != TokName {
		return SeqType{}, p.errorf("expected type name, found %s", p.tok)
	}
	t := SeqType{TypeName: p.tok.Text, Occurrence: '1'}
	if err := p.advance(); err != nil {
		return t, err
	}
	if p.tok.Is("?") {
		t.Occurrence = '?'
		return t, p.advance()
	}
	return t, nil
}

// ------------------------------------------------------------- expressions

func (p *parser) parseExpr() (Expr, error) {
	first, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if !p.tok.Is(",") {
		return first, nil
	}
	items := []Expr{first}
	for p.tok.Is(",") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		items = append(items, e)
	}
	return &SeqExpr{Items: items}, nil
}

// A keywordExpr is how a keyword opens an ExprSingle that is not an
// operator expression: one of next must follow it ("for $", "if ("),
// else the keyword is a name test.
type keywordExpr struct {
	next  []string
	parse func(*parser) (Expr, error)
}

var keywordExprs map[string]keywordExpr

func init() {
	flwor := keywordExpr{[]string{"$"}, (*parser).parseFLWOR}
	quantified := keywordExpr{[]string{"$"}, (*parser).parseQuantified}
	update := keywordExpr{[]string{"node", "nodes", "value"}, (*parser).parseUpdateExpr}
	keywordExprs = map[string]keywordExpr{
		"for": flwor, "let": flwor, "some": quantified, "every": quantified,
		"insert": update, "delete": update, "replace": update, "rename": update,
		"if":         {[]string{"("}, (*parser).parseIf},
		"typeswitch": {[]string{"("}, (*parser).parseTypeswitch},
		"execute":    {[]string{"at"}, (*parser).parseExecuteAt},
	}
}

func (p *parser) parseExprSingle() (Expr, error) {
	if kw, ok := keywordExprs[p.tok.Text]; ok && p.tok.Kind == TokName {
		nt, err := p.peek()
		if err != nil {
			return nil, err
		}
		if slices.ContainsFunc(kw.next, nt.Is) {
			return kw.parse(p)
		}
	}
	return p.parseOperand(0)
}

func (p *parser) parseFLWOR() (Expr, error) {
	fl := &FLWOR{}
	for p.tok.Is("for") || p.tok.Is("let") {
		isFor := p.tok.Is("for")
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			if err := p.expect("$"); err != nil {
				return nil, err
			}
			name := p.tok.Text
			if err := p.advance(); err != nil {
				return nil, err
			}
			if isFor {
				fc := &ForClause{Var: name}
				if p.tok.Is("at") {
					if err := p.advance(); err != nil {
						return nil, err
					}
					if err := p.expect("$"); err != nil {
						return nil, err
					}
					fc.PosVar = p.tok.Text
					if err := p.advance(); err != nil {
						return nil, err
					}
				}
				// optional type annotation, ignored for binding
				if p.tok.Is("as") {
					if err := p.advance(); err != nil {
						return nil, err
					}
					if _, err := p.parseSeqType(); err != nil {
						return nil, err
					}
				}
				if err := p.expect("in"); err != nil {
					return nil, err
				}
				in, err := p.parseExprSingle()
				if err != nil {
					return nil, err
				}
				fc.In = in
				fl.Clauses = append(fl.Clauses, fc)
			} else {
				lc := &LetClause{Var: name}
				if p.tok.Is("as") {
					if err := p.advance(); err != nil {
						return nil, err
					}
					if _, err := p.parseSeqType(); err != nil {
						return nil, err
					}
				}
				if err := p.expect(":="); err != nil {
					return nil, err
				}
				val, err := p.parseExprSingle()
				if err != nil {
					return nil, err
				}
				lc.Val = val
				fl.Clauses = append(fl.Clauses, lc)
			}
			if ok, err := p.accept(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
	}
	if p.tok.Is("where") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		fl.Where = w
	}
	if p.tok.Is("order") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect("by"); err != nil {
			return nil, err
		}
		for {
			key, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			spec := OrderSpec{Key: key}
			if p.tok.Is("ascending") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			} else if p.tok.Is("descending") {
				spec.Descending = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			fl.OrderBy = append(fl.OrderBy, spec)
			if ok, err := p.accept(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
	}
	if err := p.expect("return"); err != nil {
		return nil, err
	}
	ret, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	fl.Return = ret
	return fl, nil
}

func (p *parser) parseQuantified() (Expr, error) {
	every := p.tok.Is("every")
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p.parseQuantifiedBindings(every)
}

// parseQuantifiedBindings parses "$v in E (, $w in F)* satisfies P". A
// binding list is nested quantifiers — some $v in E, $w in F satisfies P
// is some $v in E satisfies (some $w in F satisfies P), likewise every —
// so the tree holds one Quantified per binding.
func (p *parser) parseQuantifiedBindings(every bool) (Expr, error) {
	q := &Quantified{Every: every}
	if err := p.expect("$"); err != nil {
		return nil, err
	}
	q.Var = p.tok.Text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expect("in"); err != nil {
		return nil, err
	}
	in, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	q.In = in
	more, err := p.accept(",")
	if err != nil {
		return nil, err
	}
	if more {
		q.Satisfies, err = p.parseQuantifiedBindings(every)
	} else if err = p.expect("satisfies"); err == nil {
		q.Satisfies, err = p.parseExprSingle()
	}
	if err != nil {
		return nil, err
	}
	return q, nil
}

func (p *parser) parseIf() (Expr, error) {
	if err := p.advance(); err != nil { // "if"
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect("then"); err != nil {
		return nil, err
	}
	then, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if err := p.expect("else"); err != nil {
		return nil, err
	}
	els, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	return &If{Cond: cond, Then: then, Else: els}, nil
}

// parseTypeswitch parses
// typeswitch (E) (case [$v as] T return E)+ default [$v] return E.
func (p *parser) parseTypeswitch() (Expr, error) {
	if err := p.advance(); err != nil { // "typeswitch"
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	operand, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	ts := &Typeswitch{Operand: operand}
	for p.tok.Is("case") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		var c TypeswitchCase
		if p.tok.Is("$") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			c.Var = p.tok.Text
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expect("as"); err != nil {
				return nil, err
			}
		}
		typ, err := p.parseSeqType()
		if err != nil {
			return nil, err
		}
		c.Type = typ
		if err := p.expect("return"); err != nil {
			return nil, err
		}
		ret, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		c.Ret = ret
		ts.Cases = append(ts.Cases, c)
	}
	if len(ts.Cases) == 0 {
		return nil, p.errorf("typeswitch requires at least one case")
	}
	if err := p.expect("default"); err != nil {
		return nil, err
	}
	if p.tok.Is("$") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		ts.DefaultVar = p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.expect("return"); err != nil {
		return nil, err
	}
	def, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	ts.Default = def
	return ts, nil
}

func (p *parser) parseExecuteAt() (Expr, error) {
	if err := p.advance(); err != nil { // "execute"
		return nil, err
	}
	if err := p.expect("at"); err != nil {
		return nil, err
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	dest, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect("}"); err != nil {
		return nil, err
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	if p.tok.Kind != TokName {
		return nil, p.errorf("execute at requires a function call, found %s", p.tok)
	}
	name := p.tok.Text
	if err := p.advance(); err != nil {
		return nil, err
	}
	call, err := p.parseCallArgs(name)
	if err != nil {
		return nil, err
	}
	if err := p.expect("}"); err != nil {
		return nil, err
	}
	return &ExecuteAt{Dest: dest, Call: call}, nil
}

func (p *parser) parseUpdateExpr() (Expr, error) {
	verb := p.tok.Text
	if err := p.advance(); err != nil {
		return nil, err
	}
	switch verb {
	case "insert":
		if !p.tok.Is("node") && !p.tok.Is("nodes") {
			return nil, p.errorf("expected 'node' or 'nodes'")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		src, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		pos := InsertInto
		switch {
		case p.tok.Is("into"):
			if err := p.advance(); err != nil {
				return nil, err
			}
		case p.tok.Is("as"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			switch {
			case p.tok.Is("first"):
				pos = InsertAsFirst
			case p.tok.Is("last"):
				pos = InsertAsLast
			default:
				return nil, p.errorf("expected 'first' or 'last'")
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expect("into"); err != nil {
				return nil, err
			}
		case p.tok.Is("before"):
			pos = InsertBefore
			if err := p.advance(); err != nil {
				return nil, err
			}
		case p.tok.Is("after"):
			pos = InsertAfter
			if err := p.advance(); err != nil {
				return nil, err
			}
		default:
			return nil, p.errorf("expected into/before/after in insert expression")
		}
		tgt, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		return &Insert{Source: src, Pos: pos, Target: tgt}, nil
	case "delete":
		if !p.tok.Is("node") && !p.tok.Is("nodes") {
			return nil, p.errorf("expected 'node' or 'nodes'")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		tgt, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		return &Delete{Target: tgt}, nil
	case "replace":
		valueOf := false
		if p.tok.Is("value") {
			valueOf = true
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expect("of"); err != nil {
				return nil, err
			}
		}
		if err := p.expect("node"); err != nil {
			return nil, err
		}
		tgt, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		if err := p.expect("with"); err != nil {
			return nil, err
		}
		src, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		return &Replace{ValueOf: valueOf, Target: tgt, Source: src}, nil
	case "rename":
		if err := p.expect("node"); err != nil {
			return nil, err
		}
		tgt, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		if err := p.expect("as"); err != nil {
			return nil, err
		}
		name, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		return &Rename{Target: tgt, NewName: name}, nil
	}
	return nil, p.errorf("unknown update expression %q", verb)
}

// Binding powers of the operator rows, loosest first, in the order of
// XQuery 1.0 Appendix A.4. A prefix - or + takes its operand at
// powUnary, so it binds tighter than every infix row, and a path binds
// tighter still.
const (
	powOr = 1 + iota
	powAnd
	powCompare
	powRange
	powAdd
	powMul
	powUnion
	powInstance
	powCastable
	powCast
	powUnary
	powPath
)

// An infixOp is one row of the operator table. A row with a typ reader
// takes a type after its second keyword kw ("cast as T", "instance of
// T"); every other row takes an operand of a tighter row, so it
// associates to the left unless it is nonAssoc: a nonAssoc row may not
// follow itself ("1 = 2 = 3" is a syntax error, as in XQuery).
type infixOp struct {
	pow      int
	nonAssoc bool
	kw       string
	typ      func(*parser) (SeqType, error)
	node     func(op string, l, r Expr, t SeqType) Expr
}

func logic(op string, l, r Expr, _ SeqType) Expr { return &Logic{Op: op, L: l, R: r} }
func arith(op string, l, r Expr, _ SeqType) Expr { return &Arith{Op: op, L: l, R: r} }

// compare builds a comparison: is, << and >> compare nodes, the named
// operators (eq … ge) compare values, and the symbols are general.
func compare(op string, l, r Expr, _ SeqType) Expr {
	node := op == "is" || op == "<<" || op == ">>"
	return &Comparison{Op: op, General: !node && !isNameStart(op[0]), Node: node, L: l, R: r}
}

var (
	compareOp = infixOp{pow: powCompare, nonAssoc: true, node: compare}
	unionOp   = infixOp{pow: powUnion, node: func(_ string, l, r Expr, _ SeqType) Expr { return &UnionExpr{L: l, R: r} }}
)

// infixOps is the operator table: every infix operator, keyed by its
// first token. intersect, except and treat as are not in it, so they
// stay syntax errors.
var infixOps = map[string]infixOp{
	"or":  {pow: powOr, node: logic},
	"and": {pow: powAnd, node: logic},
	"eq":  compareOp, "ne": compareOp, "lt": compareOp, "le": compareOp, "gt": compareOp, "ge": compareOp,
	"=": compareOp, "!=": compareOp, "<": compareOp, "<=": compareOp, ">": compareOp, ">=": compareOp,
	"is": compareOp, "<<": compareOp, ">>": compareOp,
	"to": {pow: powRange, nonAssoc: true, node: func(_ string, l, r Expr, _ SeqType) Expr { return &RangeExpr{Lo: l, Hi: r} }},
	"+":  {pow: powAdd, node: arith}, "-": {pow: powAdd, node: arith},
	"*": {pow: powMul, node: arith}, "div": {pow: powMul, node: arith}, "idiv": {pow: powMul, node: arith}, "mod": {pow: powMul, node: arith},
	"|": unionOp, "union": unionOp,
	"instance": {pow: powInstance, nonAssoc: true, kw: "of", typ: (*parser).parseSeqType,
		node: func(_ string, l, _ Expr, t SeqType) Expr { return &InstanceOf{X: l, Type: t} }},
	"castable": {pow: powCastable, nonAssoc: true, kw: "as", typ: (*parser).parseSingleType,
		node: func(_ string, l, _ Expr, t SeqType) Expr {
			return &Castable{X: l, Type: t.TypeName, Optional: t.Occurrence == '?'}
		}},
	"cast": {pow: powCast, nonAssoc: true, kw: "as", typ: (*parser).parseSingleType,
		node: func(_ string, l, _ Expr, t SeqType) Expr {
			return &Cast{X: l, Type: t.TypeName, Optional: t.Occurrence == '?'}
		}},
}

// parseOperand parses an operator expression whose infix operators all
// bind tighter than min (min 0: XQuery's OrExpr) by precedence climbing
// over infixOps. last is the power of the row that built left. A looser
// row may follow it, and nothing else may: not a nonAssoc row itself,
// and not a tighter row, which can only come after a type
// ("3 castable as xs:integer cast as xs:string").
func (p *parser) parseOperand(min int) (Expr, error) {
	var left Expr
	var err error
	last := powPath
	if p.tok.Is("-") || p.tok.Is("+") {
		neg := p.tok.Is("-")
		if err := p.advance(); err != nil {
			return nil, err
		}
		if left, err = p.parseOperand(powUnary); err != nil {
			return nil, err
		}
		left, last = &Unary{Neg: neg, X: left}, powUnary
	} else if left, err = p.parsePathExpr(); err != nil {
		return nil, err
	}
	for {
		op, ok := infixOps[p.tok.Text]
		if !ok || p.tok.Kind == TokString || op.pow <= min {
			return left, nil
		}
		if op.pow > last || op.pow == last && op.nonAssoc {
			return nil, p.errorf("%s needs parentheses around its left operand", p.tok)
		}
		text := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		var r Expr
		var t SeqType
		if op.typ == nil {
			r, err = p.parseOperand(op.pow)
		} else if err = p.expect(op.kw); err == nil {
			t, err = op.typ(p)
		}
		if err != nil {
			return nil, err
		}
		left, last = op.node(text, left, r, t), op.pow
	}
}

// ------------------------------------------------------------------ paths

var kindTestNames = map[string]xdm.NodeKind{
	"text":                   xdm.TextNode,
	"comment":                xdm.CommentNode,
	"processing-instruction": xdm.PINode,
	"document-node":          xdm.DocumentNode,
	"element":                xdm.ElementNode,
	"attribute":              xdm.AttributeNode,
}

var axisNames = map[string]xdm.Axis{
	"child":              xdm.AxisChild,
	"descendant":         xdm.AxisDescendant,
	"descendant-or-self": xdm.AxisDescendantOrSelf,
	"attribute":          xdm.AxisAttribute,
	"self":               xdm.AxisSelf,
	"parent":             xdm.AxisParent,
	"ancestor":           xdm.AxisAncestor,
	"ancestor-or-self":   xdm.AxisAncestorOrSelf,
	"following-sibling":  xdm.AxisFollowingSibling,
	"preceding-sibling":  xdm.AxisPrecedingSibling,
	"following":          xdm.AxisFollowing,
	"preceding":          xdm.AxisPreceding,
}

func (p *parser) parsePathExpr() (Expr, error) {
	path := &Path{}
	switch {
	case p.tok.Is("//"):
		path.FromRoot = true
		path.DescRoot = true
		if err := p.advance(); err != nil {
			return nil, err
		}
		path.Steps = append(path.Steps, Step{
			Axis: xdm.AxisDescendantOrSelf,
			Test: xdm.NodeTest{KindTest: true, AnyKind: true},
		})
	case p.tok.Is("/"):
		path.FromRoot = true
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !p.startsStep() && !p.startsPrimary() {
			return path, nil // lone "/"
		}
	}
	if err := p.parseRelativePath(path); err != nil {
		return nil, err
	}
	// collapse trivial paths to the bare primary
	if !path.FromRoot && path.Root != nil && len(path.Steps) == 0 && len(path.RootPreds) == 0 {
		return path.Root, nil
	}
	fuseDescendantSteps(path)
	return path, nil
}

// fuseDescendantSteps rewrites descendant-or-self::node()/child::X into
// descendant::X — the standard // optimization. It is only applied when
// the child step's predicates cannot observe the difference: they must
// be boolean-valued (a numeric predicate selects by position, which is
// per-parent for child::X but global for descendant::X) and must not
// call position() or last().
func fuseDescendantSteps(p *Path) {
	out := p.Steps[:0]
	for i := 0; i < len(p.Steps); i++ {
		st := p.Steps[i]
		if i+1 < len(p.Steps) &&
			st.Axis == xdm.AxisDescendantOrSelf && st.Test.KindTest && st.Test.AnyKind && len(st.Preds) == 0 {
			next := p.Steps[i+1]
			if next.Axis == xdm.AxisChild && fusablePreds(next.Preds) {
				out = append(out, Step{Axis: xdm.AxisDescendant, Test: next.Test, Preds: next.Preds})
				i++
				continue
			}
		}
		out = append(out, st)
	}
	p.Steps = out
}

func fusablePreds(preds []Expr) bool {
	for _, pr := range preds {
		if !boolValued(pr) || usesPosition(pr) {
			return false
		}
	}
	return true
}

// boolValued reports whether the expression always evaluates to a
// boolean (so it cannot act as a positional predicate).
func boolValued(e Expr) bool {
	switch n := e.(type) {
	case *Comparison, *Logic, *Quantified:
		return true
	case *FuncCall:
		switch n.Name {
		case "exists", "empty", "not", "boolean", "contains",
			"starts-with", "ends-with", "true", "false", "deep-equal",
			"fn:exists", "fn:empty", "fn:not", "fn:boolean", "fn:contains",
			"fn:starts-with", "fn:ends-with", "fn:true", "fn:false", "fn:deep-equal":
			return true
		}
	case *Castable, *InstanceOf:
		return true
	}
	return false
}

// usesPosition reports whether position() or last() is called anywhere
// below e — conservatively also in a nested predicate, which has its own
// focus.
func usesPosition(e Expr) bool {
	found := false
	Walk(e, nil, func(x Expr, _ map[string]bool) {
		if c, ok := x.(*FuncCall); ok {
			switch strings.TrimPrefix(c.Name, "fn:") {
			case "position", "last":
				found = true
			}
		}
	})
	return found
}

// startsStep reports whether the current token can begin an axis step.
func (p *parser) startsStep() bool {
	switch {
	case p.tok.Is("@"), p.tok.Is(".."), p.tok.Is("*"):
		return true
	case p.tok.Kind == TokName:
		if reservedExprName(p.tok.Text) {
			return false
		}
		return true
	}
	return false
}

func (p *parser) startsPrimary() bool {
	switch p.tok.Kind {
	case TokString, TokInteger, TokDecimal, TokDouble:
		return true
	case TokSymbol:
		return p.tok.Is("$") || p.tok.Is("(") || p.tok.Is(".") || p.tok.Is("<")
	case TokName:
		return true
	}
	return false
}

// reservedExprName lists names that begin non-path expressions and thus
// cannot start a step: the operators of infixOps and the clause keywords.
func reservedExprName(s string) bool {
	if _, op := infixOps[s]; op {
		return true
	}
	switch s {
	case "return", "then", "else", "in", "satisfies", "where", "order", "by", "at", "as",
		"with", "into", "ascending", "descending":
		return true
	}
	return false
}

func (p *parser) parseRelativePath(path *Path) error {
	if err := p.parseStepInto(path, true); err != nil {
		return err
	}
	for {
		switch {
		case p.tok.Is("//"):
			if err := p.advance(); err != nil {
				return err
			}
			path.Steps = append(path.Steps, Step{
				Axis: xdm.AxisDescendantOrSelf,
				Test: xdm.NodeTest{KindTest: true, AnyKind: true},
			})
			if err := p.parseStepInto(path, false); err != nil {
				return err
			}
		case p.tok.Is("/"):
			if err := p.advance(); err != nil {
				return err
			}
			if err := p.parseStepInto(path, false); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

// parseStepInto parses one step. When first is true and the step is a
// primary expression (not an axis step), it becomes the path root.
func (p *parser) parseStepInto(path *Path, first bool) error {
	// axis step forms
	switch {
	case p.tok.Is(".."):
		if err := p.advance(); err != nil {
			return err
		}
		st := Step{Axis: xdm.AxisParent, Test: xdm.NodeTest{KindTest: true, AnyKind: true}}
		return p.parsePredicatesInto(&st, path)
	case p.tok.Is("@"):
		if err := p.advance(); err != nil {
			return err
		}
		test, err := p.parseNodeTest(xdm.AxisAttribute)
		if err != nil {
			return err
		}
		st := Step{Axis: xdm.AxisAttribute, Test: test}
		return p.parsePredicatesInto(&st, path)
	case p.tok.Is("*"):
		if err := p.advance(); err != nil {
			return err
		}
		st := Step{Axis: xdm.AxisChild, Test: xdm.NodeTest{Name: "*"}}
		return p.parsePredicatesInto(&st, path)
	}
	if p.tok.Kind == TokName {
		nt, err := p.peek()
		if err != nil {
			return err
		}
		// explicit axis
		if nt.Is("::") {
			axis, ok := axisNames[p.tok.Text]
			if !ok {
				return p.errorf("unknown axis %q", p.tok.Text)
			}
			if err := p.advance(); err != nil {
				return err
			}
			if err := p.advance(); err != nil { // "::"
				return err
			}
			test, err := p.parseNodeTest(axis)
			if err != nil {
				return err
			}
			st := Step{Axis: axis, Test: test}
			return p.parsePredicatesInto(&st, path)
		}
		// computed constructors are primaries, not name-test steps
		if nt.Is("{") && (p.tok.Text == "element" || p.tok.Text == "attribute" || p.tok.Text == "text") {
			goto primary
		}
		// kind test as a step: text(), node(), comment() ...
		if nt.Is("(") {
			if _, isKind := kindTestNames[p.tok.Text]; isKind || p.tok.Text == "node" {
				test, err := p.parseNodeTest(xdm.AxisChild)
				if err != nil {
					return err
				}
				st := Step{Axis: xdm.AxisChild, Test: test}
				return p.parsePredicatesInto(&st, path)
			}
			// else: function call → primary
		} else if !reservedExprName(p.tok.Text) {
			// plain name test step
			name := p.tok.Text
			if err := p.advance(); err != nil {
				return err
			}
			st := Step{Axis: xdm.AxisChild, Test: xdm.NodeTest{Name: name}}
			return p.parsePredicatesInto(&st, path)
		}
	}
primary:
	// primary expression step
	if !first {
		// primaries are only allowed as the first step in this subset
		return p.errorf("expected a path step, found %s", p.tok)
	}
	prim, err := p.parsePrimary()
	if err != nil {
		return err
	}
	path.Root = prim
	for p.tok.Is("[") {
		if err := p.advance(); err != nil {
			return err
		}
		pred, err := p.parseExpr()
		if err != nil {
			return err
		}
		if err := p.expect("]"); err != nil {
			return err
		}
		path.RootPreds = append(path.RootPreds, pred)
	}
	return nil
}

func (p *parser) parsePredicatesInto(st *Step, path *Path) error {
	for p.tok.Is("[") {
		if err := p.advance(); err != nil {
			return err
		}
		pred, err := p.parseExpr()
		if err != nil {
			return err
		}
		if err := p.expect("]"); err != nil {
			return err
		}
		st.Preds = append(st.Preds, pred)
	}
	path.Steps = append(path.Steps, *st)
	return nil
}

func (p *parser) parseNodeTest(axis xdm.Axis) (xdm.NodeTest, error) {
	if p.tok.Is("*") {
		if err := p.advance(); err != nil {
			return xdm.NodeTest{}, err
		}
		return xdm.NodeTest{Name: "*"}, nil
	}
	if p.tok.Kind != TokName {
		return xdm.NodeTest{}, p.errorf("expected node test, found %s", p.tok)
	}
	name := p.tok.Text
	nt, err := p.peek()
	if err != nil {
		return xdm.NodeTest{}, err
	}
	if nt.Is("(") {
		if err := p.advance(); err != nil { // name
			return xdm.NodeTest{}, err
		}
		if err := p.advance(); err != nil { // "("
			return xdm.NodeTest{}, err
		}
		// optional inner name (element(x)) or PI target — accepted, ignored
		if p.tok.Kind == TokName || p.tok.Kind == TokString || p.tok.Is("*") {
			if err := p.advance(); err != nil {
				return xdm.NodeTest{}, err
			}
		}
		if err := p.expect(")"); err != nil {
			return xdm.NodeTest{}, err
		}
		if name == "node" {
			return xdm.NodeTest{KindTest: true, AnyKind: true}, nil
		}
		kind, ok := kindTestNames[name]
		if !ok {
			return xdm.NodeTest{}, p.errorf("unknown kind test %q", name)
		}
		return xdm.NodeTest{KindTest: true, Kind: kind}, nil
	}
	if err := p.advance(); err != nil {
		return xdm.NodeTest{}, err
	}
	return xdm.NodeTest{Name: name}, nil
}

// -------------------------------------------------------------- primaries

func (p *parser) parsePrimary() (Expr, error) {
	switch p.tok.Kind {
	case TokString:
		v := p.tok.Text
		return &StringLit{Val: v}, p.advance()
	case TokInteger:
		n, err := strconv.ParseInt(p.tok.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer literal %q", p.tok.Text)
		}
		return &IntLit{Val: n}, p.advance()
	case TokDecimal:
		f, err := strconv.ParseFloat(p.tok.Text, 64)
		if err != nil {
			return nil, p.errorf("bad decimal literal %q", p.tok.Text)
		}
		return &DecimalLit{Val: f}, p.advance()
	case TokDouble:
		f, err := strconv.ParseFloat(p.tok.Text, 64)
		if err != nil {
			return nil, p.errorf("bad double literal %q", p.tok.Text)
		}
		return &DoubleLit{Val: f}, p.advance()
	}
	switch {
	case p.tok.Is("$"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.Kind != TokName {
			return nil, p.errorf("expected variable name after $")
		}
		name := p.tok.Text
		return &VarRef{Name: name}, p.advance()
	case p.tok.Is("("):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.Is(")") {
			return &EmptySeq{}, p.advance()
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expect(")")
	case p.tok.Is("."):
		return &ContextItem{}, p.advance()
	case p.tok.Is("<"):
		return p.parseDirectConstructor()
	}
	if p.tok.Kind == TokName {
		name := p.tok.Text
		nt, err := p.peek()
		if err != nil {
			return nil, err
		}
		// computed constructors
		if (name == "element" || name == "attribute" || name == "text") && nt.Is("{") {
			return p.parseComputedConstructor(name)
		}
		if nt.Is("(") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			return p.parseCallArgs(name)
		}
	}
	return nil, p.errorf("unexpected %s in expression", p.tok)
}

// parseCallArgs parses "( args )" for a function whose name token was
// already consumed.
func (p *parser) parseCallArgs(name string) (*FuncCall, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	call := &FuncCall{Name: name}
	for !p.tok.Is(")") {
		a, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, a)
		if ok, err := p.accept(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return call, nil
}

func (p *parser) parseComputedConstructor(kind string) (Expr, error) {
	if err := p.advance(); err != nil { // consume keyword
		return nil, err
	}
	if kind == "text" {
		if err := p.expect("{"); err != nil {
			return nil, err
		}
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect("}"); err != nil {
			return nil, err
		}
		return &CompText{Val: v}, nil
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	name, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect("}"); err != nil {
		return nil, err
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	var content Expr = &EmptySeq{}
	if !p.tok.Is("}") {
		content, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect("}"); err != nil {
		return nil, err
	}
	if kind == "attribute" {
		return &CompAttr{Name: name, Value: content}, nil
	}
	return &CompElem{Name: name, Content: content}, nil
}

// ------------------------------------------------ direct constructors

// parseDirectConstructor parses <name attr="v">content</name> reading raw
// characters from the source, starting at the current "<" token.
func (p *parser) parseDirectConstructor() (Expr, error) {
	// rewind the lexer to the raw '<'
	p.lex.pos = p.tok.Pos
	p.peeked = nil
	el, err := p.parseDirElemRaw()
	if err != nil {
		return nil, err
	}
	// resume token mode
	if err := p.advance(); err != nil {
		return nil, err
	}
	return el, nil
}

func (p *parser) parseDirElemRaw() (*DirElem, error) {
	l := p.lex
	if l.src[l.pos] != '<' {
		return nil, l.errorf(l.pos, "expected '<'")
	}
	l.pos++
	name := p.scanRawName()
	if name == "" {
		return nil, l.errorf(l.pos, "expected element name")
	}
	el := &DirElem{Name: name}
	for {
		p.skipRawSpace()
		if l.pos >= len(l.src) {
			return nil, l.errorf(l.pos, "unterminated start tag <%s", name)
		}
		if strings.HasPrefix(l.src[l.pos:], "/>") {
			l.pos += 2
			return el, nil
		}
		if l.src[l.pos] == '>' {
			l.pos++
			break
		}
		attr, err := p.parseDirAttrRaw()
		if err != nil {
			return nil, err
		}
		el.Attrs = append(el.Attrs, *attr)
	}
	// content
	var text strings.Builder
	flushText := func() {
		if text.Len() > 0 {
			// default XQuery boundary-space policy is "strip":
			// whitespace-only literal text between tags/enclosed
			// expressions is discarded.
			if strings.TrimSpace(text.String()) != "" {
				el.Content = append(el.Content, &StringLit{Val: text.String()})
			}
			text.Reset()
		}
	}
	for {
		if l.pos >= len(l.src) {
			return nil, l.errorf(l.pos, "unterminated element <%s>", name)
		}
		c := l.src[l.pos]
		switch {
		case strings.HasPrefix(l.src[l.pos:], "</"):
			flushText()
			l.pos += 2
			end := p.scanRawName()
			if end != name {
				return nil, l.errorf(l.pos, "mismatched end tag </%s>, expected </%s>", end, name)
			}
			p.skipRawSpace()
			if l.pos >= len(l.src) || l.src[l.pos] != '>' {
				return nil, l.errorf(l.pos, "expected '>' in end tag")
			}
			l.pos++
			return el, nil
		case strings.HasPrefix(l.src[l.pos:], "<!--"):
			flushText()
			end := strings.Index(l.src[l.pos+4:], "-->")
			if end < 0 {
				return nil, l.errorf(l.pos, "unterminated comment")
			}
			el.Content = append(el.Content, &CompText{Val: &StringLit{Val: ""}}) // placeholder replaced below
			el.Content[len(el.Content)-1] = &commentLit{Val: l.src[l.pos+4 : l.pos+4+end]}
			l.pos += 4 + end + 3
		case c == '<':
			flushText()
			child, err := p.parseDirElemRaw()
			if err != nil {
				return nil, err
			}
			el.Content = append(el.Content, child)
		case c == '{':
			if strings.HasPrefix(l.src[l.pos:], "{{") {
				text.WriteByte('{')
				l.pos += 2
				continue
			}
			flushText()
			l.pos++
			// switch to token mode for the enclosed expression
			if err := p.advance(); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if !p.tok.Is("}") {
				return nil, p.errorf("expected '}' to close enclosed expression")
			}
			// resume raw mode right after '}'
			l.pos = p.tok.End
			p.peeked = nil
			el.Content = append(el.Content, &Enclosed{X: e})
		case c == '}':
			if strings.HasPrefix(l.src[l.pos:], "}}") {
				text.WriteByte('}')
				l.pos += 2
				continue
			}
			return nil, l.errorf(l.pos, "unescaped '}' in element content")
		case c == '&':
			ent, n, err := scanEntity(l.src[l.pos:])
			if err != nil {
				return nil, l.errorf(l.pos, "%v", err)
			}
			text.WriteString(ent)
			l.pos += n
		default:
			text.WriteByte(c)
			l.pos++
		}
	}
}

// commentLit is a direct comment constructor inside element content.
type commentLit struct{ Val string }

func (*commentLit) exprNode() {}

// CommentValue exposes the comment text for the evaluator.
func (c *commentLit) CommentValue() string { return c.Val }

// DirComment is the exported view of a direct comment constructor.
type DirComment = commentLit

func (p *parser) parseDirAttrRaw() (*DirAttr, error) {
	l := p.lex
	name := p.scanRawName()
	if name == "" {
		return nil, l.errorf(l.pos, "expected attribute name")
	}
	p.skipRawSpace()
	if l.pos >= len(l.src) || l.src[l.pos] != '=' {
		return nil, l.errorf(l.pos, "expected '=' after attribute name")
	}
	l.pos++
	p.skipRawSpace()
	if l.pos >= len(l.src) || (l.src[l.pos] != '"' && l.src[l.pos] != '\'') {
		return nil, l.errorf(l.pos, "expected quoted attribute value")
	}
	quote := l.src[l.pos]
	l.pos++
	attr := &DirAttr{Name: name}
	var text strings.Builder
	flush := func() {
		if text.Len() > 0 {
			attr.Value = append(attr.Value, &StringLit{Val: text.String()})
			text.Reset()
		}
	}
	for {
		if l.pos >= len(l.src) {
			return nil, l.errorf(l.pos, "unterminated attribute value")
		}
		c := l.src[l.pos]
		switch {
		case c == quote:
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == quote {
				text.WriteByte(quote)
				l.pos += 2
				continue
			}
			l.pos++
			flush()
			return attr, nil
		case c == '{':
			if strings.HasPrefix(l.src[l.pos:], "{{") {
				text.WriteByte('{')
				l.pos += 2
				continue
			}
			flush()
			l.pos++
			if err := p.advance(); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if !p.tok.Is("}") {
				return nil, p.errorf("expected '}' in attribute value template")
			}
			l.pos = p.tok.End
			p.peeked = nil
			attr.Value = append(attr.Value, &Enclosed{X: e})
		case c == '}':
			if strings.HasPrefix(l.src[l.pos:], "}}") {
				text.WriteByte('}')
				l.pos += 2
				continue
			}
			return nil, l.errorf(l.pos, "unescaped '}' in attribute value")
		case c == '&':
			ent, n, err := scanEntity(l.src[l.pos:])
			if err != nil {
				return nil, l.errorf(l.pos, "%v", err)
			}
			text.WriteString(ent)
			l.pos += n
		default:
			text.WriteByte(c)
			l.pos++
		}
	}
}

func (p *parser) scanRawName() string {
	l := p.lex
	start := l.pos
	for l.pos < len(l.src) && (isNameChar(l.src[l.pos]) || l.src[l.pos] == ':') {
		l.pos++
	}
	return l.src[start:l.pos]
}

func (p *parser) skipRawSpace() {
	l := p.lex
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case ' ', '\t', '\n', '\r':
			l.pos++
		default:
			return
		}
	}
}
