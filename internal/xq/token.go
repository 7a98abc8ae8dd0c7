// Package xq implements the XQuery 1.0 subset used by the XRPC
// reproduction: a hand-written lexer, an AST, and a recursive-descent
// parser for the grammar of §2 of the paper, including the `execute at`
// XRPC extension and the XQuery Update Facility expressions of §2.3.
// Operator expressions are one precedence-climbing loop over one
// binding-power table (infixOps) in the order of XQuery 1.0 A.4.
package xq

import (
	"fmt"
	"strings"
)

// TokKind classifies lexical tokens.
type TokKind int

// Token kinds.
const (
	TokEOF     TokKind = iota
	TokName            // NCName or QName (possibly prefixed)
	TokString          // string literal (quotes stripped, escapes resolved)
	TokInteger         // integer literal
	TokDecimal         // decimal literal (has '.')
	TokDouble          // double literal (has exponent)
	TokSymbol          // punctuation / operator symbol
)

// Token is one lexical token with its source span.
type Token struct {
	Kind TokKind
	Text string
	Pos  int // byte offset of token start
	End  int // byte offset just past the token
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "<eof>"
	case TokString:
		return fmt.Sprintf("%q", t.Text)
	default:
		return t.Text
	}
}

// Is reports whether the token is the given symbol or keyword text.
func (t Token) Is(text string) bool {
	return (t.Kind == TokSymbol || t.Kind == TokName) && t.Text == text
}

// lexer scans tokens on demand; the parser can also read raw characters
// (for direct element constructors) by consulting src/pos directly.
type lexer struct {
	src string
	pos int
}

// SyntaxError is a parse error with position info.
type SyntaxError struct {
	Pos  int
	Line int
	Col  int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xquery syntax error at line %d col %d: %s", e.Line, e.Col, e.Msg)
}

func (l *lexer) errorf(pos int, format string, args ...any) *SyntaxError {
	line, col := 1, 1
	for i := 0; i < pos && i < len(l.src); i++ {
		if l.src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return &SyntaxError{Pos: pos, Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) skipWS() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// XQuery comments: (: ... :) with nesting
		if c == '(' && l.pos+1 < len(l.src) && l.src[l.pos+1] == ':' {
			depth := 0
			i := l.pos
			for i < len(l.src) {
				if i+1 < len(l.src) && l.src[i] == '(' && l.src[i+1] == ':' {
					depth++
					i += 2
					continue
				}
				if i+1 < len(l.src) && l.src[i] == ':' && l.src[i+1] == ')' {
					depth--
					i += 2
					if depth == 0 {
						break
					}
					continue
				}
				i++
			}
			l.pos = i
			continue
		}
		break
	}
}

func isNameStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || c >= '0' && c <= '9'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// multi-char symbols, longest first.
var symbols = []string{
	":=", "!=", "<=", ">=", "<<", ">>", "//", "..", "::",
	"{", "}", "(", ")", "[", "]", ",", ";", "$", "@", "/", "*", "+", "-",
	"=", "<", ">", "|", ".", "?",
}

// next scans the next token starting at l.pos.
func (l *lexer) next() (Token, error) {
	l.skipWS()
	start := l.pos
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: start, End: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case isNameStart(c):
		return l.scanName(start), nil
	case isDigit(c) || c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		return l.scanNumber(start)
	case c == '"' || c == '\'':
		return l.scanString(start)
	}
	for _, s := range symbols {
		if strings.HasPrefix(l.src[l.pos:], s) {
			l.pos += len(s)
			return Token{Kind: TokSymbol, Text: s, Pos: start, End: l.pos}, nil
		}
	}
	return Token{}, l.errorf(start, "unexpected character %q", c)
}

func (l *lexer) scanName(start int) Token {
	for l.pos < len(l.src) && isNameChar(l.src[l.pos]) {
		l.pos++
	}
	// QName: prefix:local — but not "::" (axis) and not "a:=b".
	if l.pos < len(l.src) && l.src[l.pos] == ':' &&
		l.pos+1 < len(l.src) && isNameStart(l.src[l.pos+1]) &&
		!(l.pos+1 < len(l.src) && l.src[l.pos+1] == ':') {
		// lookahead to rule out axis "name::"
		save := l.pos
		l.pos++
		for l.pos < len(l.src) && isNameChar(l.src[l.pos]) {
			l.pos++
		}
		_ = save
	}
	return Token{Kind: TokName, Text: l.src[start:l.pos], Pos: start, End: l.pos}
}

func (l *lexer) scanNumber(start int) (Token, error) {
	kind := TokInteger
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		// ".." must not be consumed by a number (range "1..2" is not
		// XQuery, but "$a/.." style appears after names only; still be
		// careful).
		if !(l.pos+1 < len(l.src) && l.src[l.pos+1] == '.') {
			kind = TokDecimal
			l.pos++
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		kind = TokDouble
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.pos++
		}
		if l.pos >= len(l.src) || !isDigit(l.src[l.pos]) {
			return Token{}, l.errorf(l.pos, "malformed double literal")
		}
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	return Token{Kind: kind, Text: l.src[start:l.pos], Pos: start, End: l.pos}, nil
}

func (l *lexer) scanString(start int) (Token, error) {
	quote := l.src[l.pos]
	l.pos++
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == quote {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == quote {
				b.WriteByte(quote) // doubled quote escape
				l.pos += 2
				continue
			}
			l.pos++
			return Token{Kind: TokString, Text: b.String(), Pos: start, End: l.pos}, nil
		}
		if c == '&' {
			ent, n, err := scanEntity(l.src[l.pos:])
			if err != nil {
				return Token{}, l.errorf(l.pos, "%v", err)
			}
			b.WriteString(ent)
			l.pos += n
			continue
		}
		b.WriteByte(c)
		l.pos++
	}
	return Token{}, l.errorf(start, "unterminated string literal")
}

// scanEntity resolves a predefined or character entity reference at the
// start of s, returning the replacement text and consumed length.
func scanEntity(s string) (string, int, error) {
	end := strings.IndexByte(s, ';')
	if end < 0 || end > 12 {
		return "", 0, fmt.Errorf("malformed entity reference")
	}
	name := s[1:end]
	switch name {
	case "lt":
		return "<", end + 1, nil
	case "gt":
		return ">", end + 1, nil
	case "amp":
		return "&", end + 1, nil
	case "quot":
		return `"`, end + 1, nil
	case "apos":
		return "'", end + 1, nil
	}
	if strings.HasPrefix(name, "#x") || strings.HasPrefix(name, "#X") {
		var r rune
		if _, err := fmt.Sscanf(name[2:], "%x", &r); err != nil {
			return "", 0, fmt.Errorf("malformed character reference &%s;", name)
		}
		return string(r), end + 1, nil
	}
	if strings.HasPrefix(name, "#") {
		var r rune
		if _, err := fmt.Sscanf(name[1:], "%d", &r); err != nil {
			return "", 0, fmt.Errorf("malformed character reference &%s;", name)
		}
		return string(r), end + 1, nil
	}
	return "", 0, fmt.Errorf("unknown entity &%s;", name)
}
