package xqrt

import (
	"math"
	"strings"

	"xrpc/internal/xdm"
	"xrpc/internal/xq"
)

// The operators, sequence types and function conversion rules both
// engines apply, so they cannot disagree on a value.

// Arith is the arithmetic kernel of both engines, so they agree on
// numeric semantics.
func Arith(op string, a, b xdm.Item) (xdm.Sequence, error) {
	fa, okA := xdm.NumericValue(a)
	fb, okB := xdm.NumericValue(b)
	if !okA || !okB {
		return nil, xdm.Errorf("XPTY0004", "cannot apply %s to %s and %s", op, a.TypeName(), b.TypeName())
	}
	_, aInt := a.(xdm.Integer)
	_, bInt := b.(xdm.Integer)
	bothInt := aInt && bInt
	switch op {
	case "+":
		if bothInt {
			return xdm.Singleton(xdm.Integer(int64(fa) + int64(fb))), nil
		}
		return numSeq(a, b, fa+fb), nil
	case "-":
		if bothInt {
			return xdm.Singleton(xdm.Integer(int64(fa) - int64(fb))), nil
		}
		return numSeq(a, b, fa-fb), nil
	case "*":
		if bothInt {
			return xdm.Singleton(xdm.Integer(int64(fa) * int64(fb))), nil
		}
		return numSeq(a, b, fa*fb), nil
	case "div":
		if fb == 0 && !isDouble(a) && !isDouble(b) {
			return nil, xdm.NewError("FOAR0001", "division by zero")
		}
		return numSeq(a, b, fa/fb), nil
	case "idiv":
		if fb == 0 {
			return nil, xdm.NewError("FOAR0001", "integer division by zero")
		}
		return xdm.Singleton(xdm.Integer(int64(fa / fb))), nil
	case "mod":
		if fb == 0 {
			return nil, xdm.NewError("FOAR0001", "modulus by zero")
		}
		if bothInt {
			return xdm.Singleton(xdm.Integer(int64(fa) % int64(fb))), nil
		}
		return numSeq(a, b, math.Mod(fa, fb)), nil
	}
	return nil, xdm.Errorf("XPST0003", "unknown arithmetic operator %q", op)
}

func isDouble(it xdm.Item) bool {
	switch it.(type) {
	case xdm.Double, xdm.Untyped:
		return true
	}
	return false
}

// numSeq picks the result type by the usual promotion ladder
// (integer < decimal < double; untyped promotes to double); integer div
// integer is xs:decimal per spec.
func numSeq(a, b xdm.Item, v float64) xdm.Sequence {
	if isDouble(a) || isDouble(b) {
		return xdm.Singleton(xdm.Double(v))
	}
	return xdm.Singleton(xdm.Decimal(v))
}

// NodeCompare is the node comparison op (is, <<, >>) of two items, which
// must be nodes.
func NodeCompare(op string, a, b xdm.Item) (xdm.Sequence, error) {
	an, okA := a.(*xdm.Node)
	bn, okB := b.(*xdm.Node)
	if !okA || !okB {
		return nil, xdm.NewError("XPTY0004", "node comparison requires nodes")
	}
	switch op {
	case "is":
		return xdm.Singleton(xdm.Boolean(an == bn)), nil
	case "<<":
		return xdm.Singleton(xdm.Boolean(xdm.DocOrderLess(an, bn))), nil
	case ">>":
		return xdm.Singleton(xdm.Boolean(xdm.DocOrderLess(bn, an))), nil
	}
	return nil, xdm.Errorf("XPST0003", "unknown node comparison %q", op)
}

// GeneralOp maps a general-comparison symbol (=, !=, ...) to its
// operator.
func GeneralOp(op string) (xdm.CompareOp, error) {
	switch op {
	case "=":
		return xdm.OpEq, nil
	case "!=":
		return xdm.OpNe, nil
	case "<":
		return xdm.OpLt, nil
	case "<=":
		return xdm.OpLe, nil
	case ">":
		return xdm.OpGt, nil
	case ">=":
		return xdm.OpGe, nil
	}
	return 0, xdm.Errorf("XPST0003", "unknown comparison %q", op)
}

// ValueOp maps a value-comparison keyword (eq, ne, ...) to its operator.
func ValueOp(op string) (xdm.CompareOp, error) {
	switch op {
	case "eq":
		return xdm.OpEq, nil
	case "ne":
		return xdm.OpNe, nil
	case "lt":
		return xdm.OpLt, nil
	case "le":
		return xdm.OpLe, nil
	case "gt":
		return xdm.OpGt, nil
	case "ge":
		return xdm.OpGe, nil
	}
	return 0, xdm.Errorf("XPST0003", "unknown comparison %q", op)
}

// AppendContent inserts a sequence into constructed element content, the
// same way for both engines: nodes are deep-copied (constructors copy,
// per XQuery), adjacent atomics join with single spaces into text nodes.
func AppendContent(el *xdm.Node, v xdm.Sequence) {
	prevAtomic := false
	for _, it := range v {
		switch x := it.(type) {
		case *xdm.Node:
			switch x.Kind {
			case xdm.AttributeNode:
				el.SetAttr(xdm.NewAttribute(x.Name, x.Value))
			case xdm.DocumentNode:
				for _, c := range x.Children() {
					el.AppendChild(c.Clone())
				}
			default:
				el.AppendChild(x.Clone())
			}
			prevAtomic = false
		default:
			s := it.StringValue()
			if prevAtomic {
				s = " " + s
			}
			if kids := el.Children(); len(kids) > 0 && kids[len(kids)-1].Kind == xdm.TextNode {
				kids[len(kids)-1].Value += s
			} else if s != "" {
				el.AppendChild(xdm.NewText(s))
			}
			prevAtomic = true
		}
	}
}

// MatchesSeqType implements "instance of" for the supported types
// (typeswitch and instance of must agree across engines).
func MatchesSeqType(v xdm.Sequence, t xq.SeqType) bool {
	if t.Empty {
		return len(v) == 0
	}
	switch t.Occurrence {
	case '1', 0:
		if len(v) != 1 {
			return false
		}
	case '?':
		if len(v) > 1 {
			return false
		}
	case '+':
		if len(v) < 1 {
			return false
		}
	}
	for _, it := range v {
		if !matchesItemType(it, t.TypeName) {
			return false
		}
	}
	return true
}

func matchesItemType(it xdm.Item, typeName string) bool {
	switch typeName {
	case "item()":
		return true
	case "node()":
		_, ok := it.(*xdm.Node)
		return ok
	case "element()":
		n, ok := it.(*xdm.Node)
		return ok && n.Kind == xdm.ElementNode
	case "attribute()":
		n, ok := it.(*xdm.Node)
		return ok && n.Kind == xdm.AttributeNode
	case "text()":
		n, ok := it.(*xdm.Node)
		return ok && n.Kind == xdm.TextNode
	case "document-node()":
		n, ok := it.(*xdm.Node)
		return ok && n.Kind == xdm.DocumentNode
	case "comment()":
		n, ok := it.(*xdm.Node)
		return ok && n.Kind == xdm.CommentNode
	case "processing-instruction()":
		n, ok := it.(*xdm.Node)
		return ok && n.Kind == xdm.PINode
	case "xs:anyAtomicType":
		_, isNode := it.(*xdm.Node)
		return !isNode
	case "xs:string":
		_, ok := it.(xdm.String)
		return ok
	case "xs:integer":
		_, ok := it.(xdm.Integer)
		return ok
	case "xs:decimal":
		switch it.(type) {
		case xdm.Decimal, xdm.Integer:
			return true
		}
		return false
	case "xs:double":
		_, ok := it.(xdm.Double)
		return ok
	case "xs:boolean":
		_, ok := it.(xdm.Boolean)
		return ok
	case "xs:untypedAtomic":
		_, ok := it.(xdm.Untyped)
		return ok
	case "numeric":
		return xdm.IsNumeric(it)
	}
	return false
}

// ConvertParam applies the XQuery function conversion rules for the
// supported types: atomization + untyped casting for atomic expected
// types, cardinality checks for all. §2.2 has the XRPC caller up-cast
// parameters, so both engines apply it to what they send.
func ConvertParam(v xdm.Sequence, t xq.SeqType) (xdm.Sequence, error) {
	out := v
	if strings.HasPrefix(t.TypeName, "xs:") {
		atomized := xdm.Atomize(v)
		out = make(xdm.Sequence, len(atomized))
		for i, it := range atomized {
			if u, isU := it.(xdm.Untyped); isU {
				cast, err := xdm.CastAtomic(u, t.TypeName)
				if err != nil {
					return nil, err
				}
				out[i] = cast
				continue
			}
			// numeric promotion
			if t.TypeName == "xs:double" && xdm.IsNumeric(it) {
				f, _ := xdm.NumericValue(it)
				out[i] = xdm.Double(f)
				continue
			}
			if t.TypeName == "xs:decimal" {
				if n, isInt := it.(xdm.Integer); isInt {
					out[i] = xdm.Decimal(float64(n))
					continue
				}
			}
			if !matchesItemType(it, t.TypeName) {
				return nil, xdm.Errorf("XPTY0004", "%s does not match %s", it.TypeName(), t.TypeName)
			}
			out[i] = it
		}
	} else {
		for _, it := range out {
			if !matchesItemType(it, t.TypeName) {
				return nil, xdm.Errorf("XPTY0004", "%s does not match %s", it.TypeName(), t.TypeName)
			}
		}
	}
	return out, CheckCardinality(out, t, "")
}

// CheckCardinality checks v against t's occurrence indicator; what, when
// set, names the function whose result v is.
func CheckCardinality(v xdm.Sequence, t xq.SeqType, what string) error {
	prefix := ""
	if what != "" {
		prefix = "result of " + what + ": "
	}
	if t.Empty && len(v) > 0 {
		return xdm.Errorf("XPTY0004", "%sexpected empty-sequence()", prefix)
	}
	switch t.Occurrence {
	case '1':
		if len(v) != 1 {
			return xdm.Errorf("XPTY0004", "%sexpected exactly one item, got %d", prefix, len(v))
		}
	case '?':
		if len(v) > 1 {
			return xdm.Errorf("XPTY0004", "%sexpected at most one item, got %d", prefix, len(v))
		}
	case '+':
		if len(v) == 0 {
			return xdm.Errorf("XPTY0004", "%sexpected at least one item", prefix)
		}
	}
	return nil
}
