package pathfinder

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"xrpc/internal/soap"
	"xrpc/internal/xdm"
)

// TestCutThroughOnGeneratedResults is soap's TestCutThroughEqualsReencode
// over what queries actually return: the result of every generated query
// (qgen, the seeds of TestDifferentialEngines), sent as a response and
// forwarded the way a proxy does — wrapper bytes spliced into a new
// envelope — must arrive as the bytes that were sent, with no item
// decoded on the way.
func TestCutThroughOnGeneratedResults(t *testing.T) {
	f := newFixture(t)
	forwarded := 0
	for seed := 0; seed < 400; seed++ {
		g := &qgen{r: rand.New(rand.NewSource(int64(seed)))}
		query := g.expr(4)
		c, err := Compile(query, f.reg)
		if err != nil {
			continue
		}
		res, err := c.Eval(&ExecCtx{Docs: f.docs}, nil)
		if err != nil {
			continue
		}
		sent := soap.EncodeResponse(&soap.Response{Module: "m", Method: "f", Results: []xdm.Sequence{res, {}}})
		rs, err := soap.NewResponseStream(bytes.NewReader(sent))
		if err != nil {
			t.Fatal(err)
		}
		e := soap.NewEncoder()
		e.BeginResponse(rs.Module(), rs.Method())
		for {
			ok, err := rs.NextSequence()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !ok {
				break
			}
			e.BeginSequence()
			for {
				raw, ok, err := rs.NextItemRaw()
				if err != nil || !ok {
					t.Fatalf("seed %d: wrapper lent out: %v, err %v\nquery: %s", seed, ok, err, query)
				}
				if raw == nil {
					break
				}
				forwarded++
				e.RawSequence(raw)
			}
			e.EndSequence()
		}
		peers, err := rs.Finish()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		e.EndResponse(peers)
		if !bytes.Equal(e.Bytes(), sent) {
			t.Fatalf("seed %d: forwarded envelope differs from the one sent\nquery: %s\nforwarded: %s\nsent:      %s",
				seed, query, e.Bytes(), sent)
		}
		e.Release()
	}
	if forwarded < 400 {
		t.Fatalf("only %d items forwarded: the generated queries no longer return much", forwarded)
	}
}

// TestLazyDecodeOnGeneratedResults holds the query peer's buffered decode,
// whose node items are lazy, to the eager decode of the same response
// over what queries actually return (the qgen seeds above): written out
// unbuilt, copied, stepped into by a child and a descendant step, and
// built in full, every item gives the eager item's bytes, ordinals and
// document order.
func TestLazyDecodeOnGeneratedResults(t *testing.T) {
	f := newFixture(t)
	all := xdm.NodeTest{KindTest: true, AnyKind: true}
	checked := 0
	for seed := 0; seed < 2000; seed++ {
		g := &qgen{r: rand.New(rand.NewSource(int64(seed)))}
		query := g.expr(4)
		c, err := Compile(query, f.reg)
		if err != nil {
			continue
		}
		res, err := c.Eval(&ExecCtx{Docs: f.docs}, nil)
		if err != nil {
			continue
		}
		sent := soap.EncodeResponse(&soap.Response{Module: "m", Method: "f", Results: []xdm.Sequence{res}})
		lazy, err := soap.DecodeResponse(sent)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		eager, err := soap.DecodeResponseStream(bytes.NewReader(sent))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d: %s\nquery: %s", seed, fmt.Sprintf(format, args...), query)
		}
		if got := soap.EncodeResponse(lazy); !bytes.Equal(got, sent) {
			fail("unbuilt items encode as %s, sent %s", got, sent)
		}
		lz, eg := lazy.Results[0], eager.Results[0]
		for i := range lz {
			ln, ok := lz[i].(*xdm.Node)
			if !ok {
				continue
			}
			en := eg[i].(*xdm.Node)
			checked++
			if i > 0 {
				if p, ok := lz[i-1].(*xdm.Node); ok && xdm.DocOrderLess(p, ln) != xdm.DocOrderLess(eg[i-1].(*xdm.Node), en) {
					fail("items %d and %d are ordered unlike the eager ones", i-1, i)
				}
			}
			lc, ec := ln.Clone(), en.Clone()
			if xdm.SerializeNode(lc) != xdm.SerializeNode(ec) || lc.Ord() != ec.Ord() || lc.Shape() == 0 {
				fail("item %d copies differently", i)
			}
			for _, step := range []struct {
				axis xdm.Axis
				test xdm.NodeTest
			}{{xdm.AxisChild, xdm.NodeTest{Name: "*"}}, {xdm.AxisDescendant, all}} {
				ls, es := xdm.Step(ln, step.axis, step.test), xdm.Step(en, step.axis, step.test)
				if len(ls) != len(es) {
					fail("item %d: %s step finds %d nodes, eager %d", i, step.axis, len(ls), len(es))
				}
				for j := range ls {
					if ls[j].Ord() != es[j].Ord() || ls[j].Kind != es[j].Kind || ls[j].Name != es[j].Name || ls[j].Value != es[j].Value {
						fail("item %d: %s step node %d differs (ord %d, eager %d)", i, step.axis, j, ls[j].Ord(), es[j].Ord())
					}
				}
			}
			if xdm.SerializeNode(ln) != xdm.SerializeNode(en) {
				fail("item %d writes differently once built", i)
			}
		}
	}
	if checked < 400 {
		t.Fatalf("only %d node items checked: the generated queries no longer return many nodes", checked)
	}
}
