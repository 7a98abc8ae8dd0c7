package soap

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"xrpc/internal/xdm"
)

// lazy_test.go holds DecodeResponse, whose node items are lazy (xdm's
// lazy.go), to the eager decoder on the same bytes: the same accept and
// reject, and items that write, copy, step and order as the eager ones
// do, before and after they are built.

// decodeEager is DecodeResponse with every node item built as it is
// decoded.
func decodeEager(msg []byte) (*Response, error) {
	d := &decoder{sc: xdm.NewScanner(msg, nil, internTable)}
	m, err := d.decodeMessage()
	if err != nil {
		return nil, err
	}
	if m.Fault != nil {
		return nil, m.Fault
	}
	if m.Response == nil {
		return nil, fmt.Errorf("soap: message is not a response")
	}
	return m.Response, nil
}

// lazyAgainstEager decodes msg lazily and eagerly and returns how the two
// disagree ("" when they do not).
func lazyAgainstEager(msg []byte) string {
	lazy, errL := DecodeResponse(msg)
	eager, errE := decodeEager(msg)
	if (errL == nil) != (errE == nil) {
		return fmt.Sprintf("lazy decode err %v, eager %v", errL, errE)
	}
	if errL != nil {
		return ""
	}
	want := EncodeResponse(eager)
	if got := EncodeResponse(lazy); !bytes.Equal(got, want) {
		return fmt.Sprintf("unbuilt items encode as %q, eager %q", got, want)
	}
	if len(lazy.Results) != len(eager.Results) {
		return fmt.Sprintf("%d results, eager %d", len(lazy.Results), len(eager.Results))
	}
	for r, seq := range lazy.Results {
		if len(seq) != len(eager.Results[r]) {
			return fmt.Sprintf("result %d has %d items, eager %d", r, len(seq), len(eager.Results[r]))
		}
		for i, it := range seq {
			g, ok := it.(*xdm.Node)
			if !ok {
				continue
			}
			w := eager.Results[r][i].(*xdm.Node)
			if i > 0 {
				if p, ok := seq[i-1].(*xdm.Node); ok && xdm.DocOrderLess(p, g) != xdm.DocOrderLess(eager.Results[r][i-1].(*xdm.Node), w) {
					return fmt.Sprintf("result %d: items %d and %d ordered unlike the eager ones", r, i-1, i)
				}
			}
			if d := sameNodes(w.Clone(), g.Clone()); d != "" {
				return fmt.Sprintf("result %d item %d, copied: %s", r, i, d)
			}
			// a named child step builds what it names, at the eager
			// ordinals
			for _, k := range w.Children() {
				if k.Kind == xdm.ElementNode {
					test := xdm.NodeTest{Name: k.Name}
					gs, ws := xdm.Step(g, xdm.AxisChild, test), xdm.Step(w, xdm.AxisChild, test)
					if len(gs) != len(ws) || gs[0].Ord() != ws[0].Ord() {
						return fmt.Sprintf("result %d item %d: step to %s differs", r, i, k.Name)
					}
					break
				}
			}
			if d := sameNodes(w, g); d != "" {
				return fmt.Sprintf("result %d item %d: %s", r, i, d)
			}
		}
	}
	if got := EncodeResponse(lazy); !bytes.Equal(got, want) {
		return fmt.Sprintf("built items encode as %q, eager %q", got, want)
	}
	return ""
}

// sameNodes compares two trees node for node — kind, name, value,
// ordinal, attributes — building the lazy one as it goes.
func sameNodes(want, got *xdm.Node) string {
	if want.Kind != got.Kind || want.Name != got.Name || want.Value != got.Value || want.Ord() != got.Ord() {
		return fmt.Sprintf("node %v ord %d, want %v ord %d", xdm.Sequence{got}, got.Ord(), xdm.Sequence{want}, want.Ord())
	}
	if len(want.Attrs) != len(got.Attrs) {
		return fmt.Sprintf("%v has %d attributes, want %d", xdm.Sequence{got}, len(got.Attrs), len(want.Attrs))
	}
	for i, a := range got.Attrs {
		if w := want.Attrs[i]; a.Name != w.Name || a.Value != w.Value || a.Ord() != w.Ord() {
			return fmt.Sprintf("attribute %v ord %d, want %v ord %d", xdm.Sequence{a}, a.Ord(), xdm.Sequence{w}, w.Ord())
		}
	}
	wk, gk := want.Children(), got.Children()
	if len(wk) != len(gk) {
		return fmt.Sprintf("%v has %d children, want %d", xdm.Sequence{got}, len(gk), len(wk))
	}
	for i := range gk {
		if d := sameNodes(wk[i], gk[i]); d != "" {
			return d
		}
	}
	return ""
}

// lazyEnvelopes are responses whose items are spelled as Encoder never
// spells them, so their content must be built, not spliced.
var lazyEnvelopes = []string{
	`<xrpc:sequence><xrpc:element><a x='1'><b></b>&#60;<![CDATA[<c>]]></a></xrpc:element><xrpc:element><a >` + "x\r\ny" + `<b  y = "2"/></a ></xrpc:element></xrpc:sequence>`,
	`<xrpc:sequence><xrpc:document>lead<?xml version="1.0"?>tail<!DOCTYPE d><r>t</r><!--c--><?p  v?></xrpc:document><xrpc:element><a><b>x<c/>y</b></c></a></xrpc:element></xrpc:sequence>`,
	`<xrpc:sequence><xrpc:element><a><b/></a> <a>t</a><a></a><a/></xrpc:element></xrpc:sequence>`,
}

func TestLazyDecodeMatchesEager(t *testing.T) {
	var msgs [][]byte
	for _, resp := range append(fixtureResponses(t), itemKindResponses(t)...) {
		msgs = append(msgs, EncodeResponse(resp))
	}
	for _, env := range lazyEnvelopes {
		msgs = append(msgs, oursFramed(env))
	}
	msgs = append(msgs, EncodeResponse(xmarkResponse()))
	for _, msg := range msgs {
		if d := lazyAgainstEager(msg); d != "" {
			t.Errorf("%s\nmessage: %q", d, msg)
		}
	}
}

// TestLazyDecodeRejectsDeepFaults: a fault anywhere inside an item fails
// the decode, however deep, though nothing there is built.
func TestLazyDecodeRejectsDeepFaults(t *testing.T) {
	for _, item := range []string{
		"<a><b><c>\xff</c></b></a>",
		"<a><b><c>&bogus;</c></b></a>",
		"<a><b><c x=\"\x01\"/></b></a>",
		"<a><b><c>]]></c></b></a>",
	} {
		msg := oursFramed(`<xrpc:sequence><xrpc:element>` + item + `</xrpc:element></xrpc:sequence>`)
		_, errE := decodeEager(msg)
		if _, err := DecodeResponse(msg); err == nil || errE == nil || err.Error() != errE.Error() {
			t.Errorf("item %q: lazy decode err %v, eager %v", item, err, errE)
		}
	}
}

// TestLazyItemSharedByWriters encodes and steps into the same unbuilt
// items from two goroutines at once, as a bulk RPC sending one received
// node to two destinations does (make race runs it under the race
// detector).
func TestLazyItemSharedByWriters(t *testing.T) {
	msg := EncodeResponse(xmarkResponse())
	eager, err := decodeEager(msg)
	if err != nil {
		t.Fatal(err)
	}
	items := eager.Results[0][:40]
	want := EncodeResponse(&Response{Results: []xdm.Sequence{items}})
	all := xdm.NodeTest{KindTest: true, AnyKind: true}
	wantDesc := 0
	for _, it := range items {
		wantDesc += len(xdm.Step(it.(*xdm.Node), xdm.AxisDescendant, all))
	}
	for round := 0; round < 4; round++ {
		resp, err := DecodeResponse(msg)
		if err != nil {
			t.Fatal(err)
		}
		got := resp.Results[0][:40]
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if (g+round)%2 == 0 {
					if enc := EncodeResponse(&Response{Results: []xdm.Sequence{got}}); !bytes.Equal(enc, want) {
						errs[g] = fmt.Errorf("shared items encode differently")
					}
					return
				}
				n := 0
				for _, it := range got {
					n += len(xdm.Step(it.(*xdm.Node), xdm.AxisChild, xdm.NodeTest{Name: "buyer"}))
					n += len(xdm.Step(it.(*xdm.Node), xdm.AxisDescendant, all)) - 1
				}
				if n != wantDesc {
					errs[g] = fmt.Errorf("%d descendants, want %d", n, wantDesc)
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}
