package pathfinder

import (
	"bytes"
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
