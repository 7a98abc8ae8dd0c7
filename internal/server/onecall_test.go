package server

import (
	"io"
	"testing"

	"xrpc/internal/client"
	"xrpc/internal/interp"
	"xrpc/internal/netsim"
	"xrpc/internal/soap"
	"xrpc/internal/store/storetest"
	"xrpc/internal/xdm"
)

// bodyRecorder is a transport that notes every request body it carries
// before the network delivers it.
type bodyRecorder struct {
	net    *netsim.Network
	bodies []string
}

func (r *bodyRecorder) Send(dest, path string, body []byte) ([]byte, error) {
	r.bodies = append(r.bodies, string(body))
	return r.net.Send(dest, path, body)
}

func (r *bodyRecorder) SendStream(dest, path string, body []byte) (io.ReadCloser, error) {
	r.bodies = append(r.bodies, string(body))
	return r.net.SendStream(dest, path, body)
}

// oneCallGolden are the request bodies the interpreter sends for one
// execute at each: a plain call, the same call with call-by-fragment on
// (its two node parameters, one inside the other, travel as a fragment
// and a nodeid reference), and an updating call.
var oneCallGolden = []struct {
	name       string
	byFragment bool
	query      string
	body       string
}{
	{name: "plain", query: `
import module namespace f="films" at "http://x.example.org/film.xq";
execute at {"xrpc://y.example.org"} {f:filmsByActor("Sean Connery")}`,
		body: `<?xml version="1.0" encoding="utf-8"?>
<env:Envelope xmlns:xrpc="http://monetdb.cwi.nl/XQuery"
 xmlns:env="http://www.w3.org/2003/05/soap-envelope"
 xmlns:xs="http://www.w3.org/2001/XMLSchema"
 xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"
 xsi:schemaLocation="http://monetdb.cwi.nl/XQuery http://monetdb.cwi.nl/XQuery/XRPC.xsd">
<env:Body>
<xrpc:request xrpc:module="films" xrpc:method="filmsByActor" xrpc:arity="1" xrpc:location="http://x.example.org/film.xq">
<xrpc:call>
<xrpc:sequence><xrpc:atomic-value xsi:type="xs:string">Sean Connery</xrpc:atomic-value></xrpc:sequence>
</xrpc:call>
</xrpc:request>
</env:Body>
</env:Envelope>
`},
	{name: "by fragment", byFragment: true, query: `
import module namespace tst="test" at "http://x.example.org/film.xq";
let $f := doc("filmDB.xml")//film[1]
return execute at {"xrpc://y.example.org"} {tst:echo(($f, $f/name))}`,
		body: `<?xml version="1.0" encoding="utf-8"?>
<env:Envelope xmlns:xrpc="http://monetdb.cwi.nl/XQuery"
 xmlns:env="http://www.w3.org/2003/05/soap-envelope"
 xmlns:xs="http://www.w3.org/2001/XMLSchema"
 xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"
 xsi:schemaLocation="http://monetdb.cwi.nl/XQuery http://monetdb.cwi.nl/XQuery/XRPC.xsd">
<env:Body>
<xrpc:request xrpc:module="test" xrpc:method="echo" xrpc:arity="1" xrpc:location="http://x.example.org/film.xq">
<xrpc:call>
<xrpc:sequence><xrpc:element><film><name>The Rock</name><actor>Sean Connery</actor></film></xrpc:element><xrpc:element xrpc:nodeid="p0.0:1"/></xrpc:sequence>
</xrpc:call>
</xrpc:request>
</env:Body>
</env:Envelope>
`},
	{name: "updating", query: `
import module namespace u="upd" at "http://x.example.org/film.xq";
execute at {"xrpc://y.example.org"} {u:addFilm("Dr. No", "Sean Connery")}`,
		body: `<?xml version="1.0" encoding="utf-8"?>
<env:Envelope xmlns:xrpc="http://monetdb.cwi.nl/XQuery"
 xmlns:env="http://www.w3.org/2003/05/soap-envelope"
 xmlns:xs="http://www.w3.org/2001/XMLSchema"
 xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"
 xsi:schemaLocation="http://monetdb.cwi.nl/XQuery http://monetdb.cwi.nl/XQuery/XRPC.xsd">
<env:Body>
<xrpc:request xrpc:module="upd" xrpc:method="addFilm" xrpc:arity="2" xrpc:location="http://x.example.org/film.xq" xrpc:updCall="true">
<xrpc:call>
<xrpc:sequence><xrpc:atomic-value xsi:type="xs:string">Dr. No</xrpc:atomic-value></xrpc:sequence>
<xrpc:sequence><xrpc:atomic-value xsi:type="xs:string">Sean Connery</xrpc:atomic-value></xrpc:sequence>
</xrpc:call>
</xrpc:request>
</env:Body>
</env:Envelope>
`},
}

// TestOneCallRequestBytes pins the bytes of the interpreter's
// one-at-a-time requests: the same query sends the same body, call for
// call, whatever way the interpreter hands the call to the client.
func TestOneCallRequestBytes(t *testing.T) {
	for _, tc := range oneCallGolden {
		t.Run(tc.name, func(t *testing.T) {
			net := netsim.NewNetwork(0, 0)
			local := newPeer(t, "xrpc://local", filmDBY, net)
			newPeer(t, "xrpc://y.example.org", filmDBY, net)
			rec := &bodyRecorder{net: net}
			eng := interp.New(local.reg)
			eng.ByFragment = tc.byFragment
			c, err := eng.Compile(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := eng.Eval(c, &interp.EvalOptions{
				Docs:           storetest.Latest(t, local.store),
				RPC:            client.New(rec),
				CollectUpdates: true,
			}); err != nil {
				t.Fatal(err)
			}
			if len(rec.bodies) != 1 {
				t.Fatalf("%d requests sent, want 1", len(rec.bodies))
			}
			if rec.bodies[0] != tc.body {
				t.Errorf("request body\n%s\nwant\n%s", rec.bodies[0], tc.body)
			}
		})
	}
}

// TestRespCacheSkipsNestedRPC: a function whose body runs execute at
// against another peer answers from that peer's state, so a response
// cache must not keep its result. The factory here reports no
// participating peers, so only the cache's watch on the nested-call
// client (countingRPC) keeps the first answer out: the second, identical
// request executes again, reaches the remote peer again, and sees the
// change made there in between.
func TestRespCacheSkipsNestedRPC(t *testing.T) {
	net := netsim.NewNetwork(0, 0)
	front := newPeer(t, "xrpc://front", filmDBY, net)
	remote := newPeer(t, "xrpc://remote", filmDBZ, net)
	front.server.RespCache = NewRespCache(0)
	front.server.NewRPC = func(*soap.QueryID) (client.BulkCaller, func() []string) {
		return client.New(net), func() []string { return nil }
	}
	if err := front.reg.Register(`module namespace nest="nest";
import module namespace film="films" at "http://x.example.org/film.xq";
declare function nest:remote($actor as xs:string) as node()*
{ execute at {"xrpc://remote"} {film:filmsByActor($actor)} };`, "http://x.example.org/nest.xq"); err != nil {
		t.Fatal(err)
	}
	read := &client.BulkRequest{
		ModuleURI: "nest", AtHint: "http://x.example.org/nest.xq", Func: "remote", Arity: 1,
		Calls: [][]xdm.Sequence{{{xdm.String("Julie Andrews")}}},
	}
	cl := client.New(net)
	answer := func() string {
		t.Helper()
		res, err := cl.CallBulk("xrpc://front", read)
		if err != nil {
			t.Fatal(err)
		}
		return xdm.SerializeSequence(res[0])
	}
	if got, want := answer(), "<name>Sound Of Music</name>"; got != want {
		t.Fatalf("first answer %s, want %s", got, want)
	}
	if err := remote.store.LoadXML("filmDB.xml", `<films>
<film><name>Mary Poppins</name><actor>Julie Andrews</actor></film>
</films>`); err != nil {
		t.Fatal(err)
	}
	if got, want := answer(), "<name>Mary Poppins</name>"; got != want {
		t.Errorf("second answer %s, want %s: the first was served from the cache", got, want)
	}
	if n := remote.server.ServedRequests; n != 2 {
		t.Errorf("the remote peer served %d requests, want 2", n)
	}
	if st := front.server.RespCache.Stats(); st.Hits != 0 {
		t.Errorf("response cache %+v: a result that read another peer was served from it", st)
	}
}
