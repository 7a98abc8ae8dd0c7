// Updates: distributed XQUF updates over XRPC (§2.3). An updating
// function is called on two remote peers from one query; the pending
// update lists stay invisible until the originator drives
// WS-AtomicTransaction 2PC (Prepare, then Commit) across all
// participating peers. The program also demonstrates repeatable-read
// isolation: a query that reads the same peer twice sees one database
// state even while another transaction commits in between.
package main

import (
	"fmt"
	"log"
	"time"

	"xrpc"
	"xrpc/internal/xmark"
)

const filmModule = `
module namespace film="films";
declare function film:filmsByActor($actor as xs:string) as node()*
{ doc("filmDB.xml")//name[../actor=$actor] };
declare function film:countFilms() as xs:integer
{ count(doc("filmDB.xml")//film) };`

const updModule = `
module namespace u="upd";
declare updating function u:addFilm($name as xs:string, $actor as xs:string)
{ insert node <film><name>{$name}</name><actor>{$actor}</actor></film>
  into doc("filmDB.xml")/films };`

func main() {
	net := xrpc.NewNetwork(500*time.Microsecond, 0)
	peers := map[string]*xrpc.Peer{}
	for _, uri := range []string{"xrpc://y.example.org", "xrpc://z.example.org"} {
		p := xrpc.NewPeer(uri, net)
		must(p.LoadDocument("filmDB.xml", xmark.PaperFilmDB))
		must(p.RegisterModule(filmModule, "http://x.example.org/film.xq"))
		must(p.RegisterModule(updModule, "http://x.example.org/upd.xq"))
		net.Register(uri, p.Handler())
		peers[uri] = p
	}
	local := xrpc.NewPeer("xrpc://local", net)
	must(local.RegisterModule(filmModule, "http://x.example.org/film.xq"))
	must(local.RegisterModule(updModule, "http://x.example.org/upd.xq"))

	count := func() string {
		res, err := local.Query(`
import module namespace f="films" at "http://x.example.org/film.xq";
for $dst in ("xrpc://y.example.org", "xrpc://z.example.org")
return execute at {$dst} {f:countFilms()}`)
		must(err)
		return res.Serialize()
	}
	fmt.Println("films per peer before update:", count())

	// a distributed updating query: the same film is added on both
	// peers, committed atomically via 2PC
	res, err := local.Query(`
import module namespace u="upd" at "http://x.example.org/upd.xq";
for $dst in ("xrpc://y.example.org", "xrpc://z.example.org")
return execute at {$dst} {u:addFilm("Dr. No", "Sean Connery")}`)
	must(err)
	fmt.Printf("updating query finished: updating=%v, participants=%v\n",
		res.Updating, res.Peers)
	fmt.Println("films per peer after commit: ", count())

	// each participant applied the transaction once at Commit: its store
	// moved from version 1 (the loaded document) to version 2
	for _, uri := range []string{"xrpc://y.example.org", "xrpc://z.example.org"} {
		fmt.Printf("%s store version after commit: %d\n", uri, peers[uri].Store.Version())
	}

	// repeatable read: both reads of y inside ONE query see the same
	// state, even though a concurrent update commits in between. Here
	// the two reads travel in one Bulk RPC, which (as §3.2 notes) is
	// itself enough to guarantee one state without extra isolation cost.
	res, err = local.Query(`
declare option xrpc:isolation "repeatable";
import module namespace f="films" at "http://x.example.org/film.xq";
for $i in (1, 2)
return execute at {"xrpc://y.example.org"} {f:countFilms()}`)
	must(err)
	fmt.Println("repeatable read counts:", res.Serialize())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
