// Package cluster adds a horizontal scaling layer on top of the XRPC
// stack: a partitioner that splits a document across N shard peers by
// subtree ranges, a routing table mapping shards to replicated peer
// URIs, and a scatter-gather coordinator that fans one read-only Bulk
// RPC out to every shard and merges the responses so that the merged
// result is indistinguishable from a single peer holding the whole
// document.
//
// The paper's Bulk RPC amortizes per-call network cost between two
// peers; this package amortizes document size across many. Partitioning
// plus parallel scan is the classic lever once single-node operator
// speed is exhausted (cf. Szépkúti, "On the Scalability of
// Multidimensional Databases"): each shard peer scans 1/N of the data,
// the coordinator ships 1/N of the result bytes per link, and shard
// responses travel concurrently.
//
// The coordinator implements pathfinder.BulkCaller, so the whole
// loop-lifting pipeline is cluster-transparent: an `execute at
// {"xrpc://cluster"}` inside a for-loop loop-lifts into ONE bulk
// request, which the coordinator scatters to all shards.
package cluster

import (
	"fmt"
	"strings"

	"xrpc/internal/xdm"
)

// PartitionWithMeta splits an XML document into n shard documents by
// subtree ranges. A "container" is an element whose element children all
// share one name (with at most whitespace text between them) —
// people/person, closed_auctions/closed_auction, films/film. Shard k of
// n receives the k-th contiguous slice of every container's children, so
// concatenating per-shard query results in shard order reproduces
// document order.
//
// Content outside containers (the enclosing structure, and any document
// with no repeated subtrees at all) is replicated to every shard:
// small reference documents stay fully available next to the sharded
// fact data, at the cost of scatter-gather identity only holding for
// queries that select inside partitioned containers.
//
// Beside the texts it returns each shard's partition metadata: one
// KeyRange per container per shard, recording the child-ordinal slice
// the shard received and — when the container's children carry a common
// attribute whose values are strictly increasing in natural order
// (persons.xml ids, for example) — the key bounds of that slice. The
// ranges are what a RoutingTable needs to route single-shard updates and
// prune key-predicate scatters. Last comes the document's element-name
// census (one ElemLoc per container row name; identical for every
// shard) — the metadata FindContainer needs before a compiler-derived
// route may prune anything.
func PartitionWithMeta(name, xml string, n int) ([]string, [][]KeyRange, []ElemLoc, error) {
	if n < 1 {
		return nil, nil, nil, fmt.Errorf("cluster: partition into %d shards", n)
	}
	doc, err := xdm.ParseDocument(name, xml)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("cluster: partition %s: %w", name, err)
	}
	texts := make([]string, n)
	ranges := make([][]KeyRange, n)
	for k := 0; k < n; k++ {
		texts[k] = xdm.SerializeNode(shardTree(doc, k, n, name, "", &ranges[k]))
	}
	return texts, ranges, docElemLocs(doc, name), nil
}

// PartitionShardWithMeta returns only shard k of n (what one xrpcd
// -shard k -of n peer loads), without materializing the other shards,
// with its partition metadata and the document's element-name census
// (shard-independent; every shard reports the same census via
// shardInfo).
func PartitionShardWithMeta(name, xml string, k, n int) (string, []KeyRange, []ElemLoc, error) {
	if k < 0 || k >= n {
		return "", nil, nil, fmt.Errorf("cluster: shard %d out of range [0,%d)", k, n)
	}
	doc, err := xdm.ParseDocument(name, xml)
	if err != nil {
		return "", nil, nil, fmt.Errorf("cluster: partition %s: %w", name, err)
	}
	var ranges []KeyRange
	return xdm.SerializeNode(shardTree(doc, k, n, name, "", &ranges)), ranges, docElemLocs(doc, name), nil
}

// isContainer reports whether n's children are a run of same-named
// elements (≥2, whitespace-only text between them) — a partitionable
// repeated subtree.
func isContainer(n *xdm.Node) bool {
	name := ""
	elems := 0
	for _, c := range n.Children {
		switch c.Kind {
		case xdm.ElementNode:
			if elems == 0 {
				name = c.Name
			} else if c.Name != name {
				return false
			}
			elems++
		case xdm.TextNode:
			if strings.TrimSpace(c.Value) != "" {
				return false // mixed content is never partitioned
			}
		}
	}
	return elems >= 2
}

// containerKey detects the container's partition key: an attribute
// every child element carries, with values strictly increasing in
// natural key order across the whole container. "id" is preferred when
// it qualifies; otherwise the first qualifying attribute of the first
// child (in its attribute order) wins, deterministically. Returns
// ("", nil) for unkeyed containers — pruning then stays disabled for
// them, which is always sound.
// The third return reports whether the keys are strictly increasing in
// plain codepoint order as well (KeyRange.Lex): only then can range
// predicates — which XQuery evaluates in codepoint order — be pruned
// against the natural-order shard bounds.
func containerKey(kids []*xdm.Node) (string, []string, bool) {
	if len(kids) == 0 {
		return "", nil, false
	}
	var candidates []string
	if _, ok := kids[0].Attr("id"); ok {
		candidates = append(candidates, "id")
	}
	for _, a := range kids[0].Attrs {
		if a.Name != "id" {
			candidates = append(candidates, a.Name)
		}
	}
next:
	for _, attr := range candidates {
		keys := make([]string, len(kids))
		lex := true
		for i, ch := range kids {
			v, ok := ch.Attr(attr)
			if !ok {
				continue next
			}
			if i > 0 && CompareKeys(keys[i-1], v) >= 0 {
				continue next // not strictly increasing: bounds would lie
			}
			if i > 0 && strings.Compare(keys[i-1], v) >= 0 {
				lex = false
			}
			keys[i] = v
		}
		return attr, keys, lex
	}
	return "", nil, false
}

// shardTree builds shard k's copy of the tree under n: containers keep
// only their k-th child range (copied whole, nested repeats intact),
// everything else is copied verbatim and recursed into. Each container
// encountered appends shard k's KeyRange to *ranges.
func shardTree(n *xdm.Node, k, shards int, doc, path string, ranges *[]KeyRange) *xdm.Node {
	c := &xdm.Node{Kind: n.Kind, Name: n.Name, Value: n.Value, TypeAnn: n.TypeAnn}
	for _, a := range n.Attrs {
		c.SetAttr(xdm.NewAttribute(a.Name, a.Value))
	}
	if n.Kind != xdm.DocumentNode && n.Kind != xdm.ElementNode {
		return c
	}
	if n.Kind == xdm.ElementNode {
		path += "/" + n.Name
	}
	if isContainer(n) {
		kids := n.ChildElements()
		lo, hi := k*len(kids)/shards, (k+1)*len(kids)/shards
		r := KeyRange{Doc: doc, Path: path + "/" + kids[0].Name, Lo: lo, Hi: hi}
		if attr, keys, lex := containerKey(kids); attr != "" {
			r.Keyed, r.KeyAttr, r.Lex = true, attr, lex
			if lo < hi {
				r.MinKey, r.MaxKey = keys[lo], keys[hi-1]
			}
		}
		*ranges = append(*ranges, r)
		for _, ch := range kids[lo:hi] {
			cc := ch.Clone()
			c.AppendChild(cc)
		}
		return c
	}
	for _, ch := range n.Children {
		c.AppendChild(shardTree(ch, k, shards, doc, path, ranges))
	}
	return c
}

// docElemLocs walks the document the way shardTree does — recursion
// stops at containers, rows are copied whole — and classifies every
// element occurrence: a row of a top-level container, or "outside"
// (enclosing structure, which replication puts on every shard, and
// anything nested below a row, which travels with the row's key). The
// census is returned only for names that are container row names —
// other names can never match a container range, so derived routing
// never asks about them — in deterministic document order.
func docElemLocs(doc *xdm.Node, name string) []ElemLoc {
	acc := map[string]*ElemLoc{}
	var order []string
	get := func(elem string) *ElemLoc {
		l, ok := acc[elem]
		if !ok {
			l = &ElemLoc{Doc: name, Name: elem}
			acc[elem] = l
			order = append(order, elem)
		}
		return l
	}
	var markOutside func(n *xdm.Node)
	markOutside = func(n *xdm.Node) {
		for _, c := range n.Children {
			if c.Kind == xdm.ElementNode {
				get(c.Name).Outside = true
				markOutside(c)
			}
		}
	}
	var walk func(n *xdm.Node, path string)
	walk = func(n *xdm.Node, path string) {
		if n.Kind == xdm.ElementNode {
			path += "/" + n.Name
		}
		if isContainer(n) {
			kids := n.ChildElements()
			l := get(kids[0].Name)
			l.Containers++
			l.Path = path + "/" + kids[0].Name
			for _, ch := range kids {
				markOutside(ch) // descendants of rows: nested occurrences
			}
			return
		}
		for _, c := range n.Children {
			if c.Kind == xdm.ElementNode {
				get(c.Name).Outside = true
				walk(c, path)
			}
		}
	}
	walk(doc, "")
	var out []ElemLoc
	for _, elem := range order {
		if l := acc[elem]; l.Containers > 0 {
			out = append(out, *l)
		}
	}
	return out
}
