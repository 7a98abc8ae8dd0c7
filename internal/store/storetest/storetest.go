// Package storetest reads a store's latest state from tests. Every read
// pins a snapshot until the test ends, so a node it returns stays as it
// was whatever commits later (they clone instead of writing in place).
package storetest

import (
	"testing"

	"xrpc/internal/store"
	"xrpc/internal/xdm"
)

// Latest resolves fn:doc against st's current version at each lookup
// (rule R_Fr).
func Latest(t testing.TB, st *store.Store) *Resolver {
	return &Resolver{t: t, st: st}
}

// Resolver is Latest's document resolver.
type Resolver struct {
	t  testing.TB
	st *store.Store
}

// Doc implements the fn:doc resolver.
func (r *Resolver) Doc(uri string) (*xdm.Node, error) {
	sn := r.st.Snapshot()
	r.t.Cleanup(sn.Release)
	return sn.Doc(uri)
}

// Doc returns the current tree of the named document, or nil.
func Doc(t testing.TB, st *store.Store, name string) *xdm.Node {
	doc, _ := Latest(t, st).Doc(name)
	return doc
}
