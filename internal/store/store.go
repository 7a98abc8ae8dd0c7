// Package store implements the XML database state db(t) from the paper's
// formal semantics (§2.2): a set of named documents with versioned,
// pinned snapshots. Snapshots give XRPC its repeatable-read isolation
// level (rule R'_Fr): every request carrying the same queryID is
// evaluated against the same Snapshot.
//
// Documents are immutable while pinned. Every reader holds a Snapshot,
// which pins its version until Release; there is no unpinned read. A
// commit (Commit, XQUF applyUpdates) writes a document's live tree in
// place when no snapshot but the committing transaction's own pins that
// tree, and otherwise writes a clone and swaps it in under the same name
// — copy on pin. Either way the version steps once and the pinned
// snapshots keep the trees they hold, which is the shadow-paging
// behaviour the paper ascribes to MonetDB/XQuery, paid only when a
// reader is there to see the old state. A commit never waits for a
// reader.
//
// A version also carries what readers derive from its documents (see
// Snapshot.Derived): interp's step and predicate-index tables are built
// once per version and shared by every request that pins it. The
// version is the fence: a version step starts with none, save one case,
// and a commit that writes a tree in place, which it does only when no
// snapshot but the committer's own pins that tree, drops what the
// versions holding it derived. The one case is a commit that wrote in
// place, cloned nothing, put nothing and registered a carry (Tx.Carry):
// its callback edits the superseded version's value into the new
// version's, under the write lock, while no reader but the committer
// can hold that value. So no table is read after the nodes it was
// built from change, unless the committer's callback vouched for it.
package store

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"xrpc/internal/xdm"
)

// Store is a thread-safe named-document database.
type Store struct {
	mu  sync.RWMutex
	cur *version
	// held are the superseded versions that were pinned when superseded:
	// they may share trees with cur, and a pin on one keeps a commit off
	// those trees. Pruned at each version step once unpinned.
	held []*version
	// commits by path (see Commit)
	inPlace, cloned atomic.Int64
}

// version is one db(t): the document map of one store version, the
// count of snapshots pinning it and what readers derived from it.
type version struct {
	docs map[string]*xdm.Node
	n    int64
	pins atomic.Int64
	// derived is nil once the version is dropped (see drop)
	derived atomic.Pointer[derived]
}

// derived is a version's side value, built at most once.
type derived struct {
	once sync.Once
	val  any
}

func newVersion(docs map[string]*xdm.Node, n int64) *version {
	v := &version{docs: docs, n: n}
	v.derived.Store(&derived{})
	return v
}

// drop lets go of the version's derived value: it is superseded and
// unpinned, or a commit wrote its trees in place.
func (v *version) drop() { v.derived.Store(nil) }

// New creates an empty store.
func New() *Store {
	return &Store{cur: newVersion(map[string]*xdm.Node{}, 0)}
}

// LoadXML parses text and stores it under name.
func (s *Store) LoadXML(name, text string) error {
	doc, err := xdm.ParseDocument(name, text)
	if err != nil {
		return fmt.Errorf("store: load %s: %w", name, err)
	}
	s.Put(name, doc)
	return nil
}

// Put stores (or replaces) a document under name, bumping the version.
// The caller must not mutate doc afterwards.
func (s *Store) Put(name string, doc *xdm.Node) {
	s.mu.Lock()
	defer s.mu.Unlock()
	docs := s.cur.copyDocs()
	docs[name] = doc
	s.stepLocked(docs, s.cur.n+1)
}

// Restore replaces the entire store contents and sets the version
// exactly — no bump. It is the recovery entry point: a peer restoring a
// durable snapshot must come back at the version the snapshot was taken
// at, so the version keeps working as a replication fence across
// restarts. The caller must not mutate the documents afterwards.
func (s *Store) Restore(docs map[string]*xdm.Node, version int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := make(map[string]*xdm.Node, len(docs))
	for name, doc := range docs {
		next[name] = doc
	}
	s.stepLocked(next, version)
}

// Delete removes a document.
func (s *Store) Delete(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	docs := s.cur.copyDocs()
	delete(docs, name)
	s.stepLocked(docs, s.cur.n+1)
}

// stepLocked makes docs the current version n, keeping the superseded
// one while it is pinned. A version no snapshot pins any more drops its
// derived value here.
func (s *Store) stepLocked(docs map[string]*xdm.Node, n int64) {
	held := s.held[:0]
	for _, v := range s.held {
		if v.pins.Load() > 0 {
			held = append(held, v)
		} else {
			v.drop()
		}
	}
	clear(s.held[len(held):])
	if s.cur.pins.Load() > 0 {
		held = append(held, s.cur)
	} else {
		s.cur.drop()
	}
	s.held = held
	s.cur = newVersion(docs, n)
}

func (v *version) copyDocs() map[string]*xdm.Node {
	docs := make(map[string]*xdm.Node, len(v.docs)+1)
	for name, doc := range v.docs {
		docs[name] = doc
	}
	return docs
}

// Commit runs apply as one transaction and publishes what it writes as
// the next version, one step: a reader never observes a prefix of a
// commit, and one committed transaction is one version step. The latter
// is what makes the version usable as a replication fence — a primary
// and a replica that applied the same sequence of commits to the same
// initial documents are at the same version, so a version mismatch
// after commit proves the replica diverged.
//
// apply runs under the store's write lock and reaches the documents
// through tx only (a call back into the Store deadlocks). own is the committing transaction's snapshot (nil if
// it has none): its pin does not keep the commit off a tree. When apply
// fails, nothing is published; apply must fail before it writes a tree
// Writable returned, since that tree may be the live one.
func (s *Store) Commit(own *Snapshot, apply func(tx *Tx) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tx := &Tx{s: s, docs: s.cur.copyDocs()}
	if own != nil {
		tx.own = own.v
	}
	if err := apply(tx); err != nil {
		return err
	}
	if tx.cloned {
		s.cloned.Add(1)
	} else {
		s.inPlace.Add(1)
	}
	var carried any
	if tx.carry != nil && tx.wroteLive && !tx.cloned && !tx.put {
		// in place and nothing cloned: no snapshot but the committer's
		// own pins the superseded version, so nobody reads its value
		if d := s.cur.derived.Load(); d != nil {
			d.once.Do(func() {}) // a value not built by now never is
			if d.val != nil {
				carried = tx.carry(d.val)
			}
		}
	}
	if tx.wroteLive {
		// the only pin left on the written trees is the committer's own:
		// its tables describe trees that are no longer as they were
		s.cur.drop()
		if tx.own != nil {
			tx.own.drop()
		}
	}
	s.stepLocked(tx.docs, s.cur.n+1)
	if carried != nil {
		d := s.cur.derived.Load()
		d.once.Do(func() { d.val = carried })
	}
	return nil
}

// Commits reports how many commits wrote every document in place and
// how many cloned at least one because a reader pinned it.
func (s *Store) Commits() (inPlace, cloned int64) {
	return s.inPlace.Load(), s.cloned.Load()
}

// Tx is one commit's access to the documents (see Commit). It is valid
// only inside apply.
type Tx struct {
	s         *Store
	own       *version
	docs      map[string]*xdm.Node // the version being built
	cloned    bool
	wroteLive bool // Writable handed out a live tree
	put       bool
	carry     func(old any) any
}

// Carry registers the commit's hand-over of derived values: when the
// commit wrote in place, cloned nothing and put nothing, carry receives
// the superseded version's derived value, if it was built, and returns
// the new version's (nil for none). It runs under the write lock, after
// apply succeeded. Without a Carry, or when any condition fails, the
// new version starts with no derived value.
func (tx *Tx) Carry(carry func(old any) any) { tx.carry = carry }

// Writable returns a tree of the named document that the commit may
// mutate, or nil if no such document is stored: the live tree itself
// when no snapshot other than the committing transaction's own pins it,
// otherwise a clone (same ordinals, same Shape) that replaces it in the
// new version. Repeated calls return the same tree.
func (tx *Tx) Writable(name string) *xdm.Node {
	doc, ok := tx.docs[name]
	if !ok {
		return nil
	}
	live := tx.s.cur.docs[name]
	if doc != live || !tx.pinned(name, live) {
		tx.wroteLive = tx.wroteLive || doc == live
		return doc
	}
	c := live.Clone()
	c.SetDocURI(name)
	tx.docs[name] = c
	tx.cloned = true
	return c
}

// pinned reports whether a snapshot other than the transaction's own
// holds doc under name.
func (tx *Tx) pinned(name string, doc *xdm.Node) bool {
	check := func(v *version) bool {
		if v.docs[name] != doc {
			return false
		}
		pins := v.pins.Load()
		if v == tx.own {
			pins--
		}
		return pins > 0
	}
	if check(tx.s.cur) {
		return true
	}
	for _, v := range tx.s.held {
		if check(v) {
			return true
		}
	}
	return false
}

// Put stores (or replaces) a whole document in the new version (fn:put).
func (tx *Tx) Put(name string, doc *xdm.Node) {
	tx.docs[name] = doc
	tx.put = true
}

// Version returns the current store version (monotonically increasing).
func (s *Store) Version() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cur.n
}

// Names returns the sorted names of all stored documents.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cur.names()
}

// Snapshot pins the current database state db(t): a consistent view of
// all documents that no later commit changes. The caller must Release
// it once nothing reads its documents any more; until then every commit
// to a document it holds pays for a copy.
func (s *Store) Snapshot() *Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.cur.pins.Add(1)
	return &Snapshot{v: s.cur}
}

// Snapshot is a pinned view of the store at one version.
type Snapshot struct {
	v        *version
	released atomic.Bool
}

// Retain returns a second handle on the snapshot's version, pinned
// until its own Release. The snapshot must not be released yet.
func (sn *Snapshot) Retain() *Snapshot {
	sn.v.pins.Add(1)
	return &Snapshot{v: sn.v}
}

// Release unpins the snapshot; its documents must not be read
// afterwards. Releasing twice (or a nil snapshot) is a no-op.
func (sn *Snapshot) Release() {
	if sn != nil && sn.released.CompareAndSwap(false, true) {
		sn.v.pins.Add(-1)
	}
}

// Derived returns the value derived from the snapshot's version,
// calling build on the version's first use only, so every snapshot of
// one version shares it. The store never reads the value: it drops it
// when the version is superseded and unpinned, or when a commit writes
// the version's trees in place (possible only while the committer's own
// snapshot is the one pinning them), and Derived returns nil from then
// on. A version step starts with none, unless the commit carried the
// superseded version's value over (Tx.Carry).
func (sn *Snapshot) Derived(build func() any) any {
	d := sn.v.derived.Load()
	if d == nil {
		return nil
	}
	d.once.Do(func() { d.val = build() })
	return d.val
}

// Get returns the named document in the snapshot.
func (sn *Snapshot) Get(name string) (*xdm.Node, bool) {
	d, ok := sn.v.docs[name]
	return d, ok
}

// Doc implements the fn:doc resolver against the snapshot (repeatable
// read, rule R'_Fr).
func (sn *Snapshot) Doc(uri string) (*xdm.Node, error) {
	d, ok := sn.v.docs[uri]
	if !ok {
		return nil, xdm.Errorf("FODC0002", "document %q not found", uri)
	}
	return d, nil
}

// Version returns the store version the snapshot was taken at.
func (sn *Snapshot) Version() int64 { return sn.v.n }

// Names returns the sorted names of the snapshot's documents (used by
// durable-snapshot writers that must serialize one consistent state).
func (sn *Snapshot) Names() []string { return sn.v.names() }

func (v *version) names() []string {
	out := make([]string, 0, len(v.docs))
	for n := range v.docs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
