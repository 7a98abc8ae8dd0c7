package cluster

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// KeyRange describes what one shard *contains* of one partitioned
// container: the child-ordinal slice [Lo,Hi) of the container whose
// children live at Path inside document Doc, plus — when the container
// is keyed — the inclusive key bounds of that slice under natural key
// order. Range metadata is what turns the routing table from "where
// shards live" into "what shards hold": single-shard routing of updates
// and predicate pruning of read scatters both resolve keys against it.
type KeyRange struct {
	// Doc is the document name the container lives in.
	Doc string
	// Path is the element path of the container's repeated children,
	// e.g. "/site/people/person".
	Path string
	// Lo, Hi bound the child-ordinal slice [Lo,Hi) this shard holds.
	Lo, Hi int
	// Keyed reports whether the container's children carry a key
	// attribute in strictly increasing natural order across the whole
	// document, making MinKey/MaxKey meaningful bounds.
	Keyed bool
	// KeyAttr is the attribute the keys are drawn from (e.g. "id").
	KeyAttr string
	// MinKey, MaxKey are the inclusive key bounds of this shard's slice
	// (empty when the slice is empty).
	MinKey, MaxKey string
	// Lex reports that the container's keys are strictly increasing in
	// plain codepoint order too (not just natural order) across the
	// whole document. XQuery string comparison is codepoint order, so
	// only then do MinKey/MaxKey bound the shard's keys under the order
	// a range predicate (@a >= $k) actually evaluates in — which is
	// what makes range-predicate pruning sound. Generated keys like
	// personN are natural-ordered but not codepoint-ordered ("person10"
	// < "person9"), so Lex stays false and range pruning stays off.
	Lex bool
}

// Empty reports whether the shard holds no children of this container.
func (r KeyRange) Empty() bool { return r.Lo >= r.Hi }

// Contains reports whether this shard's slice may hold the given key.
// Unkeyed ranges return true — without key bounds the shard can never
// be excluded (pruning must stay conservative); keyed empty slices
// return false.
func (r KeyRange) Contains(key string) bool {
	if !r.Keyed {
		return true // without key bounds the shard can never be excluded
	}
	if r.Empty() {
		return false
	}
	return CompareKeys(r.MinKey, key) <= 0 && CompareKeys(key, r.MaxKey) <= 0
}

// String renders the range as a single parseable descriptor (the form
// the shardInfo system call reports); ParseKeyRange round-trips it.
func (r KeyRange) String() string {
	s := fmt.Sprintf("%s %s [%d,%d)", strconv.Quote(r.Doc), strconv.Quote(r.Path), r.Lo, r.Hi)
	if r.Keyed {
		s += fmt.Sprintf(" %s %s %s", strconv.Quote(r.KeyAttr), strconv.Quote(r.MinKey), strconv.Quote(r.MaxKey))
		if r.Lex {
			s += " lex"
		}
	}
	return s
}

// quoted splits the Go-quoted string that leads rest, after spaces, from
// what follows it — the field syntax of both descriptors below.
func quoted(rest string) (value, tail string, ok bool) {
	rest = strings.TrimLeft(rest, " ")
	q, err := strconv.QuotedPrefix(rest)
	if err != nil {
		return "", rest, false
	}
	v, err := strconv.Unquote(q)
	if err != nil {
		return "", rest, false
	}
	return v, rest[len(q):], true
}

// ParseKeyRange parses a KeyRange.String() descriptor.
func ParseKeyRange(s string) (KeyRange, error) {
	var r KeyRange
	fail := func() (KeyRange, error) {
		return KeyRange{}, fmt.Errorf("cluster: malformed range descriptor %q", s)
	}
	rest := s
	var ok bool
	if r.Doc, rest, ok = quoted(rest); !ok {
		return fail()
	}
	if r.Path, rest, ok = quoted(rest); !ok {
		return fail()
	}
	rest = strings.TrimLeft(rest, " ")
	close := strings.IndexByte(rest, ')')
	if close < 0 {
		return fail()
	}
	if _, err := fmt.Sscanf(rest[:close+1], "[%d,%d)", &r.Lo, &r.Hi); err != nil {
		return fail()
	}
	rest = rest[close+1:]
	if strings.TrimSpace(rest) == "" {
		return r, nil
	}
	r.Keyed = true
	if r.KeyAttr, rest, ok = quoted(rest); !ok {
		return fail()
	}
	if r.MinKey, rest, ok = quoted(rest); !ok {
		return fail()
	}
	if r.MaxKey, rest, ok = quoted(rest); !ok {
		return fail()
	}
	rest = strings.TrimSpace(rest)
	if rest == "lex" {
		r.Lex = true
		rest = ""
	}
	if rest != "" {
		return fail()
	}
	return r, nil
}

// ElemLoc records where elements of one name live inside a partitioned
// document — the partition-time census that licenses a *derived* route
// to prune. A derived spec matches a path suffix like "person" against
// a keyed container, but `//person[@id=$k]` selects person elements
// anywhere in the document: rows of other containers (sliced across
// shards under different bounds), enclosing structure (replicated to
// every shard), or elements nested inside another container's rows
// (shipped wherever that row went). Pruning on the matched container's
// key bounds is sound only when its rows are provably the ONLY elements
// of that name — exactly what this census records. Emitted by the
// partitioner for every name that is the row name of some container.
type ElemLoc struct {
	// Doc is the document the census describes.
	Doc string
	// Name is the element name.
	Name string
	// Containers counts the containers whose rows bear Name. Two
	// containers may share one path (sibling repeats under a non-
	// container parent), so a count — not a path set — is what proves
	// uniqueness.
	Containers int
	// Path is the container path of the rows when Containers == 1.
	Path string
	// Outside reports that Name also occurs outside any container's
	// rows: as enclosing structure (replicated to every shard) or
	// nested inside some container's row subtrees.
	Outside bool
}

// String renders the census entry as a single parseable descriptor. The
// "elem" prefix keeps it from parsing as a KeyRange descriptor, so
// pre-existing shardInfo consumers skip it; ParseElemLoc round-trips it.
func (l ElemLoc) String() string {
	s := fmt.Sprintf("elem %s %s %d %s",
		strconv.Quote(l.Doc), strconv.Quote(l.Name), l.Containers, strconv.Quote(l.Path))
	if l.Outside {
		s += " outside"
	}
	return s
}

// ParseElemLoc parses an ElemLoc.String() descriptor.
func ParseElemLoc(s string) (ElemLoc, error) {
	var l ElemLoc
	fail := func() (ElemLoc, error) {
		return ElemLoc{}, fmt.Errorf("cluster: malformed element-location descriptor %q", s)
	}
	rest, ok := strings.CutPrefix(s, "elem ")
	if !ok {
		return fail()
	}
	if l.Doc, rest, ok = quoted(rest); !ok {
		return fail()
	}
	if l.Name, rest, ok = quoted(rest); !ok {
		return fail()
	}
	rest = strings.TrimLeft(rest, " ")
	sp := strings.IndexByte(rest, ' ')
	if sp < 0 {
		sp = len(rest)
	}
	n, err := strconv.Atoi(rest[:sp])
	if err != nil {
		return fail()
	}
	l.Containers = n
	rest = rest[sp:]
	if l.Path, rest, ok = quoted(rest); !ok {
		return fail()
	}
	rest = strings.TrimSpace(rest)
	if rest == "outside" {
		l.Outside = true
		rest = ""
	}
	if rest != "" {
		return fail()
	}
	return l, nil
}

// CompareKeys orders partition keys "naturally": maximal runs of ASCII
// digits compare as integers ("person2" < "person10"), everything else
// byte-wise. This is the order the partitioner checks container keys
// against and the order Contains resolves probes with — plain
// lexicographic order would mis-route generated keys like personN.
// Returns -1, 0, or +1.
func CompareKeys(a, b string) int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ca, cb := a[i], b[j]
		da, db := ca >= '0' && ca <= '9', cb >= '0' && cb <= '9'
		if da && db {
			// compare the full digit runs numerically
			si, sj := i, j
			for i < len(a) && a[i] >= '0' && a[i] <= '9' {
				i++
			}
			for j < len(b) && b[j] >= '0' && b[j] <= '9' {
				j++
			}
			na, nb := strings.TrimLeft(a[si:i], "0"), strings.TrimLeft(b[sj:j], "0")
			if len(na) != len(nb) {
				if len(na) < len(nb) {
					return -1
				}
				return 1
			}
			if c := strings.Compare(na, nb); c != 0 {
				return c
			}
			continue
		}
		if ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
		i++
		j++
	}
	switch {
	case len(a)-i < len(b)-j:
		return -1
	case len(a)-i > len(b)-j:
		return 1
	}
	return strings.Compare(a, b) // leading-zero tie-break, for stability
}

// RoutingTable maps shard index → peer URIs plus per-shard range
// metadata. Each shard has one or more replicas (primary first); the
// coordinator fails over to the next replica when a peer is unreachable
// at the transport level, and evicts replicas that fall behind their
// primary (version fencing) so they stop serving stale reads. The table
// is URI-scheme agnostic: the same table drives simulated peers on a
// netsim.Network and real HTTP peers (xrpcd -shard k -of n).
type RoutingTable struct {
	mu       sync.RWMutex
	replicas [][]string
	ranges   [][]KeyRange
	// locs is the partition-time element-name census, doc → name →
	// ElemLoc (see ElemLoc). Derived routes consult it through
	// FindContainer; absence of an entry means "unproven" and rejects
	// the derivation — registered specs never read it.
	locs map[string]map[string]ElemLoc
	// validKnown/validErr cache Validate's verdict between mutations, so
	// the per-request validity check on the scatter/update hot path is a
	// flag read, not a full table walk.
	validKnown bool
	validErr   error
}

// NewRoutingTable creates an empty table for n shards.
func NewRoutingTable(n int) (*RoutingTable, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: routing table for %d shards", n)
	}
	return &RoutingTable{
		replicas: make([][]string, n),
		ranges:   make([][]KeyRange, n),
	}, nil
}

// Add registers a peer URI serving the given shard. The first peer
// added for a shard is its primary; later peers are failover replicas
// in registration order.
func (rt *RoutingTable) Add(shard int, uri string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if shard < 0 || shard >= len(rt.replicas) {
		return fmt.Errorf("cluster: shard %d out of range [0,%d)", shard, len(rt.replicas))
	}
	rt.replicas[shard] = append(rt.replicas[shard], uri)
	rt.validKnown = false
	return nil
}

// Evict removes a peer URI from the shard's replica list — the
// coordinator's response to a replica that failed PUL replication or
// reported a diverged store version after commit. The last remaining
// peer of a shard is never evicted (a routable-but-stale shard beats an
// unroutable one; the primary's failure surfaces as a transaction
// error instead). Reports whether the URI was removed.
func (rt *RoutingTable) Evict(shard int, uri string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if shard < 0 || shard >= len(rt.replicas) || len(rt.replicas[shard]) <= 1 {
		return false
	}
	for i, u := range rt.replicas[shard] {
		if u == uri {
			rt.replicas[shard] = append(rt.replicas[shard][:i:i], rt.replicas[shard][i+1:]...)
			rt.validKnown = false
			return true
		}
	}
	return false
}

// SetRanges records the shard's partition metadata (what the
// partitioner emitted for this shard).
func (rt *RoutingTable) SetRanges(shard int, ranges []KeyRange) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if shard < 0 || shard >= len(rt.ranges) {
		return fmt.Errorf("cluster: shard %d out of range [0,%d)", shard, len(rt.ranges))
	}
	rt.ranges[shard] = append([]KeyRange(nil), ranges...)
	rt.validKnown = false
	return nil
}

// SetElemLocs records the element-name census of one document (what
// the partitioner emitted; identical for every shard of the document).
// Entries replace any previous census for the same (doc, name).
func (rt *RoutingTable) SetElemLocs(locs []ElemLoc) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.locs == nil {
		rt.locs = make(map[string]map[string]ElemLoc)
	}
	for _, l := range locs {
		byName := rt.locs[l.Doc]
		if byName == nil {
			byName = make(map[string]ElemLoc)
			rt.locs[l.Doc] = byName
		}
		byName[l.Name] = l
	}
}

// ElemLocFor returns the recorded census entry for an element name of a
// document (false when the partitioner emitted none).
func (rt *RoutingTable) ElemLocFor(doc, name string) (ElemLoc, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	l, ok := rt.locs[doc][name]
	return l, ok
}

// Ranges returns the shard's partition metadata.
func (rt *RoutingTable) Ranges(shard int) []KeyRange {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if shard < 0 || shard >= len(rt.ranges) {
		return nil
	}
	return append([]KeyRange(nil), rt.ranges[shard]...)
}

func rangeFor(ranges []KeyRange, doc, path string) (KeyRange, bool) {
	for _, r := range ranges {
		if r.Doc == doc && r.Path == path {
			return r, true
		}
	}
	return KeyRange{}, false
}

// Prunable reports whether the table holds keyed range metadata for the
// container — i.e. whether a key probe against it can exclude at least
// some shard. Without any keyed range, pruning degenerates to broadcast
// and the coordinator keeps the cheaper encode-once scatter path.
func (rt *RoutingTable) Prunable(doc, path string) bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	for _, ranges := range rt.ranges {
		if r, ok := rangeFor(ranges, doc, path); ok && r.Keyed {
			return true
		}
	}
	return false
}

// CandidateShards returns the shards whose range for (doc, path) may
// contain the key, in shard order. Shards without metadata for the
// container are always candidates — a shard is excluded only when its
// range proves the key absent, so pruning can never change results.
func (rt *RoutingTable) CandidateShards(doc, path, key string) []int {
	return rt.CandidateShardsOp(doc, path, key, "=")
}

// containsOp reports whether this shard's slice may hold a key
// satisfying `@attr op key`. Equality resolves in natural key order
// (Contains); range operators resolve in codepoint order — the order
// XQuery string comparison uses — and can only exclude a shard whose
// container is Lex (codepoint-sorted), because only then are
// MinKey/MaxKey codepoint bounds of the slice.
func (r KeyRange) containsOp(key, op string) bool {
	if op == "=" {
		return r.Contains(key)
	}
	if !r.Keyed || !r.Lex {
		return true
	}
	if r.Empty() {
		return false
	}
	switch op {
	case "<":
		return strings.Compare(r.MinKey, key) < 0
	case "<=":
		return strings.Compare(r.MinKey, key) <= 0
	case ">":
		return strings.Compare(r.MaxKey, key) > 0
	case ">=":
		return strings.Compare(r.MaxKey, key) >= 0
	}
	return true // unknown operator: never exclude
}

// CandidateShardsOp generalizes CandidateShards to range predicates:
// the shards whose range may hold a key satisfying `@attr op key`, in
// shard order. Same conservatism: a shard is excluded only when its
// range proves no key can match.
func (rt *RoutingTable) CandidateShardsOp(doc, path, key, op string) []int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]int, 0, len(rt.replicas))
	for s := range rt.replicas {
		r, ok := rangeFor(rt.ranges[s], doc, path)
		if !ok || r.containsOp(key, op) {
			out = append(out, s)
		}
	}
	return out
}

// FindContainer locates the unique keyed container whose path matches
// the derived pattern: the full rooted path when rooted, otherwise a
// path whose trailing steps equal the suffix ("person" matches
// "/site/people/person") — and proves the match is the only place the
// selected elements can live. Three checks, each rejecting to the safe
// broadcast fallback:
//
//  1. Exactly one container path (keyed or not) may match the pattern —
//     a non-keyed container ending in the same steps holds same-named
//     rows with no key bounds, so pruning on the keyed one would drop
//     its rows on excluded shards.
//  2. The unique match must be keyed (unkeyed bounds prune nothing).
//  3. The partitioner's element-name census (ElemLoc) must prove the
//     matched container's rows are the ONLY elements of that name in
//     the document: one container bears the name, at this path, and the
//     name never occurs outside container rows (enclosing structure is
//     replicated to every shard; elements nested inside another
//     container's rows travel with that row's key, not their own). A
//     document or table without a census entry matches nothing — a
//     derived spec must never guess.
func (rt *RoutingTable) FindContainer(doc, suffix string, rooted bool) (KeyRange, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	matched := map[string]KeyRange{}
	for _, ranges := range rt.ranges {
		for _, r := range ranges {
			if r.Doc != doc {
				continue
			}
			if rooted {
				if r.Path != suffix {
					continue
				}
			} else if r.Path != suffix && !strings.HasSuffix(r.Path, "/"+suffix) {
				continue
			}
			matched[r.Path] = r
		}
	}
	if len(matched) != 1 {
		return KeyRange{}, false
	}
	for _, r := range matched {
		if !r.Keyed {
			return KeyRange{}, false
		}
		name := suffix[strings.LastIndexByte(suffix, '/')+1:]
		loc, ok := rt.locs[doc][name]
		if !ok || loc.Containers != 1 || loc.Path != r.Path || loc.Outside {
			return KeyRange{}, false
		}
		return r, true
	}
	return KeyRange{}, false
}

// NumShards returns the number of shards the table routes.
func (rt *RoutingTable) NumShards() int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return len(rt.replicas)
}

// Replicas returns the peer URIs serving the shard, primary first.
func (rt *RoutingTable) Replicas(shard int) []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if shard < 0 || shard >= len(rt.replicas) {
		return nil
	}
	out := make([]string, len(rt.replicas[shard]))
	copy(out, rt.replicas[shard])
	return out
}

// Primary returns the primary peer URI of the shard ("" if none).
func (rt *RoutingTable) Primary(shard int) string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if shard < 0 || shard >= len(rt.replicas) || len(rt.replicas[shard]) == 0 {
		return ""
	}
	return rt.replicas[shard][0]
}

// ReplicationFactor returns the smallest replica count across shards
// (0 if any shard has no peer — an incomplete table).
func (rt *RoutingTable) ReplicationFactor() int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	min := -1
	for _, r := range rt.replicas {
		if min == -1 || len(r) < min {
			min = len(r)
		}
	}
	if min == -1 {
		min = 0
	}
	return min
}

// Validate checks the table is actually routable, not merely non-empty:
// every shard must have at least one peer (no shard-index gaps), every
// peer URI must be well-formed, no URI may serve twice (a duplicate
// would make "failover to the next replica" retry the same peer), and
// range metadata — when present — must tile each container contiguously
// across the shards with consistent keying. Returns the first problem
// found, nil for a valid table. The verdict is cached between mutations
// (the coordinator re-checks it on every request).
func (rt *RoutingTable) Validate() error {
	rt.mu.RLock()
	if rt.validKnown {
		err := rt.validErr
		rt.mu.RUnlock()
		return err
	}
	rt.mu.RUnlock()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !rt.validKnown {
		rt.validErr = rt.validateLocked()
		rt.validKnown = true
	}
	return rt.validErr
}

func (rt *RoutingTable) validateLocked() error {
	if len(rt.replicas) == 0 {
		return fmt.Errorf("cluster: routing table has no shards")
	}
	seen := map[string]string{} // uri -> "shard s replica j"
	for s, reps := range rt.replicas {
		if len(reps) == 0 {
			return fmt.Errorf("cluster: shard %d has no peers (shard-index gap)", s)
		}
		for j, uri := range reps {
			where := fmt.Sprintf("shard %d replica %d", s, j)
			if err := validateURI(uri); err != nil {
				return fmt.Errorf("cluster: %s: %w", where, err)
			}
			if prev, dup := seen[uri]; dup {
				return fmt.Errorf("cluster: duplicate peer URI %q (%s and %s)", uri, prev, where)
			}
			seen[uri] = where
		}
	}
	return rt.validateRangesLocked()
}

func validateURI(uri string) error {
	if strings.TrimSpace(uri) == "" {
		return fmt.Errorf("empty peer URI")
	}
	if strings.ContainsAny(uri, " \t\r\n") {
		return fmt.Errorf("malformed peer URI %q: contains whitespace", uri)
	}
	if i := strings.Index(uri, "://"); i >= 0 {
		if i == 0 {
			return fmt.Errorf("malformed peer URI %q: empty scheme", uri)
		}
		if uri[i+len("://"):] == "" {
			return fmt.Errorf("malformed peer URI %q: empty host", uri)
		}
	}
	return nil
}

func (rt *RoutingTable) validateRangesLocked() error {
	// collect the containers any shard declares
	type contKey struct{ doc, path string }
	conts := map[contKey]bool{}
	declared := false
	for _, ranges := range rt.ranges {
		for _, r := range ranges {
			conts[contKey{r.Doc, r.Path}] = true
			declared = true
		}
	}
	if !declared {
		return nil
	}
	for c := range conts {
		prevHi := 0
		keyAttr := ""
		for s := range rt.ranges {
			r, ok := rangeFor(rt.ranges[s], c.doc, c.path)
			if !ok {
				return fmt.Errorf("cluster: shard %d missing range metadata for %s %s", s, c.doc, c.path)
			}
			if r.Lo > r.Hi || r.Lo < 0 {
				return fmt.Errorf("cluster: shard %d has inverted range [%d,%d) for %s %s", s, r.Lo, r.Hi, c.doc, c.path)
			}
			if r.Lo != prevHi {
				return fmt.Errorf("cluster: range gap at shard %d for %s %s: starts at %d, previous shard ended at %d",
					s, c.doc, c.path, r.Lo, prevHi)
			}
			prevHi = r.Hi
			if r.Keyed {
				if keyAttr == "" {
					keyAttr = r.KeyAttr
				} else if r.KeyAttr != keyAttr {
					return fmt.Errorf("cluster: shard %d keys %s %s by %q, earlier shards by %q",
						s, c.doc, c.path, r.KeyAttr, keyAttr)
				}
				if !r.Empty() && CompareKeys(r.MinKey, r.MaxKey) > 0 {
					return fmt.Errorf("cluster: shard %d has inverted key bounds %q..%q for %s %s",
						s, r.MinKey, r.MaxKey, c.doc, c.path)
				}
			}
		}
	}
	return nil
}
