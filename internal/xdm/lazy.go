package xdm

import (
	"bytes"
	"math"
	"sync"
	"sync/atomic"
)

// lazy.go builds a received tree only as far as a reader steps into it.
// LazyElement and LazyChildren take an item of a message the caller
// keeps whole (a buffered response body) in one pass that tokenizes and
// checks its content exactly as BuildElement would — the same input is
// rejected, so a build that comes later cannot fail — but builds only
// the item root's start tag. The pass records, for each direct child of
// the root, its byte span, its node count and whether its content is
// canonical: byte for byte what WriteNode writes for it. The root is
// then a lazy node (Node.lazy) whose node count reserves the ordinals
// of its content, so every node gets the ordinal an eager Seal gives.
//
// What builds, and how far:
//
//   - a child step with a name test on an item root builds the direct
//     children it names, any other read of the root's Children the rest;
//     a child is built from its recorded span — its start tag tokenized
//     a second time — and an element child with content is a lazy node
//     over that content in turn;
//   - the first Children call on such a child builds its whole content
//     in one scan;
//   - everything that reads below a node — a descendant step, its string
//     value, a structural update — calls Children.
//
// So no byte under a lazy node is tokenized more than twice. Two uses
// never build: Clone of a lazy node of which nothing is built yet copies
// it as a lazy node over the same bytes (built in turn, the copy reads
// them once more), and WriteNode writes the bytes of such a node's
// content as they are when they are canonical. The nodes keep the
// message alive; they never change it. Builds from one message take one
// lock, so readers on several goroutines may share its nodes.

// lazySource is what the lazy nodes of one message share: its bytes,
// and what builds from them use — a scanner that reads the names the
// first pass interned as its static table and keeps its caches from one
// build to the next, and an arena — under one lock, which is also the
// once-guard of every build.
type lazySource struct {
	data  []byte
	names map[string]string
	mu    sync.Mutex
	sc    *Scanner // made by the first build
	a     Arena
	slab  []lazyContent
	made  int // lazyContents the slabs so far held
}

// lazyContent is the content of a lazy node: the bytes [from, end) of
// its source, followed by the node's end tag, which ends at to.
type lazyContent struct {
	src           *lazySource
	from, end, to int32
	count         int32 // nodes in the content, attributes included
	canon         bool  // the content bytes are what WriteNode writes for it
	// kids, set on an item root, are its direct children, and built the
	// ones a named child step has built so far (nil before the first)
	kids  []lazyKid
	built []*Node
	state atomic.Uint32
}

// The states of a lazyContent: nothing built, some direct children built
// (an item root's named child steps), all built.
const (
	unbuilt uint32 = iota
	partial
	built
)

// lazyKid is one direct child of an item root as the first pass saw it:
// its bytes [from, to) (for a text node every text token it merges), the
// nodes below it (attributes and content) and, for an element, whether
// its content is canonical.
type lazyKid struct {
	from, to, count int32
	kind            NodeKind
	canon           bool
}

const lazySlab = 32

// content carves a lazyContent from the source's slab.
func (src *lazySource) content() *lazyContent {
	if len(src.slab) == 0 {
		src.slab = make([]lazyContent, slabSize(&src.made, 1, lazySlab))
	}
	l := &src.slab[0]
	src.slab = src.slab[1:]
	l.src = src
	return l
}

func (l *lazyContent) copy() *lazyContent {
	return &lazyContent{src: l.src, from: l.from, end: l.end, to: l.to, count: l.count, canon: l.canon, kids: l.kids}
}

// raw returns the content bytes of a lazy node of which nothing is built
// yet, when they are canonical.
func (n *Node) raw() ([]byte, bool) {
	l := n.lazy
	if l == nil || !l.canon || l.state.Load() != unbuilt {
		return nil, false
	}
	return l.src.data[l.from:l.end], true
}

// lock takes the source's lock for a build, and makes its scanner the
// first time.
func (src *lazySource) lock() {
	src.mu.Lock()
	if src.sc == nil {
		src.sc = &Scanner{static: src.names}
	}
}

// expand builds the content of lazy node n, once.
func (n *Node) expand(l *lazyContent) {
	l.src.lock()
	defer l.src.mu.Unlock()
	if l.state.Load() == built {
		return
	}
	if l.kids != nil {
		kids := l.src.a.slots(len(l.kids))
		l.eachKid(n, func(i int, ord int32) { kids[i] = n.kid(l, i, ord) })
		n.children, l.built = kids, nil
	} else {
		n.buildContent(l)
	}
	l.state.Store(built)
}

// kidsNamed appends to out the element children named name of n, a lazy
// item root, building only those; false when n's children are built
// (then a child step reads them).
func (n *Node) kidsNamed(l *lazyContent, name string, out []*Node) ([]*Node, bool) {
	l.src.lock()
	defer l.src.mu.Unlock()
	if l.state.Load() == built {
		return out, false
	}
	data := l.src.data
	l.eachKid(n, func(i int, ord int32) {
		k := l.kids[i]
		if tag := data[k.from:k.to]; k.kind == ElementNode && len(tag) > len(name)+1 &&
			string(tag[1:1+len(name)]) == name && !nameBytes[tag[1+len(name)]] {
			if l.built == nil {
				l.built = l.src.a.slots(len(l.kids))
				l.state.Store(partial)
			}
			out = append(out, n.kid(l, i, ord))
		}
	})
	return out, true
}

// eachKid calls f with the index and the ordinal of each direct child of
// n, a lazy item root.
func (l *lazyContent) eachKid(n *Node, f func(i int, ord int32)) {
	ord := n.ord + 1 + int32(len(n.Attrs))
	for i, k := range l.kids {
		f(i, ord)
		ord += 1 + k.count
	}
}

func mustBuild(err error) {
	if err != nil {
		panic("xdm: lazy content that was checked fails to build: " + err.Error())
	}
}

// buildContent builds the whole content of n in one scan.
func (n *Node) buildContent(l *lazyContent) {
	src := l.src
	s := src.sc
	s.data = src.data[:l.to]
	s.pos, s.depth, s.opened[0] = int(l.from), 1, n.Name
	mustBuild(s.build(&src.a, n, 0))
	ord := n.ord + 1 + int32(len(n.Attrs))
	for _, c := range n.children {
		ord = number(c, ord, n.tree)
	}
}

// kid returns direct child i of n, a lazy item root, with ordinal ord,
// building it from its recorded span unless a named child step has: the
// start tag of an element, which is a lazy node over its content when it
// has any.
func (n *Node) kid(l *lazyContent, i int, ord int32) *Node {
	if l.built != nil && l.built[i] != nil {
		return l.built[i]
	}
	k := l.kids[i]
	src := l.src
	s, a := src.sc, &src.a
	s.data = src.data[:k.to]
	s.pos, s.depth = int(k.from), 0
	_, err := s.Next()
	mustBuild(err)
	var c *Node
	switch k.kind {
	case ElementNode:
		c = s.element(a)
		if count := k.count - int32(len(c.Attrs)); count > 0 {
			lc := src.content()
			lc.from, lc.to, lc.count, lc.canon = int32(s.pos), k.to, count, k.canon
			lc.end = int32(bytes.LastIndexByte(src.data[:k.to], '<'))
			c.lazy = lc
		}
	case TextNode:
		// a run of text tokens, merged as build merges them
		var v string
		for {
			if s.kind == TokText {
				t, err := s.TextValue()
				mustBuild(err)
				v += t
			}
			if s.pos == int(k.to) {
				break
			}
			_, err := s.Next()
			mustBuild(err)
		}
		c = a.Text(v)
	case PINode:
		v, _ := s.TextValue()
		c = a.PI(s.Name, v)
	case CommentNode:
		v, _ := s.TextValue()
		c = a.Comment(v)
	}
	c.Parent = n
	number(c, ord, n.tree)
	if l.built != nil {
		l.built[i] = c
	}
	return c
}

// LazyElement is BuildElement for a byte-mode scanner over input that
// outlives the tree and is never changed: the element comes back with
// its start tag built and its content lazy (see lazy.go). It accepts
// and rejects exactly what BuildElement does.
func (s *Scanner) LazyElement(a *Arena) (*Node, error) {
	if len(s.data) > math.MaxInt32 {
		return s.BuildElement(a)
	}
	el := s.element(a)
	if err := s.LazyChildren(el); err != nil {
		return nil, err
	}
	return el, nil
}

// LazyChildren is BuildChildren for a byte-mode scanner over input that
// outlives the tree and is never changed, into a parent without
// children: parent's content is left lazy (see lazy.go).
func (s *Scanner) LazyChildren(parent *Node) error {
	if s.SelfClose {
		return nil
	}
	if len(s.data) > math.MaxInt32 {
		var a Arena
		return s.BuildChildren(&a, parent)
	}
	l, err := s.skim()
	if err != nil {
		return err
	}
	parent.lazy = l
	return nil
}

// skimState is a scanner's state for the first pass over lazy content:
// the source its nodes share, scratch and a slab.
type skimState struct {
	src      *lazySource
	frames   []skimFrame
	kids     []lazyKid
	kidSlab  []lazyKid
	kidsMade int
}

// skimFrame is one open element of the first pass.
type skimFrame struct {
	name  string
	count int32
	// kid is the element's index among the root's direct children, or -1
	kid int
	// canon: every byte of the content so far is what WriteNode writes;
	// start: so is the start tag
	canon, start bool
	// text: the last content token was text that a following text
	// token merges into
	text bool
}

// skim is the first pass over the content of the element whose start
// tag is the current token, through its end tag: every token is read and
// checked as build reads it, and counted and recorded instead of built.
// It returns nil for content without nodes.
func (s *Scanner) skim() (*lazyContent, error) {
	st := s.skimmer
	if st == nil {
		if s.names == nil {
			s.names = make(map[string]string, 8)
		}
		st = &skimState{src: &lazySource{data: s.data, names: s.names}}
		s.skimmer = st
	}
	s.skimming = true
	defer func() { s.skimming = false }()
	from, prev := s.pos, s.pos
	kids := st.kids[:0]
	stack := append(st.frames[:0], skimFrame{kid: -1, canon: true})
	defer func() { st.kids, st.frames = kids[:0], stack[:0] }()
	for {
		tok, err := s.Next()
		if err != nil {
			return nil, err
		}
		top := &stack[len(stack)-1]
		// a directive the scanner passed over leaves a gap
		top.canon = top.canon && s.tok == prev
		prev = s.pos
		root := len(stack) == 1
		switch tok {
		case TokText:
			if _, err := s.charData(); err != nil {
				return nil, err
			}
			top.canon = top.canon && !s.cdata && canonText(s.text)
			if top.text {
				if root {
					kids[len(kids)-1].to = int32(s.pos)
				}
				continue
			}
			top.text = true
			top.count++
			if root {
				kids = append(kids, lazyKid{kind: TextNode, from: int32(s.tok), to: int32(s.pos)})
			}
		case TokComment, TokPI:
			if tok == TokPI && s.Name == "xml" {
				// dropped by build, and no end to a text run
				top.canon = false
				continue
			}
			kind := CommentNode
			if tok == TokPI {
				kind = PINode
				top.canon = top.canon && canonPI(s.Token(), s.Name, s.text)
			}
			top.text = false
			top.count++
			if root {
				kids = append(kids, lazyKid{kind: kind, from: int32(s.tok), to: int32(s.pos)})
			}
		case TokStart:
			top.text = false
			top.count += 1 + int32(len(s.Attrs))
			start := canonStartTag(s.Token())
			kid := -1
			if root {
				kid = len(kids)
				kids = append(kids, lazyKid{kind: ElementNode, from: int32(s.tok), to: int32(s.pos), count: int32(len(s.Attrs))})
			}
			if s.SelfClose {
				top.canon = top.canon && start
				continue
			}
			stack = append(stack, skimFrame{name: s.Name, kid: kid, canon: true, start: start})
		case TokEnd:
			f := *top
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				return st.content(from, s.tok, s.pos, f, kids), nil
			}
			up := &stack[len(stack)-1]
			up.count += f.count
			up.canon = up.canon && f.start && f.canon && f.count > 0 && canonEndTag(s.Token(), f.name)
			if f.kid >= 0 {
				k := &kids[f.kid]
				k.to, k.count, k.canon = int32(s.pos), k.count+f.count, f.canon
			}
		}
	}
}

// content makes the lazy content of the root whose first pass ended in
// frame f, its kids carved from a slab.
func (st *skimState) content(from, end, to int, f skimFrame, kids []lazyKid) *lazyContent {
	if f.count == 0 {
		return nil
	}
	l := st.src.content()
	l.from, l.end, l.to, l.count, l.canon = int32(from), int32(end), int32(to), f.count, f.canon
	if len(kids) > len(st.kidSlab) {
		st.kidSlab = make([]lazyKid, max(slabSize(&st.kidsMade, 8, 8*lazySlab), len(kids)))
	}
	l.kids, st.kidSlab = st.kidSlab[:len(kids):len(kids)], st.kidSlab[len(kids):]
	copy(l.kids, kids)
	return l
}

// canonStartTag reports whether a start tag the scanner accepted is
// spelled as WriteNode spells it: one space before each attribute, none
// around '=', double quotes, a canonical value, nothing before '>' or
// "/>".
func canonStartTag(tok []byte) bool {
	i := 1
	for nameBytes[tok[i]] {
		i++
	}
	for {
		switch tok[i] {
		case '>':
			return i == len(tok)-1
		case '/':
			return i == len(tok)-2
		case ' ':
		default:
			return false
		}
		j := i + 1
		for i = j; nameBytes[tok[i]]; i++ {
		}
		if i == j || tok[i] != '=' || tok[i+1] != '"' {
			return false
		}
		i += 2
		k := bytes.IndexByte(tok[i:], '"')
		if !canonEscaped(tok[i:i+k], attrRefs, "\t\n\r") {
			return false
		}
		i += k + 1
	}
}

// canonEndTag reports whether tok is "</name>".
func canonEndTag(tok []byte, name string) bool {
	return len(tok) == len(name)+3 && string(tok[2:len(tok)-1]) == name
}

// canonPI reports whether a PI token is "<?target?>" or
// "<?target value?>".
func canonPI(tok []byte, target string, value []byte) bool {
	n := len(target) + 4
	if len(value) > 0 {
		n += 1 + len(value)
		if len(tok) == n && tok[len(target)+2] != ' ' {
			return false
		}
	}
	return len(tok) == n
}

// The references WriteNode writes in attribute values and in text.
var (
	attrRefs = []string{"&lt;", "&amp;", "&quot;", "&#xA;", "&#xD;", "&#x9;"}
	textRefs = []string{"&lt;", "&gt;", "&amp;"}
)

// canonText reports whether the raw bytes of a (non-CDATA) text token
// are what escapeText writes for their value.
func canonText(raw []byte) bool { return canonEscaped(raw, textRefs, ">\r") }

// canonEscaped reports whether raw holds none of the bytes in bare and
// no reference but those in refs: then escaping its value gives raw.
func canonEscaped(raw []byte, refs []string, bare string) bool {
	for i := 0; i < len(bare); i++ {
		if bytes.IndexByte(raw, bare[i]) >= 0 {
			return false
		}
	}
next:
	for i := bytes.IndexByte(raw, '&'); i >= 0; {
		raw = raw[i:]
		for _, r := range refs {
			if len(raw) >= len(r) && string(raw[:len(r)]) == r {
				raw = raw[len(r):]
				i = bytes.IndexByte(raw, '&')
				continue next
			}
		}
		return false
	}
	return true
}
