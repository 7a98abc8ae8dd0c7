package xdm

import (
	"fmt"
	"slices"
	"strings"
)

// project.go is the callee's half of call-by-projection: a caller that
// reads only some child paths of the nodes a remote call returns sends
// them as a Projection, and the callee writes each result item's root
// with its attributes, the elements on or below a listed path in full,
// and no other child. The pruned write costs one name check per element
// start and buffers nothing.

// Projection is a set of downward child paths below an item root, as a
// trie of element names. A name whose sub-projection is nil is kept in
// full; one with a sub-projection is written with its attributes and,
// of its content, only what the sub-projection keeps. The nil
// *Projection keeps everything; the empty one keeps only the root and
// its attributes.
type Projection struct {
	names []string      // sorted, distinct
	subs  []*Projection // subs[i] is nil when names[i] is kept in full
}

// NewProjection builds the projection of paths, each a list of element
// names from the item root down. An empty path names the root itself,
// which every projection keeps. A path below one kept in full adds
// nothing.
func NewProjection(paths [][]string) *Projection {
	p := &Projection{}
	for _, path := range paths {
		p.add(path)
	}
	return p
}

// add merges one path into p.
func (p *Projection) add(path []string) {
	for len(path) > 0 {
		i, found := slices.BinarySearch(p.names, path[0])
		if !found {
			p.names = slices.Insert(p.names, i, path[0])
			var sub *Projection
			if len(path) > 1 {
				sub = &Projection{}
			}
			p.subs = slices.Insert(p.subs, i, sub)
		}
		if p.subs[i] == nil {
			return // kept in full already
		}
		if len(path) == 1 {
			p.subs[i] = nil
			return
		}
		p, path = p.subs[i], path[1:]
	}
}

// String is the wire form of p: its paths in sorted order, each spelled
// name/name…, separated by one space; "." when p keeps only the roots.
// ParseProjection reads it back.
func (p *Projection) String() string {
	var b strings.Builder
	p.write(&b, "")
	if b.Len() == 0 {
		return "."
	}
	return b.String()
}

func (p *Projection) write(b *strings.Builder, prefix string) {
	for i, n := range p.names {
		if p.subs[i] == nil {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(prefix)
			b.WriteString(n)
			continue
		}
		p.subs[i].write(b, prefix+n+"/")
	}
}

// ParseProjection reads a projection's wire form: paths separated by
// single spaces, each one or more unprefixed element names joined by
// '/', or "." alone for the roots only. Anything else is an error.
func ParseProjection(s string) (*Projection, error) {
	p := &Projection{}
	if s == "." {
		return p, nil
	}
	for _, path := range strings.Split(s, " ") {
		steps := strings.Split(path, "/")
		for _, st := range steps {
			if !isName([]byte(st)) || strings.IndexByte(st, ':') >= 0 {
				return nil, fmt.Errorf("xdm: bad projection %q: step %q is not an unprefixed name", s, st)
			}
		}
		p.add(steps)
	}
	return p, nil
}

// WriteProjected is WriteNode for a result item under projection p: an
// element or document item is written with its root's attributes and
// only the content p keeps; any other item, or any item under a nil p,
// is written whole.
func WriteProjected(w XMLWriter, n *Node, p *Projection) {
	if p == nil || n.Kind != ElementNode && n.Kind != DocumentNode {
		writeNode(w, n)
		return
	}
	writeProjected(w, n, p)
}

func writeProjected(b XMLWriter, n *Node, p *Projection) {
	kids := n.Children()
	if n.Kind == ElementNode {
		writeStartTag(b, n)
		if !slices.ContainsFunc(kids, func(c *Node) bool { _, ok := p.kept(c); return ok }) {
			b.WriteString("/>")
			return
		}
		b.WriteByte('>')
	}
	for _, c := range kids {
		switch sub, ok := p.kept(c); {
		case !ok:
		case sub == nil:
			writeNode(b, c)
		default:
			writeProjected(b, c, sub)
		}
	}
	if n.Kind == ElementNode {
		writeEndTag(b, n)
	}
}

// kept reports whether p keeps child c, and the projection of its
// content (nil: in full). Only elements are kept.
func (p *Projection) kept(c *Node) (*Projection, bool) {
	if c.Kind == ElementNode {
		for i, n := range p.names {
			if n == c.Name {
				return p.subs[i], true
			}
		}
	}
	return nil, false
}
