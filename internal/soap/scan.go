package soap

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"
)

// scan.go is the hand-rolled pull-tokenizer behind the streaming decoder
// (decode.go). It is specialized for what an XRPC envelope can contain —
// elements, attributes, character data, CDATA, comments, processing
// instructions, and a skipped DOCTYPE — and works directly on the
// received []byte: no string(data) copy of the body, no reflection, no
// DOM. Element and attribute names are interned (the envelope grammar
// repeats the same two dozen names thousands of times in a bulk
// request), attribute values hit the same table for the common xsi:type
// names, and text is only unescaped when the decoder actually keeps it.
//
// The tokenizer has two input modes sharing every scan routine:
//
//   - byte mode: data holds the whole message, src is nil. Every
//     "refill" is a no-op, so the hot loops behave exactly as they did
//     when the scanner only accepted []byte.
//   - stream mode: src refills data incrementally, so envelopes decode
//     as bytes arrive off the socket. Scans hold absolute offsets into
//     data, so refills only ever append; the consumed prefix is
//     reclaimed between tokens (compact), keeping the window bounded by
//     the largest single token plus one read — or, while a caller pins
//     the window to borrow a run of tokens as bytes, by that run.

// Token kinds produced by scanner.next.
type tokenKind int

const (
	tokEOF tokenKind = iota
	// tokStart is a start tag (or self-closing element: selfClose set);
	// name and attrs describe it.
	tokStart
	// tokEnd is an end tag. Mirroring the reference decoder (which used
	// encoding/xml.RawToken), end-tag names are not matched against start
	// tags — only balance is enforced.
	tokEnd
	// tokText is character data; text holds the raw bytes (entities
	// still escaped unless cdata is set).
	tokText
	// tokComment is a comment; text holds the content.
	tokComment
	// tokPI is a processing instruction; name is the target, text the
	// instruction.
	tokPI
)

type scanAttr struct{ name, value string }

// scanner is the pull tokenizer state. The zero value plus data is ready
// to use (byte mode); setting src instead selects stream mode.
type scanner struct {
	data []byte
	pos  int
	// tok is where the current token starts in data, and base how many
	// input bytes compact has dropped before data[0]: base+tok is the
	// token's offset in the input.
	tok  int
	base int
	// pinned suspends compact, so data[tok:pos] spans of successive
	// tokens stay contiguous and in place until it is cleared.
	pinned bool
	// depth is the current element nesting depth; next() maintains it
	// and rejects underflow and unclosed elements at EOF.
	depth int

	// src, when non-nil, refills data from an incremental reader. It is
	// cleared at EOF; a non-EOF read error is held in srcErr and
	// surfaces as soon as the scanner needs bytes it never got.
	src    io.Reader
	srcErr error

	// current-token state, valid until the following next() call
	name      string
	attrs     []scanAttr
	selfClose bool
	text      []byte
	cdata     bool

	// names interns tag/attribute names not in the static table.
	names map[string]string
}

const (
	// minRead is the smallest free space grow() will read into; below
	// it the buffer is regrown first so reads stay reasonably sized.
	minRead = 512
	// initialStreamBuf is the first allocation for a stream-mode
	// window.
	initialStreamBuf = 4096
	// compactThreshold is how much consumed prefix accumulates before
	// compact() slides the window; sliding on every token would make
	// tokenizing an n-byte buffer O(n²).
	compactThreshold = 4096
)

// grow appends more input from src to data without moving existing
// bytes (in-flight scans hold absolute offsets into data). It reports
// whether at least one new byte arrived; false with a nil error means
// the input is complete (byte mode, or stream EOF).
func (s *scanner) grow() (bool, error) {
	for s.src != nil {
		if cap(s.data)-len(s.data) < minRead {
			newCap := 2 * cap(s.data)
			if newCap < initialStreamBuf {
				newCap = initialStreamBuf
			}
			buf := make([]byte, len(s.data), newCap)
			copy(buf, s.data)
			s.data = buf
		}
		n, err := s.src.Read(s.data[len(s.data):cap(s.data)])
		s.data = s.data[:len(s.data)+n]
		if err != nil {
			s.src = nil
			if err != io.EOF {
				s.srcErr = fmt.Errorf("soap: reading envelope: %w", err)
			}
		}
		if n > 0 {
			return true, nil
		}
	}
	return false, s.srcErr
}

// compact slides the unconsumed window to the front of the buffer. Only
// called between tokens (the previous token's name/attr values are
// copied strings; its text bytes are dead by contract) and only in
// stream mode, once the consumed prefix is worth reclaiming.
func (s *scanner) compact() {
	if s.src == nil || s.pos == 0 || s.pinned {
		return
	}
	if s.pos == len(s.data) || s.pos >= compactThreshold || s.pos*2 >= cap(s.data) {
		n := copy(s.data, s.data[s.pos:])
		s.data = s.data[:n]
		s.base += s.pos
		s.pos = 0
	}
}

// internTable holds the names the XRPC envelope grammar uses with the
// prefixes our encoder emits, plus the common xsi:type values — the
// strings a well-formed message repeats per call. Lookup via string(b)
// compiles to a no-allocation map access.
var internTable = map[string]string{}

func init() {
	for _, s := range []string{
		"env:Envelope", "env:Body", "env:Fault", "env:Code", "env:Value",
		"env:Reason", "env:Text",
		"xrpc:request", "xrpc:response", "xrpc:call", "xrpc:sequence",
		"xrpc:atomic-value", "xrpc:element", "xrpc:document",
		"xrpc:attribute", "xrpc:text", "xrpc:comment", "xrpc:pi",
		"xrpc:queryID", "xrpc:participatingPeers", "xrpc:peer",
		"xrpc:module", "xrpc:method", "xrpc:arity", "xrpc:location",
		"xrpc:updCall", "xrpc:seqNr", "xrpc:host", "xrpc:timestamp",
		"xrpc:timeout", "xrpc:nodeid", "xrpc:target",
		"xsi:type", "xsi:schemaLocation",
		"xmlns:xrpc", "xmlns:env", "xmlns:xs", "xmlns:xsi", "xml:lang",
		"uri", "en", "true", "false",
		"xs:string", "xs:integer", "xs:decimal", "xs:double",
		"xs:boolean", "xs:untypedAtomic",
		NSEnv, NSXRPC, NSXS, NSXSI, SchemaLoc,
	} {
		internTable[s] = s
	}
}

func (s *scanner) intern(b []byte) string {
	if v, ok := internTable[string(b)]; ok {
		return v
	}
	if v, ok := s.names[string(b)]; ok {
		return v
	}
	if s.names == nil {
		s.names = make(map[string]string, 8)
	}
	v := string(b)
	s.names[v] = v
	return v
}

func (s *scanner) errf(format string, args ...any) error {
	return fmt.Errorf("soap: malformed envelope: "+format, args...)
}

// next advances to the next token. Iterative over skipped directives: a
// run of millions of <!...> directives must not consume stack.
func (s *scanner) next() (tokenKind, error) {
	s.compact()
	for {
		for s.pos >= len(s.data) {
			ok, err := s.grow()
			if err != nil {
				return tokEOF, err
			}
			if !ok {
				if s.depth > 0 {
					return tokEOF, s.errf("%d unclosed element(s)", s.depth)
				}
				return tokEOF, nil
			}
		}
		s.tok = s.pos
		if s.data[s.pos] != '<' {
			return s.scanText()
		}
		// Classifying a '<' needs up to len("<![CDATA[") bytes of
		// lookahead; refill until they arrive or the input ends short.
		for s.src != nil && s.pos+9 > len(s.data) {
			if ok, err := s.grow(); err != nil {
				return tokEOF, err
			} else if !ok {
				break
			}
		}
		if s.pos+1 >= len(s.data) {
			return tokEOF, s.errf("unexpected EOF after '<'")
		}
		switch s.data[s.pos+1] {
		case '/':
			return s.scanEndTag()
		case '!':
			rest := s.data[s.pos:]
			if bytes.HasPrefix(rest, markCommentStart) {
				return s.scanComment()
			}
			if bytes.HasPrefix(rest, markCDATAStart) {
				return s.scanCDATA()
			}
			// DOCTYPE and other directives: skip, like the reference
			// parser
			if err := s.skipDirective(); err != nil {
				return tokEOF, err
			}
		case '?':
			return s.scanPI()
		default:
			return s.scanStartTag()
		}
	}
}

var (
	markCommentStart = []byte("<!--")
	markCommentEnd   = []byte("-->")
	markCDATAStart   = []byte("<![CDATA[")
	markCDATAEnd     = []byte("]]>")
	markPIEnd        = []byte("?>")
)

func (s *scanner) scanText() (tokenKind, error) {
	from := s.pos
	for {
		if i := bytes.IndexByte(s.data[from:], '<'); i >= 0 {
			end := from + i
			s.text = s.data[s.pos:end]
			s.cdata = false
			s.pos = end
			return tokText, nil
		}
		from = len(s.data)
		if ok, err := s.grow(); err != nil {
			return tokEOF, err
		} else if !ok {
			s.text = s.data[s.pos:]
			s.cdata = false
			s.pos = len(s.data)
			return tokText, nil
		}
	}
}

func isNameByte(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\r', '/', '>', '=', '<', '"', '\'':
		return false
	}
	return true
}

func skipWS(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// nameEnd advances i past name bytes, refilling at the buffer edge.
func (s *scanner) nameEnd(i int) (int, error) {
	for {
		for i < len(s.data) && isNameByte(s.data[i]) {
			i++
		}
		if i < len(s.data) {
			return i, nil
		}
		if ok, err := s.grow(); err != nil {
			return i, err
		} else if !ok {
			return i, nil
		}
	}
}

// wsEnd advances i past whitespace, refilling at the buffer edge.
func (s *scanner) wsEnd(i int) (int, error) {
	for {
		i = skipWS(s.data, i)
		if i < len(s.data) {
			return i, nil
		}
		if ok, err := s.grow(); err != nil {
			return i, err
		} else if !ok {
			return i, nil
		}
	}
}

// find locates marker at or after start, refilling as needed; returns
// -1 when the input ends first. The resume offset backs up
// len(marker)-1 bytes so a marker split across reads is still found
// without rescanning the whole window.
func (s *scanner) find(start int, marker []byte) (int, error) {
	from := start
	for {
		if i := bytes.Index(s.data[from:], marker); i >= 0 {
			return from + i, nil
		}
		from = len(s.data) - len(marker) + 1
		if from < start {
			from = start
		}
		if ok, err := s.grow(); err != nil {
			return -1, err
		} else if !ok {
			return -1, nil
		}
	}
}

func (s *scanner) scanStartTag() (tokenKind, error) {
	start := s.pos + 1
	i, err := s.nameEnd(start)
	if err != nil {
		return tokEOF, err
	}
	if i == start {
		return tokEOF, s.errf("malformed start tag at offset %d", s.pos)
	}
	s.name = s.intern(s.data[start:i])
	s.attrs = s.attrs[:0]
	s.selfClose = false
	for {
		if i, err = s.wsEnd(i); err != nil {
			return tokEOF, err
		}
		if i >= len(s.data) {
			return tokEOF, s.errf("unterminated start tag <%s", s.name)
		}
		switch s.data[i] {
		case '>':
			s.pos = i + 1
			s.depth++
			return tokStart, nil
		case '/':
			for i+1 >= len(s.data) {
				if ok, err := s.grow(); err != nil {
					return tokEOF, err
				} else if !ok {
					break
				}
			}
			if i+1 >= len(s.data) || s.data[i+1] != '>' {
				return tokEOF, s.errf("malformed element <%s", s.name)
			}
			s.selfClose = true
			s.pos = i + 2
			return tokStart, nil
		}
		as := i
		if i, err = s.nameEnd(i); err != nil {
			return tokEOF, err
		}
		if i == as {
			return tokEOF, s.errf("malformed attribute in <%s>", s.name)
		}
		aname := s.intern(s.data[as:i])
		if i, err = s.wsEnd(i); err != nil {
			return tokEOF, err
		}
		if i >= len(s.data) || s.data[i] != '=' {
			return tokEOF, s.errf("attribute %s in <%s> has no value", aname, s.name)
		}
		if i, err = s.wsEnd(i + 1); err != nil {
			return tokEOF, err
		}
		if i >= len(s.data) || (s.data[i] != '"' && s.data[i] != '\'') {
			return tokEOF, s.errf("unquoted value for attribute %s in <%s>", aname, s.name)
		}
		quote := s.data[i]
		i++
		vs := i
		for {
			if j := bytes.IndexByte(s.data[i:], quote); j >= 0 {
				i += j
				break
			}
			i = len(s.data)
			if ok, err := s.grow(); err != nil {
				return tokEOF, err
			} else if !ok {
				return tokEOF, s.errf("unterminated value for attribute %s in <%s>", aname, s.name)
			}
		}
		val, err := s.attrValue(s.data[vs:i])
		if err != nil {
			return tokEOF, err
		}
		s.attrs = append(s.attrs, scanAttr{name: aname, value: val})
		i++
	}
}

// attrValue unescapes an attribute value, interning the common constant
// values (type names, namespace URIs).
func (s *scanner) attrValue(raw []byte) (string, error) {
	if bytes.IndexByte(raw, '&') < 0 && bytes.IndexByte(raw, '\r') < 0 {
		if v, ok := internTable[string(raw)]; ok {
			return v, nil
		}
		return string(raw), nil
	}
	out, err := s.unescape(make([]byte, 0, len(raw)), raw)
	if err != nil {
		return "", err
	}
	return string(out), nil
}

func (s *scanner) scanEndTag() (tokenKind, error) {
	start := s.pos + 2
	i, err := s.nameEnd(start)
	if err != nil {
		return tokEOF, err
	}
	if i == start {
		return tokEOF, s.errf("malformed end tag at offset %d", s.pos)
	}
	s.name = s.intern(s.data[start:i])
	if i, err = s.wsEnd(i); err != nil {
		return tokEOF, err
	}
	if i >= len(s.data) || s.data[i] != '>' {
		return tokEOF, s.errf("malformed end tag </%s", s.name)
	}
	s.pos = i + 1
	if s.depth == 0 {
		return tokEOF, s.errf("unbalanced end tag </%s>", s.name)
	}
	s.depth--
	return tokEnd, nil
}

func (s *scanner) scanComment() (tokenKind, error) {
	start := s.pos + len("<!--")
	end, err := s.find(start, markCommentEnd)
	if err != nil {
		return tokEOF, err
	}
	if end < 0 {
		return tokEOF, s.errf("unterminated comment")
	}
	s.text = s.data[start:end]
	s.cdata = true // comments get no entity expansion
	s.pos = end + len("-->")
	return tokComment, nil
}

func (s *scanner) scanCDATA() (tokenKind, error) {
	start := s.pos + len("<![CDATA[")
	end, err := s.find(start, markCDATAEnd)
	if err != nil {
		return tokEOF, err
	}
	if end < 0 {
		return tokEOF, s.errf("unterminated CDATA section")
	}
	s.text = s.data[start:end]
	s.cdata = true
	s.pos = end + len("]]>")
	return tokText, nil
}

func (s *scanner) scanPI() (tokenKind, error) {
	start := s.pos + 2
	i := start
	for {
		for i < len(s.data) && isNameByte(s.data[i]) && s.data[i] != '?' {
			i++
		}
		if i < len(s.data) {
			break
		}
		if ok, err := s.grow(); err != nil {
			return tokEOF, err
		} else if !ok {
			break
		}
	}
	if i == start {
		return tokEOF, s.errf("processing instruction without a target")
	}
	s.name = s.intern(s.data[start:i])
	var err error
	if i, err = s.wsEnd(i); err != nil {
		return tokEOF, err
	}
	end, err := s.find(i, markPIEnd)
	if err != nil {
		return tokEOF, err
	}
	if end < 0 {
		return tokEOF, s.errf("unterminated processing instruction <?%s", s.name)
	}
	s.text = s.data[i:end]
	s.cdata = true
	s.pos = end + len("?>")
	return tokPI, nil
}

// skipDirective consumes a <!DOCTYPE ...> (or any <!...>) directive,
// tolerating an internal subset in brackets and quoted strings.
func (s *scanner) skipDirective() error {
	i := s.pos + 2
	bracket := 0
	var quote byte
	for {
		for i < len(s.data) {
			c := s.data[i]
			switch {
			case quote != 0:
				if c == quote {
					quote = 0
				}
			case c == '"' || c == '\'':
				quote = c
			case c == '[':
				bracket++
			case c == ']':
				bracket--
			case c == '>' && bracket <= 0:
				s.pos = i + 1
				return nil
			}
			i++
		}
		if ok, err := s.grow(); err != nil {
			return err
		} else if !ok {
			return s.errf("unterminated directive")
		}
	}
}

// maxInternedText bounds the text values worth interning: short values
// (document names, probe keys, repeated element text in bulk requests)
// recur across calls; long payloads do not.
const maxInternedText = 32

// textValue returns the current text token as a string, expanding
// entities and normalizing line endings; the single place raw bytes
// become a kept Go string. Short clean values are interned — a bulk
// request repeats the same parameter texts across its calls.
func (s *scanner) textValue() (string, error) {
	raw := s.text
	if s.cdata {
		if bytes.IndexByte(raw, '\r') < 0 {
			return s.internText(raw), nil
		}
		out, _ := s.unescapeNoEntities(make([]byte, 0, len(raw)), raw)
		return string(out), nil
	}
	if bytes.IndexByte(raw, '&') < 0 && bytes.IndexByte(raw, '\r') < 0 {
		return s.internText(raw), nil
	}
	out, err := s.unescape(make([]byte, 0, len(raw)), raw)
	if err != nil {
		return "", err
	}
	return string(out), nil
}

func (s *scanner) internText(raw []byte) string {
	if len(raw) > maxInternedText {
		return string(raw)
	}
	return s.intern(raw)
}

// unescape expands the five predefined entities and numeric character
// references, and normalizes \r\n / \r to \n (the XML line-ending rule
// encoding/xml applies).
func (s *scanner) unescape(dst, raw []byte) ([]byte, error) {
	for i := 0; i < len(raw); {
		switch raw[i] {
		case '&':
			semi := bytes.IndexByte(raw[i:], ';')
			if semi < 2 {
				return nil, s.errf("invalid entity reference")
			}
			ent := raw[i+1 : i+semi]
			if ent[0] == '#' {
				r, err := parseCharRef(ent[1:])
				if err != nil {
					return nil, s.errf("%v", err)
				}
				dst = utf8.AppendRune(dst, r)
			} else {
				switch string(ent) {
				case "lt":
					dst = append(dst, '<')
				case "gt":
					dst = append(dst, '>')
				case "amp":
					dst = append(dst, '&')
				case "apos":
					dst = append(dst, '\'')
				case "quot":
					dst = append(dst, '"')
				default:
					return nil, s.errf("unknown entity &%s;", ent)
				}
			}
			i += semi + 1
		case '\r':
			if i+1 < len(raw) && raw[i+1] == '\n' {
				i++
			}
			dst = append(dst, '\n')
			i++
		default:
			dst = append(dst, raw[i])
			i++
		}
	}
	return dst, nil
}

// unescapeNoEntities only normalizes line endings (CDATA, comments).
func (s *scanner) unescapeNoEntities(dst, raw []byte) ([]byte, error) {
	for i := 0; i < len(raw); i++ {
		if raw[i] == '\r' {
			if i+1 < len(raw) && raw[i+1] == '\n' {
				i++
			}
			dst = append(dst, '\n')
			continue
		}
		dst = append(dst, raw[i])
	}
	return dst, nil
}

func parseCharRef(b []byte) (rune, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("empty character reference")
	}
	base := 10
	if b[0] == 'x' || b[0] == 'X' {
		base = 16
		b = b[1:]
	}
	n, err := strconv.ParseUint(string(b), base, 32)
	if err != nil {
		return 0, fmt.Errorf("invalid character reference")
	}
	r := rune(n)
	if !utf8.ValidRune(r) {
		return 0, fmt.Errorf("invalid character reference")
	}
	return r, nil
}
