package xdm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
	"unsafe"
)

// scan.go is the module's one XML tokenizer: ParseDocument and
// ParseFragment (parse.go) read documents with it, package soap walks
// envelopes with it, and lazy nodes (lazy.go) are built with it. It
// works directly on the input []byte — no reflection, no DOM — and
// makes a repeated name cheap, returning one
// interned string for it (an envelope repeats the same two dozen
// thousands of times; a document its element names): an end tag that
// closes the innermost element by its name, or a name that follows the
// name before it as it did last time, costs one compare, and any other
// name met before one map lookup. It only unescapes text that a caller
// actually keeps.
//
// It accepts exactly the well-formed input encoding/xml's RawToken
// accepts (the test-only reference in parse_ref_test.go, pinned by
// FuzzParseDocument), with one exception: a character reference to a
// surrogate (&#xD800;) is an error here, as XML 1.0's "Legal Character"
// constraint requires, where encoding/xml reads U+FFFD. The character
// checks run where text becomes a Go string (TextValue), where a lazy
// item's first pass checks it (charData), and on attribute values,
// never in the scan that finds a token's end, so a
// reader that passes text on as bytes (soap's raw forward) pays nothing
// for them; name checks run once per distinct name (a PI target's on
// each PI: targets are rare and not interned).
//
// The tokenizer has two input modes sharing every scan routine:
//
//   - byte mode: data holds the whole input, src is nil. Every "refill"
//     is a no-op.
//   - stream mode: src refills data incrementally, so envelopes decode
//     as bytes arrive off the socket. Scans hold absolute offsets into
//     data, so refills only ever append; the consumed prefix is
//     reclaimed between tokens (compact), keeping the window bounded by
//     the largest single token plus one read — or, while a caller pins
//     the window to borrow a run of tokens as bytes, by that run.

// TokenKind is the kind of token Scanner.Next read.
type TokenKind int

const (
	TokEOF TokenKind = iota
	// TokStart is a start tag (or self-closing element: SelfClose set);
	// Name and Attrs describe it.
	TokStart
	// TokEnd is an end tag. As in encoding/xml's RawToken, end-tag names
	// are not matched against start tags — only balance is enforced.
	TokEnd
	// TokText is character data or a CDATA section.
	TokText
	// TokComment is a comment.
	TokComment
	// TokPI is a processing instruction; Name is the target.
	TokPI
)

// ScanAttr is one attribute of a start tag.
type ScanAttr struct{ Name, Value string }

// Scanner is the pull tokenizer state; NewScanner makes one. Besides
// tokens it builds trees: BuildElement and BuildChildren (parse.go)
// build what they read, LazyElement and LazyChildren (lazy.go) read an
// item of byte-mode input in a pass that checks every token as a build
// would but builds only the item root's start tag, and leave the rest
// to be built from the input as far as a reader steps into it.
type Scanner struct {
	// Name, Attrs and SelfClose describe the current token (Name also
	// for an end tag or a PI); they are valid until the following Next.
	Name      string
	Attrs     []ScanAttr
	SelfClose bool

	data []byte
	pos  int
	// tok is where the current token starts in data, and base how many
	// input bytes compact has dropped before data[0]: base+tok is the
	// token's offset in the input.
	tok  int
	base int
	// pinned suspends compact, so data[pin:pos] stays contiguous and in
	// place until Unpin.
	pinned bool
	pin    int
	// depth is the current element nesting depth; Next maintains it and
	// rejects underflow and unclosed elements at EOF.
	depth int
	// opened[d%len] is the name of the element last opened at depth d:
	// while it is open, the innermost one's (unless 16 or more levels
	// opened inside it since). An end tag that spells it takes it with
	// one compare.
	opened [16]string
	// follows[followSlot(p)] is the start-tag or attribute name last
	// read after the name p, and prev the last one read: input that
	// repeats a structure (the items of a sequence, the calls of a bulk
	// request) names the next one with one compare.
	follows [64]string
	prev    string

	// src, when non-nil, refills data from an incremental reader. It is
	// cleared at EOF; a non-EOF read error is held in srcErr and
	// surfaces as soon as the scanner needs bytes it never got.
	src    io.Reader
	srcErr error

	// kind is the current token's; text is the content of a text,
	// comment or PI token, and cdata marks text from a CDATA section,
	// which holds no references.
	kind  TokenKind
	text  []byte
	cdata bool

	// static holds the caller's well-formed names and common attribute
	// values. names interns the element and attribute names met beyond
	// static, each checked the first time (and, once it exists, the
	// static names met too); texts interns short text values, apart, so
	// a text never passes for a checked name.
	static       map[string]string
	names, texts map[string]string
	// scratch holds unescaped character data while it is checked.
	scratch []byte

	// skimming marks LazyChildren's first pass: attribute values and
	// character data are checked but kept as no string. skimmer is that
	// pass's state, kept across the items of one input.
	skimming bool
	skimmer  *skimState
}

// NewScanner returns a scanner over data (byte mode) or, with data nil,
// over src read incrementally (stream mode). static, which may be nil,
// is a table of names and attribute values the input is known to
// repeat; its names must be well formed.
func NewScanner(data []byte, src io.Reader, static map[string]string) Scanner {
	return Scanner{data: data, src: src, static: static}
}

// Depth is the element nesting depth after the current token.
func (s *Scanner) Depth() int { return s.depth }

// Token returns the current token's bytes; valid until the next Next.
func (s *Scanner) Token() []byte { return s.data[s.tok:s.pos] }

// Offset is the current token's offset in the input.
func (s *Scanner) Offset() int { return s.base + s.tok }

// Peek returns up to the first n bytes of the input without consuming
// them; call it before the first Next. A read error met here is held
// and surfaces from Next.
func (s *Scanner) Peek(n int) []byte {
	for len(s.data) < n {
		if ok, _ := s.grow(); !ok {
			return s.data
		}
	}
	return s.data[:n]
}

// Pin holds the window from the current token on in place, so the
// tokens read until Unpin come back from it as one span.
func (s *Scanner) Pin() { s.pinned, s.pin = true, s.tok }

// Unpin ends a Pin and returns its span: the pinned token's first byte
// through the current token's last, valid until the next Next.
func (s *Scanner) Unpin() []byte {
	s.pinned = false
	return s.data[s.pin:s.pos]
}

// Pinned reports whether a Pin is in force.
func (s *Scanner) Pinned() bool { return s.pinned }

// Window is the read window's capacity: the bytes a stream-mode scanner
// holds.
func (s *Scanner) Window() int { return cap(s.data) }

// WindowBound is the most a stream-mode Window grows to when the longest
// span it had to hold whole (a token, or a pinned run) is span bytes and
// reads return up to read bytes: the unconsumed prefix compact
// tolerates, the span, one read — and the doubling that got there.
func WindowBound(span, read int) int {
	return 2*(compactThreshold+span+read+minRead) + initialStreamBuf
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
func (s *Scanner) grow() (bool, error) {
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
				s.srcErr = fmt.Errorf("xml: reading input: %w", err)
			}
		}
		if n > 0 {
			return true, nil
		}
	}
	return false, s.srcErr
}

// need refills until data holds byte i; false when the input ends first.
func (s *Scanner) need(i int) (bool, error) {
	for i >= len(s.data) {
		if ok, err := s.grow(); !ok {
			return false, err
		}
	}
	return true, nil
}

// compact slides the unconsumed window to the front of the buffer. Only
// called between tokens (the previous token's name/attr values are
// copied strings; its text bytes are dead by contract) and only in
// stream mode, once the consumed prefix is worth reclaiming.
func (s *Scanner) compact() {
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

// name returns the element or attribute name in b (qualified: at most
// one ':'), checking it the first time it is met: a name met before
// costs one lookup in the names this scanner has interned. A name not
// there is taken from static (once the scanner has names of its own, a
// static name joins them) or checked and interned.
func (s *Scanner) name(b []byte) (string, error) {
	if v, ok := s.names[string(b)]; ok {
		return v, nil
	}
	if v, ok := s.static[string(b)]; ok {
		if s.names != nil {
			s.names[v] = v
		}
		return v, nil
	}
	if !isName(b) || bytes.Count(b, []byte{':'}) > 1 {
		return "", s.errf("invalid XML name %q", b)
	}
	if s.names == nil {
		s.names = make(map[string]string, 8)
	}
	v := string(b)
	s.names[v] = v
	return v, nil
}

// nextName is name for a start-tag or attribute name b: the name that
// followed the previous one last time, when b spells it again, costs
// one compare.
func (s *Scanner) nextName(b []byte) (string, error) {
	slot := &s.follows[followSlot(s.prev)]
	if v := *slot; string(b) == v {
		s.prev = v
		return v, nil
	}
	v, err := s.name(b)
	if err != nil {
		return "", err
	}
	*slot, s.prev = v, v
	return v, nil
}

// followSlot hashes an interned name by its address: one string per
// name, so no byte of it is read.
func followSlot(name string) uintptr {
	return uintptr(unsafe.Pointer(unsafe.StringData(name))) * 0x9E3779B97F4A7C15 >> 58
}

func (s *Scanner) errf(format string, args ...any) error {
	return fmt.Errorf("xml: "+format, args...)
}

// Next advances to the next token. Iterative over skipped directives: a
// run of millions of <!...> directives must not consume stack.
func (s *Scanner) Next() (TokenKind, error) {
	s.compact()
	for {
		if ok, err := s.need(s.pos); !ok {
			if err == nil && s.depth > 0 {
				err = s.errf("%d unclosed element(s)", s.depth)
			}
			return TokEOF, err
		}
		s.tok = s.pos
		if s.data[s.pos] != '<' {
			return s.scanText()
		}
		// Classifying a '<' needs up to len("<![CDATA[") bytes of
		// lookahead; refill until they arrive or the input ends short.
		if _, err := s.need(s.pos + 8); err != nil {
			return TokEOF, err
		}
		if s.pos+1 >= len(s.data) {
			return TokEOF, s.errf("unexpected EOF after '<'")
		}
		switch s.data[s.pos+1] {
		case '/':
			return s.scanEndTag()
		case '!':
			rest := s.data[s.pos:]
			switch {
			case bytes.HasPrefix(rest, markCommentStart):
				return s.scanComment()
			case bytes.HasPrefix(rest, markCDATAStart):
				return s.scanCDATA()
			case len(rest) > 2 && (rest[2] == '-' || rest[2] == '['):
				return TokEOF, s.errf("invalid markup %q", rest[:min(len(rest), 9)])
			}
			// DOCTYPE and other directives: skipped
			if err := s.skipDirective(); err != nil {
				return TokEOF, err
			}
		case '?':
			return s.scanPI()
		default:
			return s.scanStartTag()
		}
	}
}

var (
	markTagStart     = []byte("<")
	markCommentStart = []byte("<!--")
	markCommentEnd   = []byte("-->")
	markCDATAStart   = []byte("<![CDATA[")
	markCDATAEnd     = []byte("]]>")
	markPIEnd        = []byte("?>")
)

func (s *Scanner) scanText() (TokenKind, error) {
	end, err := s.find(s.pos, markTagStart)
	if err != nil {
		return TokEOF, err
	}
	if end < 0 {
		end = len(s.data)
	}
	return s.setText(TokText, s.pos, end, end, false), nil
}

// setText makes data[start:end] the current token's text and resumes
// scanning at next.
func (s *Scanner) setText(kind TokenKind, start, end, next int, cdata bool) TokenKind {
	s.kind, s.text, s.cdata, s.pos = kind, s.data[start:end], cdata, next
	return kind
}

// nameBytes marks encoding/xml's name bytes: ASCII letters, digits and
// "_:.-", and every byte of a multi-byte rune (isName checks those).
var nameBytes = func() (t [256]bool) {
	for c := range t {
		t[c] = 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			strings.IndexByte("_:.-", byte(c)) >= 0 || c >= utf8.RuneSelf
	}
	return t
}()

var spaceBytes = [256]bool{' ': true, '\t': true, '\n': true, '\r': true}

// skip advances i past bytes in set, refilling at the buffer edge.
func (s *Scanner) skip(i int, set *[256]bool) (int, error) {
	for {
		for i < len(s.data) && set[s.data[i]] {
			i++
		}
		if i < len(s.data) {
			return i, nil
		}
		if ok, err := s.grow(); !ok {
			return i, err
		}
	}
}

// find locates marker at or after start, refilling as needed; returns
// -1 when the input ends first. The resume offset backs up
// len(marker)-1 bytes so a marker split across reads is still found
// without rescanning the whole window.
func (s *Scanner) find(start int, marker []byte) (int, error) {
	from := start
	for {
		if i := bytes.Index(s.data[from:], marker); i >= 0 {
			return from + i, nil
		}
		from = len(s.data) - len(marker) + 1
		if from < start {
			from = start
		}
		if ok, err := s.grow(); !ok {
			return -1, err
		}
	}
}

func (s *Scanner) scanStartTag() (TokenKind, error) {
	start := s.pos + 1
	i, err := s.skip(start, &nameBytes)
	if err != nil {
		return TokEOF, err
	}
	if i == start {
		return TokEOF, s.errf("malformed start tag at offset %d", s.base+s.pos)
	}
	if s.Name, err = s.nextName(s.data[start:i]); err != nil {
		return TokEOF, err
	}
	s.kind = TokStart
	s.Attrs = s.Attrs[:0]
	s.SelfClose = false
	for {
		if i, err = s.skip(i, &spaceBytes); err != nil {
			return TokEOF, err
		}
		if i >= len(s.data) {
			return TokEOF, s.errf("unterminated start tag <%s", s.Name)
		}
		switch s.data[i] {
		case '>':
			s.pos = i + 1
			s.opened[s.depth%len(s.opened)] = s.Name
			s.depth++
			return TokStart, nil
		case '/':
			if _, err := s.need(i + 1); err != nil {
				return TokEOF, err
			}
			if i+1 >= len(s.data) || s.data[i+1] != '>' {
				return TokEOF, s.errf("malformed element <%s", s.Name)
			}
			s.SelfClose = true
			s.pos = i + 2
			return TokStart, nil
		}
		as := i
		if i, err = s.skip(i, &nameBytes); err != nil {
			return TokEOF, err
		}
		if i == as {
			return TokEOF, s.errf("malformed attribute in <%s>", s.Name)
		}
		aname, err := s.nextName(s.data[as:i])
		if err != nil {
			return TokEOF, err
		}
		if i, err = s.skip(i, &spaceBytes); err != nil {
			return TokEOF, err
		}
		if i >= len(s.data) || s.data[i] != '=' {
			return TokEOF, s.errf("attribute %s in <%s> has no value", aname, s.Name)
		}
		if i, err = s.skip(i+1, &spaceBytes); err != nil {
			return TokEOF, err
		}
		if i >= len(s.data) || (s.data[i] != '"' && s.data[i] != '\'') {
			return TokEOF, s.errf("unquoted value for attribute %s in <%s>", aname, s.Name)
		}
		vs := i + 1
		if i, err = s.find(vs, s.data[i:vs]); err != nil {
			return TokEOF, err
		}
		if i < 0 {
			return TokEOF, s.errf("unterminated value for attribute %s in <%s>", aname, s.Name)
		}
		val, err := s.attrValue(s.data[vs:i])
		if err != nil {
			return TokEOF, fmt.Errorf("%w in attribute %s of <%s>", err, aname, s.Name)
		}
		s.Attrs = append(s.Attrs, ScanAttr{Name: aname, Value: val})
		i++
	}
}

// SkipElement consumes the rest of the element whose start tag is the
// current token, through its end tag: every token is read and checked as
// Next reads it, and no attribute value is kept (an Attrs value read on
// the way is empty).
func (s *Scanner) SkipElement() error {
	if s.SelfClose {
		return nil
	}
	target := s.depth - 1
	skimming := s.skimming
	s.skimming = true
	defer func() { s.skimming = skimming }()
	for {
		tok, err := s.Next()
		if err != nil {
			return err
		}
		if tok == TokEnd && s.depth == target {
			return nil
		}
	}
}

// attrValue unescapes and checks an attribute value, interning the
// common constant values (type names, namespace URIs). While skimming
// the value is checked only, and comes back empty.
func (s *Scanner) attrValue(raw []byte) (string, error) {
	if !s.skimming {
		if v, ok := s.static[string(raw)]; ok {
			return v, nil
		}
	}
	if bytes.IndexByte(raw, '<') >= 0 {
		return "", s.errf("unescaped <")
	}
	if bytes.IndexByte(raw, '&') >= 0 || bytes.IndexByte(raw, '\r') >= 0 {
		var err error
		if raw, err = s.unescape(s.scratch[:0], raw, true); err != nil {
			return "", err
		}
		s.scratch = raw
	}
	if err := s.checkChars(raw); err != nil || s.skimming {
		return "", err
	}
	return string(raw), nil
}

func (s *Scanner) scanEndTag() (TokenKind, error) {
	start := s.pos + 2
	i, err := s.skip(start, &nameBytes)
	if err != nil {
		return TokEOF, err
	}
	if i == start {
		return TokEOF, s.errf("malformed end tag at offset %d", s.base+s.pos)
	}
	// an end tag's name is not matched against its start tag's, only
	// read: the innermost open element's, when it spells it, was checked
	// at its start tag
	if d := max(s.depth-1, 0) % len(s.opened); string(s.data[start:i]) == s.opened[d] {
		s.Name = s.opened[d]
	} else if s.Name, err = s.name(s.data[start:i]); err != nil {
		return TokEOF, err
	}
	if i, err = s.skip(i, &spaceBytes); err != nil {
		return TokEOF, err
	}
	if i >= len(s.data) || s.data[i] != '>' {
		return TokEOF, s.errf("malformed end tag </%s", s.Name)
	}
	s.pos = i + 1
	if s.depth == 0 {
		return TokEOF, s.errf("unbalanced end tag </%s>", s.Name)
	}
	s.depth--
	s.kind = TokEnd
	return TokEnd, nil
}

// scanComment reads a comment, which ends at its first "--": that must
// be followed by '>'.
func (s *Scanner) scanComment() (TokenKind, error) {
	start := s.pos + len("<!--")
	end, err := s.find(start, markCommentEnd[:2])
	if err == nil && end >= 0 {
		_, err = s.need(end + 2)
	}
	if err != nil {
		return TokEOF, err
	}
	if end < 0 || end+2 >= len(s.data) {
		return TokEOF, s.errf("unterminated comment")
	}
	if s.data[end+2] != '>' {
		return TokEOF, s.errf(`"--" in comment`)
	}
	return s.setText(TokComment, start, end, end+len("-->"), false), nil
}

func (s *Scanner) scanCDATA() (TokenKind, error) {
	start := s.pos + len("<![CDATA[")
	end, err := s.find(start, markCDATAEnd)
	if err != nil {
		return TokEOF, err
	}
	if end < 0 {
		return TokEOF, s.errf("unterminated CDATA section")
	}
	return s.setText(TokText, start, end, end+len("]]>"), true), nil
}

func (s *Scanner) scanPI() (TokenKind, error) {
	start := s.pos + 2
	i, err := s.skip(start, &nameBytes)
	if err != nil {
		return TokEOF, err
	}
	if i == start {
		return TokEOF, s.errf("processing instruction without a target")
	}
	switch target := s.data[start:i]; {
	case string(target) == "xml":
		// every message's declaration: no string to make
		s.Name = "xml"
	case !isName(target):
		return TokEOF, s.errf("invalid XML name %q", target)
	default:
		s.Name = string(target)
	}
	if i, err = s.skip(i, &spaceBytes); err != nil {
		return TokEOF, err
	}
	end, err := s.find(i, markPIEnd)
	if err != nil {
		return TokEOF, err
	}
	if end < 0 {
		return TokEOF, s.errf("unterminated processing instruction <?%s", s.Name)
	}
	if s.Name == "xml" {
		decl := string(s.data[i:end])
		if v := declParam("version", decl); v != "" && v != "1.0" {
			return TokEOF, s.errf("unsupported version %q", v)
		}
		if e := declParam("encoding", decl); e != "" && !strings.EqualFold(e, "utf-8") {
			return TokEOF, s.errf("unsupported encoding %q", e)
		}
	}
	return s.setText(TokPI, i, end, end+len("?>"), false), nil
}

// declParam is the value of param="…" (or '…') in an XML declaration,
// read as encoding/xml reads it: the first "param=" followed by a quote.
func declParam(param, decl string) string {
	for rest := decl; ; {
		k := strings.Index(rest, param+"=")
		if k < 0 || k+len(param)+1 >= len(rest) {
			return ""
		}
		rest = rest[k+len(param)+1:]
		if q := rest[0]; q == '"' || q == '\'' {
			if j := strings.IndexByte(rest[1:], q); j >= 0 {
				return rest[1 : 1+j]
			}
			return ""
		}
		rest = rest[1:]
	}
}

// skipDirective consumes a <!DOCTYPE ...> (or any <!...>) directive the
// way encoding/xml reads one: the byte after "<!" is taken as is, then
// the directive ends at the first '>' outside quotes at '<'/'>' nesting
// depth 0; an embedded <!--...--> is passed over whole.
func (s *Scanner) skipDirective() error {
	i, depth, quote := s.pos+2, 0, byte(0)
	// next reads the byte at i and advances past it
	next := func() (byte, error) {
		if ok, err := s.need(i); !ok {
			if err == nil {
				err = s.errf("unterminated directive")
			}
			return 0, err
		}
		i++
		return s.data[i-1], nil
	}
	if _, err := next(); err != nil {
		return err
	}
	for {
		c, err := next()
		if err != nil {
			return err
		}
		if quote == 0 && c == '>' && depth == 0 {
			s.pos = i
			return nil
		}
	handle:
		switch {
		case c == quote:
			quote = 0
		case quote != 0:
		case c == '"' || c == '\'':
			quote = c
		case c == '>':
			depth--
		case c == '<':
			// "<!--" opens a comment; any other byte after '<' nests
			// one level and is handled as itself
			for k := 0; k < 3; k++ {
				if c, err = next(); err != nil {
					return err
				}
				if c != "!--"[k] {
					depth++
					goto handle
				}
			}
			end, err := s.find(i, markCommentEnd)
			if err != nil {
				return err
			}
			if end < 0 {
				return s.errf("unterminated comment in directive")
			}
			i = end + len("-->")
		}
	}
}

// maxInternedText bounds the text values worth interning: short values
// (document names, probe keys, repeated element text in bulk requests)
// recur across calls; long payloads do not.
const maxInternedText = 32

// TextValue returns the current text, comment or PI token's content as
// a string; the single place raw bytes become a kept Go string. Text
// has its entities expanded and line endings normalized, and is checked
// for characters XML does not allow; comments and PIs are taken as they
// are. Short values are interned — a bulk request repeats the same
// parameter texts across its calls.
func (s *Scanner) TextValue() (string, error) {
	if s.kind != TokText {
		return s.internText(s.text), nil
	}
	raw, err := s.charData()
	if err != nil {
		return "", err
	}
	return s.internText(raw), nil
}

// charData checks the current text token's character data and returns
// it with its references expanded and its line endings normalized —
// the token's own bytes when it needs neither, else the scanner's
// scratch, valid until the next call.
func (s *Scanner) charData() ([]byte, error) {
	raw := s.text
	if !s.cdata && bytes.Contains(raw, markCDATAEnd) {
		return nil, s.errf("unescaped ]]> not in CDATA section")
	}
	if bytes.IndexByte(raw, '\r') >= 0 || !s.cdata && bytes.IndexByte(raw, '&') >= 0 {
		var err error
		if raw, err = s.unescape(s.scratch[:0], raw, !s.cdata); err != nil {
			return nil, err
		}
		s.scratch = raw
	}
	return raw, s.checkChars(raw)
}

func (s *Scanner) internText(raw []byte) string {
	if len(raw) > maxInternedText {
		return string(raw)
	}
	if v, ok := s.texts[string(raw)]; ok {
		return v
	}
	if s.texts == nil {
		s.texts = make(map[string]string, 8)
	}
	v := string(raw)
	s.texts[v] = v
	return v
}

// checkChars rejects what XML 1.0's Char production leaves out: control
// characters other than TAB, LF and CR, invalid UTF-8, and U+FFFE and
// U+FFFF. Runs of eight printable ASCII bytes pass in one step.
func (s *Scanner) checkChars(b []byte) error {
	const lo, hi = 0x2020202020202020, 0x8080808080808080
	for i := 0; i < len(b); {
		if i+8 <= len(b) {
			if w := binary.LittleEndian.Uint64(b[i:]); w&hi == 0 && (w-lo)&^w&hi == 0 {
				i += 8
				continue
			}
		}
		if c := b[i]; c >= 0x20 && c < utf8.RuneSelf {
			i++
			continue
		}
		switch r, n := utf8.DecodeRune(b[i:]); {
		case r == utf8.RuneError && n == 1:
			return s.errf("invalid UTF-8")
		case r < 0x20 && r != '\t' && r != '\n' && r != '\r', r == 0xFFFE, r == 0xFFFF:
			return s.errf("illegal character code %U", r)
		default:
			i += n
		}
	}
	return nil
}

// unescape normalizes \r\n and \r to \n and, with entities set,
// expands the five predefined entities and character references.
func (s *Scanner) unescape(dst, raw []byte, entities bool) ([]byte, error) {
	for i := 0; i < len(raw); {
		switch raw[i] {
		case '&':
			if !entities {
				dst = append(dst, '&')
				i++
				continue
			}
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

// parseCharRef reads the digits of &#…; or &#x…; (lowercase x, as XML
// has it). A surrogate is refused, as XML 1.0's Legal Character
// constraint requires.
func parseCharRef(b []byte) (rune, error) {
	base := 10
	if len(b) > 0 && b[0] == 'x' {
		base = 16
		b = b[1:]
	}
	n, err := strconv.ParseUint(string(b), base, 32)
	if r := rune(n); err == nil && utf8.ValidRune(r) {
		return r, nil
	}
	return 0, fmt.Errorf("invalid character reference")
}
