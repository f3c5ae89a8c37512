// Package xmltok provides a streaming XML tokenizer.
//
// It is the "scanner for XML documents" from the skeleton code the paper
// hands to students, rebuilt as a stand-alone substrate: a hand-rolled,
// allocation-conscious pull tokenizer that the DOM builder (milestone 1) and
// the XASR shredder (milestone 2) both consume. It handles the subset of XML
// the project needs — elements, attributes, character data, CDATA sections,
// character and predefined entity references — and skips comments,
// processing instructions, the XML declaration and DOCTYPE. Namespaces are
// not interpreted; a qualified name is just a label.
package xmltok

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Kind identifies the type of a Token.
type Kind int

// Token kinds. Self-closing elements <a/> are reported as StartElement
// immediately followed by EndElement.
const (
	StartElement Kind = iota // <name attr="v" ...>
	EndElement               // </name>
	Text                     // character data (entity references resolved)
)

// String returns a human-readable name for the token kind.
func (k Kind) String() string {
	switch k {
	case StartElement:
		return "StartElement"
	case EndElement:
		return "EndElement"
	case Text:
		return "Text"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Attr is a single attribute of a start-element token.
type Attr struct {
	Name  string
	Value string
}

// Token is one XML event. Name is set for element tokens, Text for text
// tokens. Attrs is set only on StartElement and is valid until the next
// call to Next.
type Token struct {
	Kind  Kind
	Name  string
	Text  string
	Attrs []Attr
}

// SyntaxError reports malformed XML together with the byte offset at which
// it was detected.
type SyntaxError struct {
	Offset int64
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xml syntax error at offset %d: %s", e.Offset, e.Msg)
}

// Options configures a Tokenizer.
type Options struct {
	// KeepWhitespace reports whitespace-only character data as Text tokens.
	// By default such runs are dropped, matching the data-oriented documents
	// (DBLP, TREEBANK) used in the paper, whose pretty-printing whitespace
	// carries no information.
	KeepWhitespace bool
}

// Tokenizer is a pull-based XML scanner. Create one with New and call Next
// until it returns io.EOF.
type Tokenizer struct {
	r      *bufio.Reader
	opts   Options
	offset int64
	stack  []string // open element names, for well-formedness checking
	// pending holds an EndElement synthesized for a self-closing tag.
	pending *Token
	buf     strings.Builder
	done    bool
}

// New returns a Tokenizer reading from r with default options.
func New(r io.Reader) *Tokenizer { return NewWithOptions(r, Options{}) }

// NewWithOptions returns a Tokenizer reading from r with the given options.
func NewWithOptions(r io.Reader, opts Options) *Tokenizer {
	return &Tokenizer{r: bufio.NewReaderSize(r, 64<<10), opts: opts}
}

func (t *Tokenizer) errf(format string, args ...any) error {
	return &SyntaxError{Offset: t.offset, Msg: fmt.Sprintf(format, args...)}
}

// markupErr reports a failed read inside markup. End of input there is
// malformed XML, as is a nil err (an unexpected byte); any other read
// error is the reader's own and keeps its cause.
func (t *Tokenizer) markupErr(err error, format string, args ...any) error {
	if err != nil && err != io.EOF {
		return fmt.Errorf("xml read error at offset %d: %w", t.offset, err)
	}
	return t.errf(format, args...)
}

func (t *Tokenizer) readByte() (byte, error) {
	b, err := t.r.ReadByte()
	if err == nil {
		t.offset++
	}
	return b, err
}

func (t *Tokenizer) unreadByte() {
	// bufio guarantees one byte of pushback after a successful ReadByte.
	_ = t.r.UnreadByte()
	t.offset--
}

// Depth returns the number of currently open elements.
func (t *Tokenizer) Depth() int { return len(t.stack) }

// Next returns the next token. At end of input it returns io.EOF; if
// elements are still open at EOF it returns a SyntaxError instead.
func (t *Tokenizer) Next() (Token, error) {
	if t.pending != nil {
		tok := *t.pending
		t.pending = nil
		return tok, nil
	}
	for {
		head, err := t.r.Peek(1)
		if err == io.EOF {
			if len(t.stack) > 0 {
				return Token{}, t.errf("unexpected EOF: %d unclosed element(s), innermost <%s>", len(t.stack), t.stack[len(t.stack)-1])
			}
			t.done = true
			return Token{}, io.EOF
		}
		if err != nil {
			return Token{}, err
		}
		// A CDATA section starts a text run; any other '<' starts markup.
		markup := head[0] == '<'
		if markup {
			cdata, err := t.atCDATA()
			if err != nil {
				return Token{}, err
			}
			markup = !cdata
		}
		if markup {
			t.readByte()
			tok, skip, err := t.readMarkup()
			if err != nil {
				return Token{}, err
			}
			if skip {
				continue
			}
			return tok, nil
		}
		text, err := t.readText()
		if err != nil {
			return Token{}, err
		}
		if text == "" {
			continue // whitespace-only run dropped
		}
		if len(t.stack) == 0 && !t.opts.KeepWhitespace {
			// Text outside the document element: only whitespace is legal,
			// and whitespace was already dropped above.
			return Token{}, t.errf("character data outside document element: %q", clip(text))
		}
		return Token{Kind: Text, Text: text}, nil
	}
}

func clip(s string) string {
	if len(s) > 24 {
		return s[:24] + "..."
	}
	return s
}

// readMarkup parses everything after a '<'. skip is true for markup that
// produces no token (comments, PIs, declarations).
func (t *Tokenizer) readMarkup() (tok Token, skip bool, err error) {
	b, err := t.readByte()
	if err != nil {
		return Token{}, false, t.markupErr(err, "unexpected EOF after '<'")
	}
	switch b {
	case '?':
		return Token{}, true, t.skipPI()
	case '!':
		return Token{}, true, t.skipDecl()
	case '/':
		tok, err = t.readEndTag()
		return tok, false, err
	default:
		t.unreadByte()
		tok, err = t.readStartTag()
		return tok, false, err
	}
}

// skipPI consumes a processing instruction (or the XML declaration) after
// "<?" up to and including "?>".
func (t *Tokenizer) skipPI() error {
	var prev byte
	for {
		b, err := t.readByte()
		if err != nil {
			return t.markupErr(err, "unterminated processing instruction")
		}
		if prev == '?' && b == '>' {
			return nil
		}
		prev = b
	}
}

// atCDATA reports whether the input continues with "<![CDATA[".
func (t *Tokenizer) atCDATA() (bool, error) {
	h, err := t.r.Peek(len(cdataOpen))
	if err != nil && err != io.EOF {
		return false, t.markupErr(err, "")
	}
	return string(h) == cdataOpen, nil
}

const cdataOpen = "<![CDATA["

// skipDecl consumes the markup after "<!": a comment, or a declaration
// such as DOCTYPE. A CDATA section never gets here (Next and readText read
// it as text). A declaration ends where encoding/xml ends a directive: at
// the first '>' outside quotes and outside nested <...>, skipping
// comments; the byte after "<!" is taken as it is.
func (t *Tokenizer) skipDecl() error {
	b, err := t.readByte()
	if err != nil {
		return t.markupErr(err, "unterminated declaration")
	}
	switch b {
	case '-':
		if b, err := t.readByte(); err != nil || b != '-' {
			return t.markupErr(err, "invalid sequence <!- not part of <!--")
		}
		return t.skipComment()
	case '[':
		return t.errf("invalid <![ sequence")
	}
	var quote byte
	depth := 0
	for {
		b, err := t.readByte()
		if err != nil {
			return t.markupErr(err, "unterminated declaration")
		}
		switch {
		case quote != 0:
			if b == quote {
				quote = 0
			}
		case b == '"' || b == '\'':
			quote = b
		case b == '>':
			if depth == 0 {
				return nil
			}
			depth--
		case b == '<':
			h, err := t.r.Peek(3)
			if err != nil && err != io.EOF {
				return t.markupErr(err, "")
			}
			if string(h) == "!--" {
				t.discard(3)
				if err := t.skipComment(); err != nil {
					return err
				}
			} else {
				depth++
			}
		}
	}
}

func (t *Tokenizer) skipComment() error {
	var p1, p2 byte
	for {
		b, err := t.readByte()
		if err != nil {
			return t.markupErr(err, "unterminated comment")
		}
		if p1 == '-' && p2 == '-' && b == '>' {
			return nil
		}
		p1, p2 = p2, b
	}
}

// readCDATA reads a CDATA section's content after "<![CDATA[", with line
// ends normalized (see writeNormalized).
func (t *Tokenizer) readCDATA() (string, error) {
	t.buf.Reset()
	var p1, p2 byte
	for {
		b, err := t.readByte()
		if err != nil {
			return "", t.markupErr(err, "unterminated CDATA section")
		}
		if p1 == ']' && p2 == ']' && b == '>' {
			s := t.buf.String()
			return s[:len(s)-2], nil // drop the buffered "]]"
		}
		t.writeNormalized(b, p2)
		p1, p2 = p2, b
	}
}

// writeNormalized buffers the raw byte b, read after the raw byte prev,
// with XML's line-end normalization: "\r\n" and a lone "\r" become "\n".
// A "\r" that a character reference produces is not normalized.
func (t *Tokenizer) writeNormalized(b, prev byte) {
	switch {
	case b == '\r':
		t.buf.WriteByte('\n')
	case b == '\n' && prev == '\r':
	default:
		t.buf.WriteByte(b)
	}
}

func isNameStart(b byte) bool {
	return b == '_' || b == ':' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || b >= 0x80
}

func isNameChar(b byte) bool {
	return isNameStart(b) || b == '-' || b == '.' || (b >= '0' && b <= '9')
}

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }

func (t *Tokenizer) readName() (string, error) {
	b, err := t.readByte()
	if err != nil {
		return "", t.markupErr(err, "unexpected EOF reading name")
	}
	if !isNameStart(b) {
		return "", t.errf("invalid name start character %q", string(b))
	}
	t.buf.Reset()
	t.buf.WriteByte(b)
	for {
		b, err := t.readByte()
		if err != nil {
			return "", t.markupErr(err, "unexpected EOF in name")
		}
		if !isNameChar(b) {
			t.unreadByte()
			return t.buf.String(), nil
		}
		t.buf.WriteByte(b)
	}
}

func (t *Tokenizer) skipSpace() error {
	for {
		b, err := t.readByte()
		if err != nil {
			return err
		}
		if !isSpace(b) {
			t.unreadByte()
			return nil
		}
	}
}

func (t *Tokenizer) readStartTag() (Token, error) {
	name, err := t.readName()
	if err != nil {
		return Token{}, err
	}
	tok := Token{Kind: StartElement, Name: name}
	for {
		if err := t.skipSpace(); err != nil {
			return Token{}, t.markupErr(err, "unexpected EOF in start tag <%s>", name)
		}
		b, err := t.readByte()
		if err != nil {
			return Token{}, t.markupErr(err, "unexpected EOF in start tag <%s>", name)
		}
		switch {
		case b == '>':
			t.stack = append(t.stack, name)
			return tok, nil
		case b == '/':
			b2, err := t.readByte()
			if err != nil || b2 != '>' {
				return Token{}, t.markupErr(err, "expected '>' after '/' in tag <%s>", name)
			}
			// Self-closing: synthesize the matching end tag.
			t.pending = &Token{Kind: EndElement, Name: name}
			return tok, nil
		default:
			t.unreadByte()
			attr, err := t.readAttr(name)
			if err != nil {
				return Token{}, err
			}
			tok.Attrs = append(tok.Attrs, attr)
		}
	}
}

func (t *Tokenizer) readAttr(elem string) (Attr, error) {
	name, err := t.readName()
	var se *SyntaxError
	if errors.As(err, &se) {
		return Attr{}, t.errf("bad attribute name in <%s>: %v", elem, err)
	} else if err != nil {
		return Attr{}, err
	}
	if err := t.skipSpace(); err != nil {
		return Attr{}, t.markupErr(err, "unexpected EOF in attribute %s", name)
	}
	b, err := t.readByte()
	if err != nil || b != '=' {
		return Attr{}, t.markupErr(err, "expected '=' after attribute name %s", name)
	}
	if err := t.skipSpace(); err != nil {
		return Attr{}, t.markupErr(err, "unexpected EOF in attribute %s", name)
	}
	quote, err := t.readByte()
	if err != nil || (quote != '"' && quote != '\'') {
		return Attr{}, t.markupErr(err, "expected quoted value for attribute %s", name)
	}
	t.buf.Reset()
	var prev byte
	for {
		b, err := t.readByte()
		if err != nil {
			return Attr{}, t.markupErr(err, "unterminated value for attribute %s", name)
		}
		if b == quote {
			val, err := t.decodeEntities(t.buf.String())
			if err != nil {
				return Attr{}, err
			}
			return Attr{Name: name, Value: val}, nil
		}
		t.writeNormalized(b, prev)
		prev = b
	}
}

func (t *Tokenizer) readEndTag() (Token, error) {
	name, err := t.readName()
	if err != nil {
		return Token{}, err
	}
	if err := t.skipSpace(); err != nil {
		return Token{}, t.markupErr(err, "unexpected EOF in end tag </%s>", name)
	}
	b, err := t.readByte()
	if err != nil || b != '>' {
		return Token{}, t.markupErr(err, "expected '>' in end tag </%s>", name)
	}
	if len(t.stack) == 0 {
		return Token{}, t.errf("end tag </%s> with no open element", name)
	}
	top := t.stack[len(t.stack)-1]
	if top != name {
		return Token{}, t.errf("mismatched end tag: </%s> closes <%s>", name, top)
	}
	t.stack = t.stack[:len(t.stack)-1]
	return Token{Kind: EndElement, Name: name}, nil
}

// readText collects character data up to the next '<' that does not open
// a CDATA section. CDATA sections are folded in verbatim (no entity
// decoding inside them); entity references in ordinary character data are
// resolved; line ends are normalized. Whitespace-only runs return ""
// unless KeepWhitespace. The terminating '<' is left unconsumed.
func (t *Tokenizer) readText() (string, error) {
	// out collects the run when a CDATA section splits it; t.buf holds the
	// ordinary text since the last section, entity references undecoded.
	var out strings.Builder
	t.buf.Reset()
	for {
		// Copy the buffered bytes up to the next '<' or '\r' in one write.
		n := t.r.Buffered()
		if n == 0 {
			if _, err := t.r.Peek(1); err == io.EOF {
				break
			} else if err != nil {
				return "", err
			}
			n = t.r.Buffered()
		}
		chunk, _ := t.r.Peek(n)
		i := bytes.IndexByte(chunk, '<')
		if i < 0 {
			i = len(chunk)
		}
		if j := bytes.IndexByte(chunk[:i], '\r'); j >= 0 {
			i = j
		}
		t.buf.Write(chunk[:i])
		if i == len(chunk) {
			t.discard(i)
			continue
		}
		stop := chunk[i]
		t.discard(i)
		if stop == '\r' {
			// "\r\n" and a lone "\r" read as "\n" (see writeNormalized).
			t.discard(1)
			t.buf.WriteByte('\n')
			if h, err := t.r.Peek(1); err == nil && h[0] == '\n' {
				t.discard(1)
			}
			continue
		}
		// CDATA continues the text run; anything else ends it.
		if cdata, err := t.atCDATA(); err != nil {
			return "", err
		} else if !cdata {
			break
		}
		t.discard(len(cdataOpen))
		dec, err := t.decodeEntities(t.buf.String())
		if err != nil {
			return "", err
		}
		out.WriteString(dec)
		// readCDATA uses t.buf internally; its result is verbatim.
		cd, err := t.readCDATA()
		if err != nil {
			return "", err
		}
		out.WriteString(cd)
		t.buf.Reset()
	}
	text, err := t.decodeEntities(t.buf.String())
	if err != nil {
		return "", err
	}
	if out.Len() > 0 {
		out.WriteString(text)
		text = out.String()
	}
	if !t.opts.KeepWhitespace && allSpace(text) {
		return "", nil
	}
	return text, nil
}

// discard skips n bytes the caller has peeked at.
func (t *Tokenizer) discard(n int) {
	t.r.Discard(n)
	t.offset += int64(n)
}

// allSpace reports whether s is empty or holds only XML whitespace
// (space, tab, CR, LF); other Unicode spaces are content.
func allSpace(s string) bool {
	for i := 0; i < len(s); i++ {
		if !isSpace(s[i]) {
			return false
		}
	}
	return true
}

// decodeEntities resolves the five predefined entities and numeric
// character references. Unknown entities are an error.
func (t *Tokenizer) decodeEntities(s string) (string, error) {
	amp := strings.IndexByte(s, '&')
	if amp < 0 {
		return s, nil
	}
	var b strings.Builder
	b.Grow(len(s))
	for {
		b.WriteString(s[:amp])
		s = s[amp:]
		semi := strings.IndexByte(s, ';')
		if semi < 0 {
			return "", t.errf("unterminated entity reference %q", clip(s))
		}
		ent := s[1:semi]
		switch {
		case ent == "lt":
			b.WriteByte('<')
		case ent == "gt":
			b.WriteByte('>')
		case ent == "amp":
			b.WriteByte('&')
		case ent == "apos":
			b.WriteByte('\'')
		case ent == "quot":
			b.WriteByte('"')
		case strings.HasPrefix(ent, "#x") || strings.HasPrefix(ent, "#X"):
			n, err := strconv.ParseUint(ent[2:], 16, 32)
			if err != nil {
				return "", t.errf("bad character reference &%s;", ent)
			}
			b.WriteRune(rune(n))
		case strings.HasPrefix(ent, "#"):
			n, err := strconv.ParseUint(ent[1:], 10, 32)
			if err != nil {
				return "", t.errf("bad character reference &%s;", ent)
			}
			b.WriteRune(rune(n))
		default:
			return "", t.errf("unknown entity &%s;", ent)
		}
		s = s[semi+1:]
		amp = strings.IndexByte(s, '&')
		if amp < 0 {
			b.WriteString(s)
			return b.String(), nil
		}
	}
}

// AppendEscaped appends s to dst with '<', '>' and '&' escaped and returns
// the extended slice.
func AppendEscaped(dst []byte, s string) []byte { return appendEscaped(dst, s) }

// AppendEscapedBytes is AppendEscaped for text held in a byte slice, such
// as a value read straight off a page, with no string conversion.
func AppendEscapedBytes(dst, s []byte) []byte { return appendEscaped(dst, s) }

// appendEscaped copies each run between escaped bytes with one append.
func appendEscaped[T string | []byte](dst []byte, s T) []byte {
	run := 0
	for i := 0; i < len(s); i++ {
		var ent string
		switch s[i] {
		case '<':
			ent = "&lt;"
		case '>':
			ent = "&gt;"
		case '&':
			ent = "&amp;"
		default:
			continue
		}
		dst = append(dst, s[run:i]...)
		dst = append(dst, ent...)
		run = i + 1
	}
	return append(dst, s[run:]...)
}
