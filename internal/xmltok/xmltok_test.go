package xmltok

import (
	"errors"
	"io"
	"strings"
	"testing"
)

func tokens(t *testing.T, src string, opts Options) []Token {
	t.Helper()
	tz := NewWithOptions(strings.NewReader(src), opts)
	var out []Token
	for {
		tok, err := tz.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("tokenize %q: %v", src, err)
		}
		// Copy attrs (valid only until next call).
		tok.Attrs = append([]Attr(nil), tok.Attrs...)
		out = append(out, tok)
	}
}

func TestBasicDocument(t *testing.T) {
	got := tokens(t, `<a><b>text</b><c/></a>`, Options{})
	want := []struct {
		kind Kind
		name string
		text string
	}{
		{StartElement, "a", ""},
		{StartElement, "b", ""},
		{Text, "", "text"},
		{EndElement, "b", ""},
		{StartElement, "c", ""},
		{EndElement, "c", ""},
		{EndElement, "a", ""},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Kind != w.kind || got[i].Name != w.name || got[i].Text != w.text {
			t.Errorf("token %d: got %v %q %q", i, got[i].Kind, got[i].Name, got[i].Text)
		}
	}
}

func TestAttributes(t *testing.T) {
	got := tokens(t, `<a x="1" y='two&amp;three'/>`, Options{})
	if len(got) != 2 || len(got[0].Attrs) != 2 {
		t.Fatalf("tokens: %v", got)
	}
	if got[0].Attrs[0] != (Attr{Name: "x", Value: "1"}) {
		t.Errorf("attr 0: %v", got[0].Attrs[0])
	}
	if got[0].Attrs[1] != (Attr{Name: "y", Value: "two&three"}) {
		t.Errorf("attr 1: %v", got[0].Attrs[1])
	}
}

func TestEntities(t *testing.T) {
	got := tokens(t, `<a>&lt;x&gt; &amp; &quot;y&quot; &apos;z&apos; &#65;&#x42;</a>`, Options{})
	if got[1].Text != `<x> & "y" 'z' AB` {
		t.Errorf("entities: %q", got[1].Text)
	}
	tz := New(strings.NewReader(`<a>&unknown;</a>`))
	tz.Next() // <a>
	if _, err := tz.Next(); err == nil {
		t.Error("unknown entity accepted")
	}
}

func TestCDATA(t *testing.T) {
	got := tokens(t, `<a>pre<![CDATA[<raw> & ]]]>post</a>`, Options{})
	if len(got) != 3 {
		t.Fatalf("tokens: %v", got)
	}
	if got[1].Text != "pre<raw> & ]post" {
		t.Errorf("cdata text: %q", got[1].Text)
	}
}

func TestCommentsAndPIsSkipped(t *testing.T) {
	src := `<?xml version="1.0"?><!-- c1 --><!DOCTYPE a [<!ELEMENT a ANY>]><a><!-- <not><a><tag> -->x<?pi data?></a>`
	got := tokens(t, src, Options{})
	if len(got) != 3 || got[1].Text != "x" {
		t.Fatalf("tokens: %v", got)
	}
}

func TestWhitespaceHandling(t *testing.T) {
	src := "<a>\n  <b>x</b>\n</a>"
	got := tokens(t, src, Options{})
	if len(got) != 5 {
		t.Fatalf("whitespace not dropped: %v", got)
	}
	got = tokens(t, src, Options{KeepWhitespace: true})
	if len(got) != 7 {
		t.Fatalf("whitespace not kept: %v", got)
	}
}

func TestMalformedDocuments(t *testing.T) {
	bad := []string{
		`<a><b></a></b>`,
		`<a>`,
		`</a>`,
		`<a attr></a>`,
		`<a attr=novalue></a>`,
		`<a`,
		`<a><![CDATA[x</a>`,
		`text outside<a/>`,
	}
	for _, src := range bad {
		tz := New(strings.NewReader(src))
		var err error
		for err == nil {
			_, err = tz.Next()
		}
		if err == io.EOF {
			t.Errorf("malformed %q accepted", src)
		}
	}
}

func TestDepthTracking(t *testing.T) {
	tz := New(strings.NewReader(`<a><b>x</b></a>`))
	tz.Next()
	if tz.Depth() != 1 {
		t.Errorf("depth after <a>: %d", tz.Depth())
	}
	tz.Next()
	if tz.Depth() != 2 {
		t.Errorf("depth after <b>: %d", tz.Depth())
	}
}

func TestEscapeHelpers(t *testing.T) {
	if got := AppendEscaped([]byte("<p>"), `a<b>&c`); string(got) != "<p>a&lt;b&gt;&amp;c" {
		t.Errorf("AppendEscaped: %q", got)
	}
	if got := AppendEscapedBytes(nil, []byte(`x&y<z`)); string(got) != "x&amp;y&lt;z" {
		t.Errorf("AppendEscapedBytes: %q", got)
	}
}

// appendEscapedRef is the byte-at-a-time escaper AppendEscaped replaced,
// kept as the fuzz oracle.
func appendEscapedRef(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		case '&':
			dst = append(dst, "&amp;"...)
		default:
			dst = append(dst, s[i])
		}
	}
	return dst
}

// FuzzAppendEscaped checks both escaping entry points against the
// byte-at-a-time reference, appended after a non-empty prefix.
func FuzzAppendEscaped(f *testing.F) {
	for _, s := range []string{"", "plain", "<", "&&", "a<b>&c", "<<>>", "x&amp;y", "héllo <wörld> & 日本", "\x00<\xff"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := appendEscapedRef([]byte("pre"), s)
		if got := AppendEscaped([]byte("pre"), s); string(got) != string(want) {
			t.Fatalf("AppendEscaped(%q) = %q, want %q", s, got, want)
		}
		if got := AppendEscapedBytes([]byte("pre"), []byte(s)); string(got) != string(want) {
			t.Fatalf("AppendEscapedBytes(%q) = %q, want %q", s, got, want)
		}
	})
}

func TestUnicodeContent(t *testing.T) {
	got := tokens(t, `<a>héllo wörld 日本</a>`, Options{})
	if got[1].Text != "héllo wörld 日本" {
		t.Errorf("unicode text: %q", got[1].Text)
	}
	got = tokens(t, `<ün><x/></ün>`, Options{})
	if got[0].Name != "ün" {
		t.Errorf("unicode name: %q", got[0].Name)
	}
}

// failingReader returns data, then err on every later Read.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// A read error is the reader's, wherever it strikes: cut a well-formed
// document at every offset, inside each kind of markup and inside text,
// and the error must carry the reader's sentinel and be no SyntaxError.
func TestReadErrorKeepsCause(t *testing.T) {
	errCut := errors.New("connection reset")
	doc := `<?xml version="1.0"?><!DOCTYPE r [<!ELEMENT r ANY>]>` +
		`<r a="1" b='&amp;'><!-- c --><s x="y"/>t&lt;<![CDATA[d]]><?pi x?></r >`
	for cut := 0; cut < len(doc); cut++ {
		tz := New(&failingReader{data: []byte(doc[:cut]), err: errCut})
		var err error
		for err == nil {
			_, err = tz.Next()
		}
		var se *SyntaxError
		if !errors.Is(err, errCut) || errors.As(err, &se) {
			t.Fatalf("cut at %d (%q): got %v, want the reader's error", cut, doc[:cut], err)
		}
	}
}
