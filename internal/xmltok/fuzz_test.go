package xmltok

import (
	"encoding/xml"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"xqdb/internal/xmlgen"
)

// refTokens tokenizes src with encoding/xml (strict, RawToken) into the
// stream xmltok promises: comments, processing instructions and
// declarations skipped, adjacent character data merged, whitespace-only
// runs dropped, names as written. ok is false when encoding/xml rejects
// src or src is not one well-formed document: end tags must match, no
// text may stand outside the root, and there must be exactly one root.
func refTokens(src string) (toks []Token, ok bool) {
	d := xml.NewDecoder(strings.NewReader(src))
	var stack []string
	var text strings.Builder
	roots := 0
	// flush ends a run of character data; it fails on text outside the root.
	flush := func() bool {
		s := text.String()
		text.Reset()
		if allSpace(s) {
			return true
		}
		toks = append(toks, Token{Kind: Text, Text: s})
		return len(stack) > 0
	}
	for {
		tok, err := d.RawToken()
		if err == io.EOF {
			return toks, flush() && len(stack) == 0 && roots == 1
		}
		if err != nil {
			return nil, false
		}
		if cd, isText := tok.(xml.CharData); isText {
			text.Write(cd)
			continue
		}
		if !flush() {
			return nil, false
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			if len(stack) == 0 {
				roots++
			}
			name := qname(tok.Name)
			stack = append(stack, name)
			st := Token{Kind: StartElement, Name: name}
			for _, a := range tok.Attr {
				st.Attrs = append(st.Attrs, Attr{Name: qname(a.Name), Value: a.Value})
			}
			toks = append(toks, st)
		case xml.EndElement:
			name := qname(tok.Name)
			if len(stack) == 0 || stack[len(stack)-1] != name {
				return nil, false
			}
			stack = stack[:len(stack)-1]
			toks = append(toks, Token{Kind: EndElement, Name: name})
		}
	}
}

// qname puts back the name RawToken split at its colon.
func qname(n xml.Name) string {
	if n.Space == "" {
		return n.Local
	}
	return n.Space + ":" + n.Local
}

// tokenizeAll runs xmltok over src to the end or the first error.
func tokenizeAll(src string) ([]Token, error) { return tokenizeReader(strings.NewReader(src)) }

func tokenizeReader(r io.Reader) ([]Token, error) {
	tz := New(r)
	var out []Token
	for {
		tok, err := tz.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		tok.Attrs = append([]Attr(nil), tok.Attrs...)
		out = append(out, tok)
	}
}

// tokenizeSeeds are small documents shaped like the testbed's (large
// seeds stall the fuzzer in minimization), the CDATA cases
// that once came out wrong, and the markup the two tokenizers must agree
// on: comments, PIs, declarations with quotes and nesting, references and
// line ends.
func tokenizeSeeds() []string {
	return []string{
		xmlgen.Figure2,
		xmlgen.DBLP(xmlgen.DBLPConfig{Entries: 4, Seed: 16}),
		`<FILE><S><NP><DT>the</DT><NN>cat</NN></NP><VP><VBD>sat</VBD><PP><IN>on</IN><NP><NN>mat</NN></NP></PP></VP></S></FILE>`,
		`<r><a><![CDATA[x]]></a></r>`,
		`<r><a><b/><![CDATA[c]]><d/></a></r>`,
		`<a>p<![CDATA[q]]>r</a>`,
		`<a><![CDATA[x]]>y<!--c--><![CDATA[ ]]>z</a>`,
		`<?xml version="1.0"?><!DOCTYPE a [<!ENTITY e "]>"><!-- > -->]><a k='v' l="&lt;&#65;&#x42;">&amp;&quot;&apos;&gt;</a>`,
		"<a>\r\n x\ry\r\r\n<b c='1\r\n2'/><![CDATA[\r\n]]>&#13;\n</a>",
		"<a>\u00a0</a>",
		`<p:a xmlns:p="u" p:k="v"><p:b/></p:a>`,
	}
}

// FuzzTokenize holds xmltok to encoding/xml: on every input encoding/xml
// accepts as one well-formed document (see refTokens), xmltok must accept
// it too and produce the same tokens. xmltok is more lenient than
// encoding/xml (it accepts control characters, invalid UTF-8, "--" in
// comments, "&#X41;"), so an input only xmltok accepts is no finding.
// Every input is also read one byte per Read, so each construct straddles
// a buffer boundary, and must give the same tokens and the same error.
func FuzzTokenize(f *testing.F) {
	for _, s := range tokenizeSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, err := tokenizeAll(src)
		small, smallErr := tokenizeReader(iotest.OneByteReader(strings.NewReader(src)))
		if !reflect.DeepEqual(small, got) || !reflect.DeepEqual(smallErr, err) {
			t.Fatalf("%q read a byte at a time: %q (%v), at once: %q (%v)", src, small, smallErr, got, err)
		}
		want, ok := refTokens(src)
		if !ok {
			return
		}
		if err != nil {
			t.Fatalf("xmltok rejects %q, which encoding/xml accepts: %v", src, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tokens of %q:\n got %q\nwant %q", src, got, want)
		}
	})
}

// TestCDATAAfterMarkup: a CDATA section right after a tag starts a text
// run in place, as one after text does, and a self-closing tag after it
// no longer overwrites it.
func TestCDATAAfterMarkup(t *testing.T) {
	text := func(s string) Token { return Token{Kind: Text, Text: s} }
	start := func(n string) Token { return Token{Kind: StartElement, Name: n} }
	end := func(n string) Token { return Token{Kind: EndElement, Name: n} }
	for _, c := range []struct {
		src  string
		want []Token
	}{
		{`<r><a><![CDATA[x]]></a></r>`, []Token{start("r"), start("a"), text("x"), end("a"), end("r")}},
		{`<r><a><b/><![CDATA[c]]><d/></a></r>`, []Token{start("r"), start("a"), start("b"), end("b"), text("c"), start("d"), end("d"), end("a"), end("r")}},
		{`<a>p<![CDATA[q]]>r</a>`, []Token{start("a"), text("pqr"), end("a")}},
		{`<a><![CDATA[x]]>y<![CDATA[<&>]]></a>`, []Token{start("a"), text("xy<&>"), end("a")}},
		{`<a><![CDATA[ ]]> </a>`, []Token{start("a"), end("a")}},
	} {
		got, err := tokenizeAll(c.src)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %q (%v), want %q", c.src, got, err, c.want)
		}
	}
	var se *SyntaxError
	if _, err := tokenizeAll(`<![CDATA[x]]><a/>`); !errors.As(err, &se) {
		t.Errorf("CDATA text before the root: err = %v, want a syntax error", err)
	}
}

// TestLineEndsAndSpaces: "\r\n" and "\r" read as "\n" in text, CDATA and
// attribute values, a character reference's "\r" stays, and only XML
// whitespace makes a run droppable.
func TestLineEndsAndSpaces(t *testing.T) {
	got, err := tokenizeAll("<a k='1\r\n2\r3'>x\r\ny\r<![CDATA[\r\n]]>&#13;\n</a>")
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Attrs[0].Value != "1\n2\n3" || got[1].Text != "x\ny\n\n\r\n" {
		t.Errorf("tokens %q", got)
	}
	got, err = tokenizeAll("<a>\u00a0</a>")
	if err != nil || len(got) != 3 || got[1].Text != "\u00a0" {
		t.Errorf("a no-break space run: %q (%v)", got, err)
	}
}
