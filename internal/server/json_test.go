package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xqdb/internal/exec"
	"xqdb/internal/xmlgen"
)

// jsonRef is encoding/json's escaping of s as writeJSON configures it.
func jsonRef(t testing.TB, s string) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(s); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(b.Bytes(), []byte("\n"))
}

// escaperSeeds are the answers both the fuzz target and the envelope test
// start from: every escape class, invalid UTF-8 and a DBLP answer.
func escaperSeeds() []string {
	var ctl strings.Builder
	for b := 0; b < 0x20; b++ {
		ctl.WriteByte(byte(b))
	}
	ctl.WriteByte(0x7f)
	return []string{
		"",
		"<a>plain</a>",
		`say "hi" \ and \\ "\"`,
		ctl.String(),
		"\xff",
		"x\xe2\x82",        // a truncated three-byte rune
		"\xe2\x82<b/>\xf0", // truncated runes around markup
		"line\u2028para\u2029end",
		"héllo <wörld> & 日本 🌍",
		xmlgen.DBLP(xmlgen.DBLPConfig{Entries: 3, Seed: 1}),
	}
}

// FuzzAppendJSONString holds appendJSONString to encoding/json with
// SetEscapeHTML(false), and writeJSONChars through a scratch buffer of
// the smallest legal size (so runes land on every chunk boundary) to the
// same bytes.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range escaperSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := jsonRef(t, s)
		if got := appendJSONString([]byte("pre"), s); !bytes.Equal(got[3:], want) || string(got[:3]) != "pre" {
			t.Fatalf("appendJSONString(%q) = %q, want %q", s, got[3:], want)
		}
		var out bytes.Buffer
		buf, err := writeJSONChars(&out, make([]byte, 0, maxEscape*4), s)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(buf)
		if got := out.Bytes(); !bytes.Equal(got, want[1:len(want)-1]) {
			t.Fatalf("writeJSONChars(%q) = %q, want %q", s, got, want[1:len(want)-1])
		}
	})
}

// encodeRef is the /query body as writeJSON writes it.
func encodeRef(t testing.TB, resp *QueryResponse) []byte {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, resp)
	return rec.Body.Bytes()
}

// TestQueryEnvelopeMatchesEncoder pins writeQueryResponse to writeJSON's
// bytes: small answers, answers larger than the scratch buffer with runes
// on its boundaries, odd document names and counters, and a live /query
// over a DBLP document.
func TestQueryEnvelopeMatchesEncoder(t *testing.T) {
	big := strings.Repeat("<t>ü\"x\" \x01</t>\n", scratchSize/8)
	answers := append(escaperSeeds(), big, strings.Repeat("é", scratchSize), strings.Repeat("\xff", scratchSize/3))
	for i, xml := range answers {
		for _, resp := range []*QueryResponse{
			{Doc: "d", Epoch: 1, XML: xml},
			{Doc: `we<ir>d&"`, Epoch: 1 << 40, XML: xml, CacheHit: true, Elapsed: 1234.567,
				Counters: exec.Counters{RowsScanned: 7, SpilledBytes: 1 << 33, Batches: -1}},
			{Doc: "tiny", XML: xml, Elapsed: 1e-7},
			{Doc: "huge", XML: xml, Elapsed: 3e21},
		} {
			rec := httptest.NewRecorder()
			writeQueryResponse(rec, resp)
			if want := encodeRef(t, resp); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("answer %d, doc %q: envelope differs from encoding/json\n got %.300q\nwant %.300q", i, resp.Doc, rec.Body.Bytes(), want)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q", ct)
			}
		}
	}

	ts := newTestServer(t)
	ts.do(t, "PUT", "/docs/dblp", xmlgen.DBLP(xmlgen.DBLPConfig{Entries: 2000, Seed: 1}), http.StatusOK)
	body := ts.do(t, "POST", "/query?doc=dblp", "//title", http.StatusOK)
	var resp QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.XML) < scratchSize {
		t.Fatalf("//title answer is %d bytes, want more than one scratch buffer", len(resp.XML))
	}
	if want := encodeRef(t, &resp); !bytes.Equal(body, want) {
		t.Fatalf("/query body differs from encoding/json (%d vs %d bytes)", len(body), len(want))
	}
}

// failWriter accepts n writes, then fails.
type failWriter struct {
	httptest.ResponseRecorder
	n int
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n == 0 {
		return 0, errors.New("client gone")
	}
	w.n--
	return w.ResponseRecorder.Write(p)
}

// TestQueryEnvelopeStopsOnWriteError: a failed write ends the response;
// nothing after it is written.
func TestQueryEnvelopeStopsOnWriteError(t *testing.T) {
	w := &failWriter{ResponseRecorder: *httptest.NewRecorder(), n: 1}
	writeQueryResponse(w, &QueryResponse{Doc: "d", XML: strings.Repeat("x", 4*scratchSize)})
	if got := w.Body.Len(); got == 0 || got > scratchSize {
		t.Fatalf("wrote %d bytes, want one scratch buffer's worth", got)
	}
}

// BenchmarkQueryEnvelope times a //title answer over a 20 000-entry DBLP
// (about 1.4 MB) through writeJSON and through writeQueryResponse.
func BenchmarkQueryEnvelope(b *testing.B) {
	doc := xmlgen.DBLP(xmlgen.DBLPConfig{Entries: 20000, Seed: 1})
	var titles strings.Builder
	for rest := doc; ; {
		i := strings.Index(rest, "<title>")
		if i < 0 {
			break
		}
		j := strings.Index(rest[i:], "</title>") + i + len("</title>")
		titles.WriteString(rest[i:j])
		rest = rest[j:]
	}
	resp := &QueryResponse{Doc: "dblp", Epoch: 1, XML: titles.String(), Elapsed: 12.5}
	for _, bc := range []struct {
		name  string
		write func(http.ResponseWriter)
	}{
		{"encoder", func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, resp) }},
		{"direct", func(w http.ResponseWriter) { writeQueryResponse(w, resp) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(resp.XML)))
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				rec.Body.Grow(len(resp.XML) + 4096)
				bc.write(rec)
			}
		})
	}
}
