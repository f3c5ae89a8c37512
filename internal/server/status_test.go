package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xqdb/internal/catalog"
	"xqdb/internal/fault"
	"xqdb/internal/plancache"
	"xqdb/internal/store"
)

// TestLoadErrorsByCause: a failed load is answered by its cause. The
// client's mistakes are 4xx, a value too long for a page is 413, an I/O
// fault is 500, and none of them leaves a document behind.
func TestLoadErrorsByCause(t *testing.T) {
	var inj fault.Injector
	ts := newTestServerWith(t, catalog.Options{Store: store.Options{IOHook: inj.Hook}})
	for _, c := range []struct {
		name, path, body string
		status           int
		msg              string
	}{
		{"malformed", "/docs/d", "<r><a></r>", http.StatusBadRequest, "mismatched end tag"},
		{"text outside the root", "/docs/d", "<r/>x", http.StatusBadRequest, "outside document element"},
		{"bad name", "/docs/-d", "<r/>", http.StatusBadRequest, "invalid document name"},
		{"long text", "/docs/d", "<r><t>" + strings.Repeat("x", 5000) + "</t></r>", http.StatusRequestEntityTooLarge, "text of 5000 bytes, limit 4056"},
		{"long element name", "/docs/d", "<r><" + strings.Repeat("e", 4100) + "/></r>", http.StatusRequestEntityTooLarge, "element name of 4100 bytes, limit 4056"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if out := ts.do(t, "PUT", c.path, c.body, c.status); !strings.Contains(string(out), c.msg) {
				t.Fatalf("body %s, want %q", out, c.msg)
			}
		})
	}
	t.Run("io fault", func(t *testing.T) {
		inj.ArmClass("page", 1)
		out := ts.do(t, "PUT", "/docs/d", xmlDoc(100), http.StatusInternalServerError)
		if !inj.Fired() || !strings.Contains(string(out), fault.ErrInjected.Error()) {
			t.Fatalf("fired=%v, body %s", inj.Fired(), out)
		}
		inj.Disarm()
	})
	if docs := ts.cat.List(); len(docs) != 0 {
		t.Fatalf("failed loads left %+v", docs)
	}
	ts.do(t, "PUT", "/docs/d", xmlDoc(100), http.StatusOK)
}

// TestUpdateValueTooLarge: a statement inserting a value too long for a
// page is 413 and changes nothing.
func TestUpdateValueTooLarge(t *testing.T) {
	ts := newTestServer(t)
	ts.do(t, "PUT", "/docs/d", `<r><a>1</a></r>`, http.StatusOK)
	for _, c := range []struct{ stmt, msg string }{
		{"insert node <t>" + strings.Repeat("x", 5000) + "</t> into /r", "text of 5000 bytes, limit 4056"},
		{"insert node <" + strings.Repeat("e", 4100) + "/> into /r/a", "element name of 4100 bytes, limit 4056"},
	} {
		if out := ts.do(t, "POST", "/docs/d/update", c.stmt, http.StatusRequestEntityTooLarge); !strings.Contains(string(out), c.msg) {
			t.Fatalf("body %s, want %q", out, c.msg)
		}
	}
	if out := ts.do(t, "POST", "/query?doc=d&format=xml", "/r", http.StatusOK); string(out) != "<r><a>1</a></r>" {
		t.Fatalf("document after failed updates: %s", out)
	}
}

// TestLoadBodyTooLarge: a body over MaxBodyBytes is 413 wherever the
// limit cuts it, in text or inside a tag.
func TestLoadBodyTooLarge(t *testing.T) {
	cache := plancache.New(4)
	cat, err := catalog.Open(t.TempDir(), catalog.Options{PlanCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	srv := New(Config{Catalog: cat, Cache: cache, MaxBodyBytes: 100})
	ts := &testServer{Server: httptest.NewServer(srv.Handler()), cat: cat, cache: cache, srv: srv}
	defer ts.Close()
	for _, body := range []string{
		"<r>" + strings.Repeat("x", 200) + "</r>",
		"<r>" + strings.Repeat("<a/>", 50) + "</r>",
		"<r><" + strings.Repeat("a", 200) + "/></r>",
	} {
		ts.do(t, "PUT", "/docs/d", body, http.StatusRequestEntityTooLarge)
	}
	ts.do(t, "PUT", "/docs/d", "<r><a/></r>", http.StatusOK)
}
