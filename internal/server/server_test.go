package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"xqdb/internal/catalog"
	"xqdb/internal/core"
	"xqdb/internal/plancache"
)

type testServer struct {
	*httptest.Server
	cat   *catalog.Catalog
	cache *plancache.Cache
	srv   *Server
}

func newTestServer(t *testing.T) *testServer {
	t.Helper()
	return newTestServerWith(t, catalog.Options{})
}

// newTestServerWith serves a catalog opened with opts and a fresh plan
// cache.
func newTestServerWith(t *testing.T, opts catalog.Options) *testServer {
	t.Helper()
	cache := plancache.New(64)
	opts.PlanCache = cache
	cat, err := catalog.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Catalog: cat, Cache: cache,
		Defaults: core.Config{Mode: core.ModeM4, SortBudget: 1 << 20}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close(); cat.Close() })
	return &testServer{Server: ts, cat: cat, cache: cache, srv: srv}
}

func (ts *testServer) do(t *testing.T, method, path, body string, wantStatus int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s = %d, want %d: %s", method, path, resp.StatusCode, wantStatus, out)
	}
	return out
}

func xmlDoc(n int) string {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<x>%d</x>", i)
	}
	b.WriteString("</r>")
	return b.String()
}

func TestServerEndToEnd(t *testing.T) {
	ts := newTestServer(t)
	ts.do(t, "PUT", "/docs/alpha", xmlDoc(10), http.StatusOK)
	ts.do(t, "PUT", "/docs/beta", xmlDoc(30), http.StatusOK)

	var docs struct{ Docs []catalog.Info }
	if err := json.Unmarshal(ts.do(t, "GET", "/docs", "", http.StatusOK), &docs); err != nil {
		t.Fatal(err)
	}
	if len(docs.Docs) != 2 || docs.Docs[0].Name != "alpha" || docs.Docs[1].Name != "beta" {
		t.Fatalf("docs = %+v", docs.Docs)
	}

	// Query each document; results come from the right one.
	q := `for $x in /r/x return if ($x/text() = "25") then <hit/> else ()`
	var qr QueryResponse
	if err := json.Unmarshal(ts.do(t, "POST", "/query?doc=beta", q, http.StatusOK), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.XML != "<hit/>" || qr.CacheHit || qr.Doc != "beta" || qr.Epoch != 1 {
		t.Fatalf("beta query = %+v", qr)
	}
	if qr.Counters.RowsScanned == 0 {
		t.Error("response has no counters")
	}
	if err := json.Unmarshal(ts.do(t, "POST", "/query?doc=alpha", q, http.StatusOK), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.XML != "" || qr.Doc != "alpha" {
		t.Fatalf("alpha query = %+v", qr)
	}

	// Repeating the query (reformatted) on beta hits the plan cache with
	// identical bytes.
	q2 := "for  $x in /r/x\n return if ($x/text() = \"25\") then <hit/> else ()"
	if err := json.Unmarshal(ts.do(t, "POST", "/query?doc=beta", q2, http.StatusOK), &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.CacheHit || qr.XML != "<hit/>" {
		t.Fatalf("repeat query = %+v, want cache hit with <hit/>", qr)
	}

	// format=xml returns the bare document and marks the cache state.
	req, _ := http.NewRequest("POST", ts.URL+"/query?doc=beta&format=xml", strings.NewReader(q))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(raw) != "<hit/>" || resp.Header.Get("X-Plan-Cache") != "hit" {
		t.Fatalf("xml format: %q, X-Plan-Cache=%q", raw, resp.Header.Get("X-Plan-Cache"))
	}

	// Reload bumps the epoch; the next query misses the cache but answers
	// from the new data.
	ts.do(t, "PUT", "/docs/beta", xmlDoc(26), http.StatusOK)
	if err := json.Unmarshal(ts.do(t, "POST", "/query?doc=beta", q, http.StatusOK), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.CacheHit || qr.Epoch != 2 || qr.XML != "<hit/>" {
		t.Fatalf("post-reload query = %+v", qr)
	}

	// Explain renders the pipeline without executing.
	plan := ts.do(t, "POST", "/explain?doc=beta", q, http.StatusOK)
	if !strings.Contains(string(plan), "physical plan") {
		t.Fatalf("explain output: %s", plan)
	}

	// Errors discriminate: unknown doc 404, parse failure 400.
	ts.do(t, "POST", "/query?doc=nosuch", q, http.StatusNotFound)
	ts.do(t, "POST", "/query?doc=beta", "for $x in", http.StatusBadRequest)
	ts.do(t, "POST", "/query?doc=beta", "", http.StatusBadRequest)
	ts.do(t, "POST", "/query?doc=beta&mode=warp", q, http.StatusBadRequest)
	// A conjunction of more relations than the planner supports is the
	// client's error too, under the syntactic M3 planner as under M4.
	wide := "for $v in /r" + strings.Repeat("/x", 64) + " return $v"
	for _, mode := range []string{"m3", "m4"} {
		out := ts.do(t, "POST", "/query?doc=beta&mode="+mode, wide, http.StatusBadRequest)
		if !strings.Contains(string(out), "too many relations in one conjunction: 65, at most 64") {
			t.Fatalf("%s, 65 relations: %s", mode, out)
		}
	}

	// Stats reports the cache traffic.
	var stats struct {
		PlanCache struct {
			Entries int     `json:"entries"`
			Hits    int64   `json:"hits"`
			HitRate float64 `json:"hitRate"`
		} `json:"planCache"`
	}
	if err := json.Unmarshal(ts.do(t, "GET", "/stats", "", http.StatusOK), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.PlanCache.Hits < 2 || stats.PlanCache.Entries == 0 {
		t.Fatalf("stats = %+v", stats)
	}

	ts.do(t, "DELETE", "/docs/alpha", "", http.StatusOK)
	ts.do(t, "POST", "/query?doc=alpha", q, http.StatusNotFound)
	ts.do(t, "DELETE", "/docs/alpha", "", http.StatusNotFound)
}

// TestServerSessionCancel cancels a long query through its session id:
// the victim request fails with 409 while a parallel query on another
// session succeeds, and the abort leaks no temp files or pins.
func TestServerSessionCancel(t *testing.T) {
	ts := newTestServer(t)
	ts.do(t, "PUT", "/docs/d", xmlDoc(2000), http.StatusOK)

	victim := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Post(
			ts.URL+"/query?doc=d&session=victim&sortbudget=4096&membudget=1048576",
			"text/plain",
			strings.NewReader(`for $x in //x return for $y in //x return if ($x/text() = $y/text()) then <m/> else ()`))
		if err != nil {
			victim <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		victim <- resp.StatusCode
	}()

	// Hammer the cancel endpoint until the victim request returns;
	// bystander queries on other sessions keep working meanwhile.
	q := `for $x in /r/x return if ($x/text() = "7") then <hit/> else ()`
	deadline := time.After(30 * time.Second)
	for done := false; !done; {
		select {
		case status := <-victim:
			if status != http.StatusConflict {
				t.Fatalf("victim status = %d, want %d", status, http.StatusConflict)
			}
			done = true
		case <-deadline:
			t.Fatal("victim request never returned")
		default:
			ts.do(t, "POST", "/sessions/victim/cancel", "", http.StatusOK)
			var qr QueryResponse
			if err := json.Unmarshal(ts.do(t, "POST", "/query?doc=d&session=other", q, http.StatusOK), &qr); err != nil {
				t.Fatal(err)
			}
			if qr.XML != "<hit/>" {
				t.Fatalf("bystander got %+v", qr)
			}
		}
	}

	// The abort cleaned up: no temp files, no pinned pages.
	d, err := ts.cat.Acquire("d")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Release()
	if dir, derr := d.Store().TempDir(); derr == nil {
		if ents, _ := os.ReadDir(dir); len(ents) != 0 {
			t.Errorf("cancel leaked %d temp files", len(ents))
		}
	}
	if pins := d.Store().PinnedPages(); pins != 0 {
		t.Errorf("cancel leaked %d pinned pages", pins)
	}
}

// TestServerConcurrentSessions is the -race stress: N sessions × mixed
// documents × random cancels, all against one server.
func TestServerConcurrentSessions(t *testing.T) {
	ts := newTestServer(t)
	ts.do(t, "PUT", "/docs/a", xmlDoc(300), http.StatusOK)
	ts.do(t, "PUT", "/docs/b", xmlDoc(400), http.StatusOK)

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			doc := []string{"a", "b"}[g%2]
			session := fmt.Sprintf("s%d", g)
			for i := 0; i < 8; i++ {
				if i%4 == 3 {
					// Random-ish cancels; usually land on an idle session.
					resp, err := ts.Client().Post(
						ts.URL+"/sessions/"+session+"/cancel", "", nil)
					if err != nil {
						t.Errorf("cancel: %v", err)
						return
					}
					resp.Body.Close()
					continue
				}
				q := fmt.Sprintf(`for $x in /r/x return if ($x/text() = "%d") then <hit/> else ()`, 100+i)
				resp, err := ts.Client().Post(
					ts.URL+"/query?doc="+doc+"&session="+session, "text/plain", strings.NewReader(q))
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				// 200 or (rarely) 409 if our own cancel raced in.
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
					t.Errorf("query status %d: %s", resp.StatusCode, body)
					return
				}
				if resp.StatusCode == http.StatusOK && !strings.Contains(string(body), "<hit/>") {
					t.Errorf("query body: %s", body)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	var stats struct {
		PlanCache struct {
			HitRate float64 `json:"hitRate"`
		} `json:"planCache"`
	}
	if err := json.Unmarshal(ts.do(t, "GET", "/stats", "", http.StatusOK), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.PlanCache.HitRate == 0 {
		t.Error("no cache hits across the stress run")
	}
}

func TestParseQueryConfig(t *testing.T) {
	srv := New(Config{Defaults: core.Config{Mode: core.ModeM4, SortBudget: 1 << 20, MemBudget: 1 << 22}})
	for _, c := range []struct {
		query   string
		bad     string // the knob a 400 must name; "" = accepted
		mem     int
		sortBuf int
	}{
		{"", "", 1 << 22, 1 << 20},
		{"membudget=4096&sortbudget=1024", "", 4096, 1024},
		{"membudget=0", "", 1 << 22, 1 << 20},
		{"membudget=-1", "membudget", 0, 0},
		{"sortbudget=-5", "sortbudget", 0, 0},
		{"membudget=lots", "membudget", 0, 0},
		{"timeout=-1s", "timeout", 0, 0},
		{"mode=m9", "mode", 0, 0},
	} {
		cfg, err := srv.parseQueryConfig(httptest.NewRequest("POST", "/query?"+c.query, nil))
		if c.bad != "" {
			var ae *apiError
			if !errors.As(err, &ae) || ae.status != http.StatusBadRequest || !strings.Contains(ae.msg, c.bad) {
				t.Errorf("%q: got %v, want a 400 naming %s", c.query, err, c.bad)
			}
			continue
		}
		if err != nil || cfg.MemBudget != c.mem || cfg.SortBudget != c.sortBuf {
			t.Errorf("%q: membudget %d sortbudget %d (err %v), want %d %d", c.query, cfg.MemBudget, cfg.SortBudget, err, c.mem, c.sortBuf)
		}
	}
}

// TestRequestCannotLiftCaps checks that ?timeout= and ?membudget= may
// lower the server's caps but never lift them: 0 ("unlimited") and larger
// values keep the cap. Without a server cap the request's value applies.
func TestRequestCannotLiftCaps(t *testing.T) {
	capped := New(Config{Defaults: core.Config{Timeout: time.Minute, MemBudget: 1 << 22}})
	open := New(Config{})
	for _, c := range []struct {
		srv     *Server
		query   string
		timeout time.Duration
		mem     int
	}{
		{capped, "", time.Minute, 1 << 22},
		{capped, "timeout=0", time.Minute, 1 << 22},
		{capped, "timeout=1h", time.Minute, 1 << 22},
		{capped, "timeout=5s", 5 * time.Second, 1 << 22},
		{capped, "membudget=0", time.Minute, 1 << 22},
		{capped, "membudget=9223372036854775807", time.Minute, 1 << 22},
		{capped, "membudget=4096&timeout=1ms", time.Millisecond, 4096},
		{open, "", 0, 0},
		{open, "timeout=1h&membudget=1000000000", time.Hour, 1000000000},
		{open, "timeout=0&membudget=0", 0, 0},
	} {
		cfg, err := c.srv.parseQueryConfig(httptest.NewRequest("POST", "/query?"+c.query, nil))
		if err != nil || cfg.Timeout != c.timeout || cfg.MemBudget != c.mem {
			t.Errorf("%q (server caps %v, %d): timeout %v membudget %d (err %v), want %v %d",
				c.query, c.srv.cfg.Defaults.Timeout, c.srv.cfg.Defaults.MemBudget, cfg.Timeout, cfg.MemBudget, err, c.timeout, c.mem)
		}
	}
}

// TestExplainErrorStatus checks that /explain maps failures to the same
// status codes as /query instead of calling every error a bad request.
func TestExplainErrorStatus(t *testing.T) {
	ts := newTestServer(t)
	ts.do(t, "PUT", "/docs/d", xmlDoc(2000), http.StatusOK)
	for _, c := range []struct {
		name, path, query string
		want              int
	}{
		{"parse error", "/explain?doc=d", `for $x in`, http.StatusBadRequest},
		{"parse error analyzed", "/explain?doc=d&analyze=true", `for $x in`, http.StatusBadRequest},
		{"no plan to analyze", "/explain?doc=d&mode=m2&analyze=true", `//x`, http.StatusBadRequest},
		{"timeout analyzed", "/explain?doc=d&analyze=true&timeout=1ms",
			`for $x in //x return for $y in //x return if ($x/text() = $y/text()) then <m/> else ()`,
			http.StatusGatewayTimeout},
	} {
		t.Run(c.name, func(t *testing.T) { ts.do(t, "POST", c.path, c.query, c.want) })
	}
}
