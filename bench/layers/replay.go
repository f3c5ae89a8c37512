package layers

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"xqdb/internal/catalog"
	"xqdb/internal/core"
	"xqdb/internal/exec"
	"xqdb/internal/limit"
	"xqdb/internal/opt"
	"xqdb/internal/pager"
	"xqdb/internal/plancache"
	"xqdb/internal/server"
	"xqdb/internal/store"
	"xqdb/internal/tpm"
	"xqdb/internal/xq"
)

// sortBudget is xqserver's -sortbudget default. The replay sets up its
// engines as cmd/xqserver does: mode M4 and this budget, nothing else.
const sortBudget = 1 << 20

// getBatch is how many plancache.Get calls one span covers; a single call
// is shorter than the clock's resolution.
const getBatch = 64

// replayer holds the in-process server and the state the three depths of
// the replay share.
type replayer struct {
	spec    Spec
	tr      *Trace
	res     *Result
	handler http.Handler
	docs    map[string]*catalog.Doc
	refs    [][]byte
	serverC *plancache.Cache // the catalog's cache: what the handler sees
	coreC   *plancache.Cache // same capacity, for the core-depth calls
	probeC  *plancache.Cache // private keys, for timing Get on a hit
	optCfg  opt.Config
	s       samples
	rows    struct{ scanned, emitted, spilled int64 }
}

// replay runs every operation at three depths, one after another on this
// goroutine: through the HTTP handler (what the server does), through
// core.Handle.Query (what the engine does), and as a replica of the
// engine's miss path with a span around each layer's entry point (parse,
// rewrite, plan, clone, run). The depths are re-executions, so a layer's
// share is read from medians, and only the replica's children nest in
// time. Updates run once, through the handler, so the document and the
// plan cache see exactly the stream a server would.
func replay(spec Spec, tr *Trace, res *Result) error {
	r := &replayer{
		spec: spec, tr: tr, res: res,
		docs:    map[string]*catalog.Doc{},
		serverC: plancache.New(plancache.DefaultEntries),
		coreC:   plancache.New(plancache.DefaultEntries),
		probeC:  plancache.New(plancache.DefaultEntries),
		optCfg:  opt.M4(),
		s:       samples{},
	}
	r.optCfg.SpoolBudget = sortBudget // as core.Engine derives it from SortBudget
	cat, err := catalog.Open(filepath.Join(spec.Dir, "catalog"), catalog.Options{PlanCache: r.serverC})
	if err != nil {
		return err
	}
	defer cat.Close()
	for _, d := range spec.Docs {
		if _, err := cat.Load(d.Name, bytes.NewReader(d.XML)); err != nil {
			return fmt.Errorf("load %s: %w", d.Name, err)
		}
		doc, err := cat.Acquire(d.Name)
		if err != nil {
			return err
		}
		defer doc.Release()
		r.docs[d.Name] = doc
	}
	srv := server.New(server.Config{
		Catalog:  cat,
		Cache:    r.serverC,
		Defaults: core.Config{Mode: core.ModeM4, SortBudget: sortBudget},
	})
	defer srv.Close()
	r.handler = srv.Handler()

	// References from the naive M2 engine, as in the end-to-end run.
	for _, t := range spec.Texts {
		out, err := core.New(r.docs[t.Doc].Store(), core.Config{Mode: core.ModeM2}).Query(t.Query)
		if err != nil {
			return fmt.Errorf("reference for %q: %w", t.Query, err)
		}
		r.refs = append(r.refs, []byte(out))
	}

	cache0 := r.serverC.Stats()
	var pg pager.Stats // summed over the handler-depth calls only
	queries := 0
	for i, op := range spec.Ops {
		before := r.pagerTotals()
		if op.Update {
			r.serveUpdate(i, op)
		} else {
			r.serveQuery(i, op, "")
		}
		after := r.pagerTotals()
		pg.PagesRead += after.PagesRead - before.PagesRead
		pg.CacheHits += after.CacheHits - before.CacheHits
		pg.CacheMisses += after.CacheMisses - before.CacheMisses
		if op.Update {
			r.coreC.InvalidateDoc(spec.UpdateDoc) // as catalog.Update does for its own cache
			continue
		}
		queries++
		r.coreQuery(i, op)
		if err := r.pipeline(i, op); err != nil {
			return err
		}
	}
	if queries == 0 {
		return fmt.Errorf("no query among the %d replayed operations", len(spec.Ops))
	}

	cache1 := r.serverC.Stats()
	lookups := (cache1.Hits - cache0.Hits) + (cache1.Misses - cache0.Misses)
	v := res.Values
	v["plancache.hit_ratio"] = ratio(cache1.Hits-cache0.Hits, lookups)
	v["pager.hit_ratio"] = ratio(pg.CacheHits, pg.CacheHits+pg.CacheMisses)
	v["pager.pages_read_per_op"] = ratio(pg.PagesRead, int64(len(spec.Ops)))
	v["server.handle_self_us"] = r.s.medianOf("server.self", time.Microsecond)
	v["core.query_hit_us"] = r.s.medianOf("core.query.hit", time.Microsecond)
	v["core.query_miss_us"] = r.s.medianOf("core.query.miss", time.Microsecond)
	v["plancache.get_us"] = r.s.medianOf("plancache.get", time.Microsecond)
	for _, name := range []string{"xq.parse", "tpm.rewrite", "opt.plan", "exec.clone", "exec.run"} {
		v[name+"_us"] = r.s.medianOf(name, time.Microsecond)
	}
	v["exec.rows_scanned_per_row_out"] = ratio(r.rows.scanned, max(r.rows.emitted, 1))
	v["exec.spill_bytes_per_op"] = ratio(r.rows.spilled, int64(queries))
	res.Samples["replay.ops"] = len(spec.Ops)
	res.Samples["replay.queries"] = queries
	res.Samples["core.query.hit"] = len(r.s["core.query.hit"])
	res.Samples["core.query.miss"] = len(r.s["core.query.miss"])

	if err := r.allocs(); err != nil {
		return err
	}
	r.exchange()
	r.overhead()
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (r *replayer) pagerTotals() pager.Stats {
	var t pager.Stats
	for _, d := range r.docs {
		s := d.Store().PagerStats()
		t.PagesRead += s.PagesRead
		t.CacheHits += s.CacheHits
		t.CacheMisses += s.CacheMisses
	}
	return t
}

func (r *replayer) expected(op Op) []byte {
	return append([]byte(op.Literal), r.refs[op.Text]...)
}

// serveQuery sends op through the handler and checks the answer; params
// are extra URL parameters. It returns the span's duration.
func (r *replayer) serveQuery(i int, op Op, params string) time.Duration {
	url := "/query?doc=" + op.Doc + "&session=replay"
	if op.XML {
		url += "&format=xml"
	}
	if params != "" {
		url += "&" + params
	}
	req := httptest.NewRequest("POST", url, strings.NewReader(op.Body))
	rec := httptest.NewRecorder()
	id := r.tr.Begin("server.handle", -1, i)
	r.handler.ServeHTTP(rec, req)
	d := r.tr.End(id)
	got := rec.Body.Bytes()
	if !op.XML {
		var env struct {
			XML string `json:"xml"`
		}
		if json.Unmarshal(got, &env) == nil {
			got = []byte(env.XML)
		}
	}
	r.res.check(rec.Code == http.StatusOK && bytes.Equal(got, r.expected(op)),
		"handler: status %d, wrong answer for %s", rec.Code, op.Body)
	if params == "" {
		r.s.add("server.handle", d)
	}
	return d
}

func (r *replayer) serveUpdate(i int, op Op) {
	req := httptest.NewRequest("POST", "/docs/"+r.spec.UpdateDoc+"/update", strings.NewReader(op.Body))
	rec := httptest.NewRecorder()
	id := r.tr.Begin("server.update", -1, i)
	r.handler.ServeHTTP(rec, req)
	r.tr.End(id)
	r.res.check(rec.Code == http.StatusOK, "handler: status %d for %s: %s", rec.Code, op.Body, rec.Body.String())
}

// coreQuery runs op through core.Handle.Query with a cache of its own that
// has seen the same texts as the server's, so it hits and misses when the
// handler did. After a miss the text is run once more, which gives a hit
// sample for the same plan.
func (r *replayer) coreQuery(i int, op Op) {
	doc := r.docs[op.Doc]
	eng := core.New(doc.Store(), core.Config{
		Mode:       core.ModeM4,
		SortBudget: sortBudget,
		PlanCache:  r.coreC,
		CacheDoc:   doc.Version(),
	})
	for first := true; ; first = false {
		id := r.tr.Begin("core.query", -1, i)
		out, err := eng.NewHandle().Query(op.Body)
		d := r.tr.End(id)
		if err != nil || out.XML != string(r.expected(op)) {
			r.res.check(false, "core: wrong answer for %s (err=%v)", op.Body, err)
			return
		}
		r.res.check(true, "")
		name := "core.query.miss"
		if out.CacheHit {
			name = "core.query.hit"
		}
		r.tr.spans[id].Name = name
		r.s.add(name, d)
		if first {
			// Same operation, one layer apart: the handler's own share.
			h := r.s["server.handle"]
			r.s.add("server.self", h[len(h)-1]-d)
		}
		if out.CacheHit {
			return
		}
	}
}

// pipeline is a replica of the engine's miss path, one span per layer.
func (r *replayer) pipeline(i int, op Op) error {
	doc := r.docs[op.Doc]
	st := doc.Store()
	st.ReadLock()
	defer st.ReadUnlock()
	tr := r.tr
	top := tr.Begin("pipeline", -1, i)

	id := tr.Begin("xq.parse", top, i)
	q, err := xq.Parse(op.Body)
	r.s.add("xq.parse", tr.End(id))
	if err != nil {
		return err
	}
	id = tr.Begin("tpm.rewrite", top, i)
	logical := tpm.Merge(tpm.Rewrite(q))
	r.s.add("tpm.rewrite", tr.End(id))

	id = tr.Begin("opt.plan", top, i)
	plan, err := opt.New(st, r.optCfg).Plan(logical)
	r.s.add("opt.plan", tr.End(id))
	if err != nil {
		return err
	}
	id = tr.Begin("exec.clone", top, i)
	clone := exec.ClonePlan(plan)
	r.s.add("exec.clone", tr.End(id))

	ctx, err := execCtx(st)
	if err != nil {
		return err
	}
	id = tr.Begin("exec.run", top, i)
	out, err := exec.Run(ctx, clone)
	r.s.add("exec.run", tr.End(id))
	tr.End(top)
	r.res.check(err == nil && bytes.Equal(out, r.expected(op)), "pipeline: wrong answer for %s (err=%v)", op.Body, err)
	r.rows.scanned += ctx.Counters.RowsScanned
	r.rows.emitted += ctx.Counters.RowsEmitted
	r.rows.spilled += ctx.Counters.SpilledBytes

	// Cache.Get on a hit, under a key of the shape the engine builds.
	key := plancache.Key{Doc: doc.Version(), Query: plancache.Normalize(op.Body), Cfg: r.optCfg, Merge: true}
	r.probeC.Put(key, plan)
	id = tr.Begin("plancache.get", -1, i)
	for k := 0; k < getBatch; k++ {
		r.probeC.Get(key)
	}
	r.s.add("plancache.get", tr.EndN(id, getBatch))
	return nil
}

// execCtx builds an execution context the way core.Engine does for a
// server query: the store's temp directory, an unlimited budget, the
// server's sort budget.
func execCtx(st *store.Store) (*exec.Ctx, error) {
	tmp, err := st.TempDir()
	if err != nil {
		return nil, err
	}
	return &exec.Ctx{
		Store:      st,
		TempDir:    tmp,
		Budget:     limit.NewBudget(0, nil),
		Env:        exec.Env{},
		SortBudget: sortBudget,
	}, nil
}

// allocs counts heap allocations of planning and of running each pooled
// text once, outside any timed span.
func (r *replayer) allocs() error {
	var planAllocs, runAllocs []float64
	var m0, m1 runtime.MemStats
	for _, t := range r.spec.Texts {
		st := r.docs[t.Doc].Store()
		q, err := xq.Parse(t.Query)
		if err != nil {
			return err
		}
		logical := tpm.Merge(tpm.Rewrite(q))
		st.ReadLock()
		runtime.ReadMemStats(&m0)
		plan, err := opt.New(st, r.optCfg).Plan(logical)
		runtime.ReadMemStats(&m1)
		if err != nil {
			st.ReadUnlock()
			return err
		}
		planAllocs = append(planAllocs, float64(m1.Mallocs-m0.Mallocs))
		ctx, err := execCtx(st)
		if err != nil {
			st.ReadUnlock()
			return err
		}
		clone := exec.ClonePlan(plan)
		runtime.ReadMemStats(&m0)
		_, err = exec.Run(ctx, clone)
		runtime.ReadMemStats(&m1)
		st.ReadUnlock()
		if err != nil {
			return err
		}
		runAllocs = append(runAllocs, float64(m1.Mallocs-m0.Mallocs))
	}
	r.res.Values["opt.plan_allocs"] = median(planAllocs)
	r.res.Values["exec.run_allocs"] = median(runAllocs)
	return nil
}

// exchange runs the pool's heaviest text (largest answer) through the
// handler serially and with dop=2, alternating, and reports serial time
// over parallel time.
func (r *replayer) exchange() {
	heavy := 0
	for i := range r.refs {
		if len(r.refs[i]) > len(r.refs[heavy]) {
			heavy = i
		}
	}
	t := r.spec.Texts[heavy]
	op := Op{Doc: t.Doc, Body: t.Query, XML: true, Text: heavy}
	s := samples{}
	for round := -1; round < 5; round++ { // round -1 compiles both plans
		serial := r.serveQuery(-1, op, "dop=1")
		dop2 := r.serveQuery(-1, op, "dop=2")
		if round >= 0 {
			s.add("serial", serial)
			s.add("dop2", dop2)
		}
	}
	r.res.Values["exec.exchange_speedup_dop2"] = s.medianOf("serial", time.Microsecond) / s.medianOf("dop2", time.Microsecond)
}

// overhead replays the leading queries through core.Handle.Query with a
// span around each call and again with none, three times each in turn, and
// reports traced time over untraced time: how far a traced time may be
// read as an untraced one.
func (r *replayer) overhead() {
	// The leading queries whose handler times add up to about 0.3 s (less
	// in a smoke test), at least eight: enough work to time, little enough
	// to repeat six times.
	enough := 300 * time.Millisecond / time.Duration(max(r.spec.ProbeScale, 1))
	var ops []Op
	var budget time.Duration
	handled := r.s["server.handle"] // one per replayed query, in order
	for _, op := range r.spec.Ops {
		if op.Update {
			continue
		}
		budget += handled[len(ops)]
		ops = append(ops, op)
		if len(ops) >= 8 && budget > enough {
			break
		}
	}
	pass := func(traced bool) time.Duration {
		cache := plancache.New(plancache.DefaultEntries)
		start := time.Now()
		for _, op := range ops {
			doc := r.docs[op.Doc]
			eng := core.New(doc.Store(), core.Config{Mode: core.ModeM4, SortBudget: sortBudget, PlanCache: cache, CacheDoc: doc.Version()})
			if traced {
				id := r.tr.Begin("overhead.query", -1, -1)
				eng.NewHandle().Query(op.Body)
				r.tr.End(id)
			} else {
				eng.NewHandle().Query(op.Body)
			}
		}
		return time.Since(start)
	}
	s := samples{}
	for round := 0; round < 3; round++ {
		s.add("traced", pass(true))
		s.add("untraced", pass(false))
	}
	r.res.Values["trace.overhead_ratio"] = s.medianOf("traced", time.Microsecond) / s.medianOf("untraced", time.Microsecond)
	r.res.Samples["overhead.queries"] = len(ops)
}
