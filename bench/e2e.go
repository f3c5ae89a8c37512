package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xqdb"
)

// dumpQuery serializes a whole document; the durability check compares it
// with the oracle's document.
const dumpQuery = `for $r in /* return $r`

// reference is a pooled text's expected answer, raw and as it appears
// inside the JSON envelope.
type reference struct {
	raw     []byte
	escaped []byte
}

// e2eConfig is what one end-to-end run needs besides the workload.
type e2eConfig struct {
	ServerBin string
	WorkDir   string // fresh directory owned by this run
	Seed      int64
	Warmup    time.Duration
	Measure   time.Duration
	// Docs are the workload's generated documents by name.
	Docs map[string][]byte
	// PerText prints each pooled text's, each update statement's and each
	// round's sample count and latency to standard error: which of them
	// make up the median and the tail.
	PerText bool
}

// e2eResult carries every number the server run produces. Values holds
// the end-to-end metrics and the server.* layer metrics by name.
type e2eResult struct {
	Values    map[string]float64
	Samples   map[string]int
	Attempted int
	Failed    int
	Failures  []string // first few failure descriptions
}

// tally counts verified operations; each client owns one and they are
// merged when the clients have stopped.
type tally struct {
	attempted int
	failed    int
	failures  []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, f := range o.failures {
		if len(t.failures) < 5 {
			t.failures = append(t.failures, f)
		}
	}
}

// updateOracle replays update statements in-process on a fresh load of the
// update document: it yields the expected applied count of each statement
// of the cycle and, after a crash, the expected document for any applied
// prefix.
type updateOracle struct {
	db      *xqdb.DB
	doc     *xqdb.Document
	cycle   []string
	applied []int  // expected "applied" of each statement
	bumps   []bool // whether the statement advances applied_seq
}

func newUpdateOracle(dir string, xml []byte) (*updateOracle, error) {
	db, err := xqdb.Open(dir)
	if err != nil {
		return nil, err
	}
	doc, err := db.CreateDocument("oracle", bytes.NewReader(xml))
	if err != nil {
		db.Close()
		return nil, err
	}
	o := &updateOracle{db: db, doc: doc, cycle: updateCycle()}
	before, err := doc.XML()
	if err != nil {
		db.Close()
		return nil, err
	}
	for _, stmt := range o.cycle {
		res, err := doc.Update(stmt)
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("oracle: %s: %w", stmt, err)
		}
		o.applied = append(o.applied, res.Applied)
		o.bumps = append(o.bumps, res.Applied > 0)
	}
	after, err := doc.XML()
	if err != nil {
		db.Close()
		return nil, err
	}
	if after != before {
		db.Close()
		return nil, fmt.Errorf("oracle: the update cycle does not restore the document (%d → %d bytes)", len(before), len(after))
	}
	return o, nil
}

func (o *updateOracle) close() { o.db.Close() }

// bumpsPerCycle is how far one whole cycle advances applied_seq.
func (o *updateOracle) bumpsPerCycle() uint64 {
	var n uint64
	for _, b := range o.bumps {
		if b {
			n++
		}
	}
	return n
}

// documentAt returns the expected document once appliedSeq statements
// have been applied: whole cycles restore the document, so only the
// applied prefix of the last, partial cycle is replayed.
func (o *updateOracle) documentAt(appliedSeq uint64) (string, error) {
	per := o.bumpsPerCycle()
	if per == 0 {
		return o.doc.XML()
	}
	rest := appliedSeq % per
	for i := 0; rest > 0; i++ {
		if !o.bumps[i] {
			continue
		}
		if _, err := o.doc.Update(o.cycle[i]); err != nil {
			return "", fmt.Errorf("oracle: %s: %w", o.cycle[i], err)
		}
		rest--
	}
	return o.doc.XML()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rounds is how many equal parts the measured phase has. Every timed
// metric is the median over the rounds of that round's value. On a shared
// host whole seconds run a fifth slower than their neighbours (another
// guest's doing, not this program's); a statistic pooled over the phase
// moves with the share of slow seconds it happened to catch, the median of
// five rounds does not until three of them are hit. For the same reason
// queries, the write probe and the repeated set-ups alternate within a
// round and do not follow each other as three phases: each metric samples
// the whole window.
const rounds = 5

// roundStats is what one round measured.
type roundStats struct {
	query, update []float64 // latencies, ms
	qps, sps      float64
}

func (b *roundStats) add(o *clientOut) {
	if len(o.lat) == 0 {
		return
	}
	if o.update {
		b.update = append(b.update, o.lat...)
		b.sps += float64(len(o.lat)) / o.seconds
	} else {
		b.query = append(b.query, o.lat...)
		b.qps += float64(len(o.lat)) / o.seconds
	}
}

// overRounds returns the median over the rounds of f(round).
func overRounds(bs []roundStats, f func(*roundStats) float64) float64 {
	vs := make([]float64, len(bs))
	for i := range bs {
		vs[i] = f(&bs[i])
	}
	return median(vs)
}

func sortedPercentile(vs []float64, p float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, p)
}

// runE2E runs one workload against a real xqserver with tracing off.
func runE2E(w workload, cfg e2eConfig) (*e2eResult, error) {
	res := &e2eResult{Values: map[string]float64{}, Samples: map[string]int{}}
	var total tally

	var setupS, loadMBps []float64
	setUp := func(i int) (*serverProc, error) {
		srv, secs, mbps, err := setUpOnce(w, cfg, filepath.Join(cfg.WorkDir, fmt.Sprintf("store%d", i)))
		setupS, loadMBps = append(setupS, secs), append(loadMBps, mbps)
		return srv, err
	}
	srv, err := setUp(0)
	if err != nil {
		return nil, err
	}
	// From here on the server must be stopped on every path.
	defer func() { srv.kill() }()
	stored, err := srv.storeBytes()
	if err != nil {
		return nil, err
	}
	var xmlBytes int
	for _, x := range cfg.Docs {
		xmlBytes += len(x)
	}
	res.Values["space_amp"] = float64(stored) / float64(xmlBytes)

	admin := newClient(srv.base, "admin")
	defer admin.close()
	refs, err := references(admin, w, &total)
	if err != nil {
		return nil, err
	}
	oracle, err := newUpdateOracle(filepath.Join(cfg.WorkDir, "oracle"), cfg.Docs[w.UpdateDoc])
	if err != nil {
		return nil, err
	}
	defer oracle.close()

	// Two closed-loop clients. On mixed-rw client 0 writes; elsewhere both
	// read, and client 0 runs the write probe in the last quarter of each
	// round.
	r := &runner{w: w, refs: refs, oracle: oracle}
	clients := []*client{newClient(srv.base, "c0"), newClient(srv.base, "c1")}
	defer clients[0].close()
	defer clients[1].close()
	streams := []*stream{
		newStream(w, cfg.Seed, 0, w.ConcurrentWriter),
		newStream(w, cfg.Seed, 1, false),
	}
	readSlice, writeSlice := cfg.Measure/rounds, time.Duration(0)
	if !w.ConcurrentWriter {
		writeSlice = readSlice / 4
		readSlice -= writeSlice
	}
	both := func(d time.Duration) []*clientOut {
		outs := make([]*clientOut, len(clients))
		var wg sync.WaitGroup
		for i := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[i] = r.loop(clients[i], streams[i], d)
			}()
		}
		wg.Wait()
		return outs
	}

	for _, o := range both(cfg.Warmup) { // verified, not recorded
		total.merge(&o.tally)
	}
	stats := make([]roundStats, rounds)
	byText := make([][]float64, len(w.Reads))
	byStmt := make([][]float64, len(oracle.cycle))
	var cpu float64 // server CPU seconds over the read slices
	ops := 0        // operations completed in them
	for i := range stats {
		cpu0 := srv.cpuSeconds()
		outs := both(readSlice)
		cpu += srv.cpuSeconds() - cpu0
		for _, o := range outs {
			ops += len(o.lat)
		}
		if !w.ConcurrentWriter {
			outs = append(outs, r.writeProbe(clients[0], writeSlice))
		}
		for _, o := range outs {
			total.merge(&o.tally)
			stats[i].add(o)
			by := byText
			if o.update {
				by = byStmt
			}
			for k, item := range o.item {
				by[item] = append(by[item], o.lat[k])
			}
		}
		if len(stats[i].query) == 0 || len(stats[i].update) == 0 {
			return nil, fmt.Errorf("%s: round %d measured %d queries and %d updates; need both (%v)",
				w.Name, i, len(stats[i].query), len(stats[i].update), total.failures)
		}
		// The repeated set-ups, spread over the rounds; the run's own
		// server idles meanwhile.
		for len(setupS) < 1+(i+1)*(w.Setups-1)/rounds {
			extra, err := setUp(len(setupS))
			if err != nil {
				return nil, err
			}
			extra.stop()
			os.RemoveAll(extra.store)
		}
	}
	res.Values["server.rss_peak_mb"] = srv.rssPeakMB()

	var tail chan *tally
	if w.ConcurrentWriter {
		// Durability: SIGKILL while the writer is still sending.
		tail = make(chan *tally, 1)
		go func() { tail <- r.writeUntilKilled(clients[0], streams[0]) }()
		rng := rand.New(rand.NewSource(cfg.Seed))
		time.Sleep(time.Duration(50+rng.Intn(200)) * time.Millisecond)
		r.killed.Store(true)
	}
	killedAt := time.Now()
	srv.kill()
	if tail != nil {
		total.merge(<-tail)
	}

	if cfg.PerText {
		for i, v := range byText {
			sort.Float64s(v)
			fmt.Fprintf(os.Stderr, "text %2d  n=%-6d p50=%9.3f ms  p95=%9.3f ms  %d B  %s\n",
				i, len(v), percentile(v, 0.5), percentile(v, 0.95), len(refs[i].raw), w.Reads[i].Q)
		}
		for i, v := range byStmt {
			sort.Float64s(v)
			fmt.Fprintf(os.Stderr, "stmt %2d  n=%-6d p50=%9.3f ms  p95=%9.3f ms  applied %d  %s\n",
				i, len(v), percentile(v, 0.5), percentile(v, 0.95), oracle.applied[i], oracle.cycle[i])
		}
		for i, b := range stats {
			fmt.Fprintf(os.Stderr, "round %d  queries n=%-6d p50=%9.3f ms  p95=%9.3f ms  %8.1f /s   updates n=%-5d p50=%9.3f ms  p95=%9.3f ms  %7.1f /s\n",
				i, len(b.query), sortedPercentile(b.query, 0.5), sortedPercentile(b.query, 0.95), b.qps,
				len(b.update), sortedPercentile(b.update, 0.5), sortedPercentile(b.update, 0.95), b.sps)
		}
	}
	v := res.Values
	v["setup_s"] = median(setupS)
	v["load_mbps"] = median(loadMBps)
	v["query_p50_ms"] = overRounds(stats, func(b *roundStats) float64 { return sortedPercentile(b.query, 0.50) })
	v["query_p95_ms"] = overRounds(stats, func(b *roundStats) float64 { return sortedPercentile(b.query, 0.95) })
	v["query_qps"] = overRounds(stats, func(b *roundStats) float64 { return b.qps })
	v["update_p50_ms"] = overRounds(stats, func(b *roundStats) float64 { return sortedPercentile(b.update, 0.50) })
	v["update_p95_ms"] = overRounds(stats, func(b *roundStats) float64 { return sortedPercentile(b.update, 0.95) })
	v["update_sps"] = overRounds(stats, func(b *roundStats) float64 { return b.sps })
	var queries []float64 // the tail diagnostic pools all rounds: it needs the samples
	for _, b := range stats {
		queries = append(queries, b.query...)
		res.Samples["update"] += len(b.update)
	}
	v["server.query_p99_ms"] = sortedPercentile(queries, 0.99)
	v["server.cpu_ms_per_op"] = cpu * 1000 / float64(ops)
	res.Samples["query"] = len(queries)
	res.Samples["setup_s"] = len(setupS)
	res.Samples["rounds"] = rounds

	// Recovery: restart on the same directory.
	srv, err = startServer(cfg.ServerBin, srv.store)
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	r.checkRecovery(srv, killedAt, res, &total)
	srv.stop()

	res.Attempted, res.Failed, res.Failures = total.attempted, total.failed, total.failures
	return res, nil
}

// setUpOnce starts a server on a fresh directory and loads the workload's
// documents. It returns the server, the seconds from process start until
// the last PUT returned, and XML MB per second of PUT time.
func setUpOnce(w workload, cfg e2eConfig, dir string) (*serverProc, float64, float64, error) {
	srv, err := startServer(cfg.ServerBin, dir)
	if err != nil {
		return nil, 0, 0, err
	}
	loader := newClient(srv.base, "loader")
	defer loader.close()
	var putTime time.Duration
	var xmlBytes int
	for _, d := range w.Docs {
		_, lat, err := loader.do("PUT", "/docs/"+d.Name, cfg.Docs[d.Name])
		if err != nil {
			srv.kill()
			return nil, 0, 0, fmt.Errorf("load %s: %w", d.Name, err)
		}
		putTime += lat
		xmlBytes += len(cfg.Docs[d.Name])
	}
	return srv, time.Since(srv.started).Seconds(), float64(xmlBytes) / 1e6 / putTime.Seconds(), nil
}

// references is the answer oracle: the naive M2 engine gives every pooled
// text's reference, and the default engine must agree before anything is
// timed.
func references(admin *client, w workload, total *tally) ([]*reference, error) {
	refs := make([]*reference, len(w.Reads))
	for i, t := range w.Reads {
		body, _, err := admin.do("POST", admin.queryPath(t.Doc, true, "mode=m2"), []byte(t.Q))
		if err != nil {
			return nil, fmt.Errorf("reference for %q: %w", t.Q, err)
		}
		raw := bytes.Clone(body)
		refs[i] = &reference{raw: raw, escaped: jsonEscape(raw)}
		body, _, err = admin.do("POST", admin.queryPath(t.Doc, true, ""), []byte(t.Q))
		if err != nil || !bytes.Equal(body, raw) {
			total.fail("default engine disagrees with M2 on %q (err=%v)", t.Q, err)
		} else {
			total.ok()
		}
	}
	return refs, nil
}

// runner holds what the client loops share.
type runner struct {
	w      workload
	refs   []*reference
	oracle *updateOracle
	killed atomic.Bool   // set just before the SIGKILL
	maxAck atomic.Uint64 // highest acknowledged update seq
}

// clientOut is what one client measured in one round: latencies in
// milliseconds, which pooled text or cycle statement each belongs to, and
// the seconds from the client's first send to its last answer.
type clientOut struct {
	tally   tally
	update  bool
	lat     []float64
	item    []int
	seconds float64
}

func (out *clientOut) record(o op, lat time.Duration) {
	out.update = o.Kind == opUpdate
	out.lat = append(out.lat, ms(lat))
	if out.update {
		out.item = append(out.item, o.Pos)
	} else {
		out.item = append(out.item, o.Text)
	}
}

// loop drives one closed-loop client for d: every operation that starts
// within d is sent, verified and recorded, so the client's rate is its
// count over the time to its own last answer.
func (r *runner) loop(c *client, st *stream, d time.Duration) *clientOut {
	out := &clientOut{}
	begin := time.Now()
	for time.Since(begin) < d && out.tally.failed <= 1000 { // a dead server must not make this spin
		o := st.next()
		lat, err := r.send(c, o)
		if err != nil {
			out.tally.fail("%v", err)
			continue
		}
		out.tally.ok()
		out.record(o, lat)
		out.seconds = time.Since(begin).Seconds()
	}
	return out
}

// writeUntilKilled keeps the writer sending, verified but unrecorded,
// until the SIGKILL cuts a request off.
func (r *runner) writeUntilKilled(c *client, st *stream) *tally {
	t := &tally{}
	for begin := time.Now(); ; {
		_, err := r.send(c, st.next())
		switch {
		case err == nil:
			t.ok()
		case r.killed.Load():
			return t // the request the SIGKILL cut off
		default:
			t.fail("%v", err)
			if t.failed > 1000 || time.Since(begin) > clientTimeout {
				return t // the server is gone; do not spin or hang
			}
		}
	}
}

// writeProbe runs the update cycle alone on one client for d: one
// unrecorded cycle, then whole cycles (at least one) until d has passed.
func (r *runner) writeProbe(c *client, d time.Duration) *clientOut {
	out := &clientOut{}
	st := newStream(r.w, 0, 0, true)
	cyc := len(r.oracle.cycle)
	start := time.Now()
	var begin time.Time
	for n := 0; out.tally.failed <= cyc; n++ {
		if n == cyc {
			begin = time.Now()
		}
		if n >= 2*cyc && n%cyc == 0 && time.Since(start) >= d {
			break
		}
		o := st.next()
		lat, err := r.send(c, o)
		if err != nil {
			out.tally.fail("%v", err)
			continue
		}
		out.tally.ok()
		if n >= cyc {
			out.record(o, lat)
			out.seconds = time.Since(begin).Seconds()
		}
	}
	return out
}

// send performs one operation and checks its answer.
func (r *runner) send(c *client, o op) (time.Duration, error) {
	if o.Kind == opUpdate {
		ack, lat, err := c.update(r.w.UpdateDoc, o.Stmt)
		if err != nil {
			return lat, err
		}
		if want := r.oracle.applied[o.Pos]; ack.Applied != want {
			return lat, fmt.Errorf("%s: applied %d, oracle applied %d", o.Stmt, ack.Applied, want)
		}
		if ack.Seq > r.maxAck.Load() {
			r.maxAck.Store(ack.Seq) // one writer at a time
		}
		return lat, nil
	}
	t := r.w.Reads[o.Text]
	body, lat, err := c.do("POST", c.queryPath(t.Doc, o.XML, ""), []byte(o.body(r.w)))
	if err != nil {
		return lat, err
	}
	if !answerMatches(body, o.XML, o.Literal, r.refs[o.Text]) {
		return lat, fmt.Errorf("wrong answer (%d bytes) for %s", len(body), strings.TrimSpace(o.body(r.w)))
	}
	return lat, nil
}

// checkRecovery is the durability check on the restarted server: the first
// correct answer ends the recovery clock, applied_seq must cover every
// acknowledged statement, and the document must be exactly the applied
// prefix.
func (r *runner) checkRecovery(srv *serverProc, killedAt time.Time, res *e2eResult, total *tally) {
	c := newClient(srv.base, "recovery")
	defer c.close()
	first := r.w.Reads[0]
	body, _, err := c.do("POST", c.queryPath(first.Doc, true, ""), []byte(first.Q))
	res.Values["server.recovery_ms"] = ms(time.Since(killedAt))
	if err != nil || !bytes.Equal(body, r.refs[0].raw) {
		total.fail("first answer after recovery is wrong (err=%v)", err)
	} else {
		total.ok()
	}
	seq, err := c.appliedSeq(r.w.UpdateDoc)
	if err != nil {
		total.fail("applied_seq after recovery: %v", err)
		return
	}
	if acked := r.maxAck.Load(); seq < acked {
		total.fail("durability: applied_seq %d after recovery, but seq %d was acknowledged", seq, acked)
		return
	}
	total.ok()
	want, err := r.oracle.documentAt(seq)
	if err != nil {
		total.fail("durability: %v", err)
		return
	}
	body, _, err = c.do("POST", c.queryPath(r.w.UpdateDoc, true, ""), []byte(dumpQuery))
	if err != nil || string(body) != want {
		total.fail("durability: document after recovery is not the applied prefix of %d statements (err=%v, %d bytes, want %d)", seq, err, len(body), len(want))
		return
	}
	total.ok()
}
