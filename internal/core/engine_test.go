package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"xqdb/internal/exec"
	"xqdb/internal/limit"
	"xqdb/internal/opt"
	"xqdb/internal/store"
	"xqdb/internal/xmlgen"
)

const figure2 = `<journal><authors><name>Ana</name><name>Bob</name></authors><title>DB</title></journal>`

// library is a small mixed-shape document exercising nesting, repeated
// labels, text comparisons and empty elements.
const library = `<lib><shelf><book><title>Go</title><author>Ann</author><year>2015</year></book>` +
	`<book><title>DB</title><author>Bob</author><author>Cyn</author></book></shelf>` +
	`<shelf><book><title>XML</title><volume>7</volume><author>Ann</author></book><empty/></shelf>` +
	`<magazine><title>DB</title></magazine></lib>`

// queries is the differential battery: every engine must produce exactly
// the M1 reference output on every document.
var queries = []string{
	`()`,
	`<out/>`,
	`/journal`,
	`/lib`,
	`//name`,
	`//author`,
	`//nosuchlabel`,
	`/journal/authors/name`,
	`//book/title`,
	`for $x in //name return $x`,
	`for $x in //book return for $t in $x/title return $t`,
	`for $x in //book return for $a in $x//author return $a`,
	`<names>{ for $j in /journal return for $n in $j//name return $n }</names>`,
	`<names>{ for $j in /journal return <j>{ for $n in $j//name return $n }</j> }</names>`,
	`for $j in /journal return if (some $t in $j//text() satisfies true()) then for $n in $j//name return $n else ()`,
	`for $b in //book return if (some $v in $b/volume satisfies true()) then for $a in $b//author return $a else ()`,
	`for $b in //book return if (some $t in $b/title/text() satisfies $t = "DB") then $b else ()`,
	`for $b in //book return if (not(some $v in $b/volume satisfies true())) then <novol/> else ()`,
	`for $b in //book return if (some $v in $b/volume satisfies true() and some $a in $b/author satisfies true()) then $b else ()`,
	`for $x in //title/text() return for $y in //magazine/title/text() return if ($x = $y) then <dup/> else ()`,
	`for $s in /lib/shelf return <shelf>{ for $t in $s//title return $t }</shelf>`,
	`for $s in /lib/* return $s`,
	`//book/text()`,
	`for $b in //book return <b>{ $b/title, $b/author }</b>`,
	`for $x in //year/text() return if ($x = "2015") then <y2015/> else ()`,
	`for $j in /journal return if (some $t in $j//text() satisfies ($t = "Ana" or $t = "Zed")) then <hit/> else ()`,
	`<wrap>literal text</wrap>`,
	`for $b in //book return if (some $t1 in $b/title/text() satisfies some $t2 in //magazine/title/text() satisfies $t1 = $t2) then $b else ()`,
}

func newEngines(t testing.TB, doc string) map[Mode]*Engine {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.LoadString(doc); err != nil {
		t.Fatalf("Load: %v", err)
	}
	engines := map[Mode]*Engine{}
	for _, m := range Modes() {
		engines[m] = New(st, Config{Mode: m})
	}
	return engines
}

// TestEnginesAgree is the correctness-suite core: every mode must return
// the milestone 1 reference result on every query/document combination.
func TestEnginesAgree(t *testing.T) {
	for docName, doc := range map[string]string{"figure2": figure2, "library": library} {
		engines := newEngines(t, doc)
		ref := engines[ModeM1]
		for _, q := range queries {
			want, err := ref.Query(q)
			if err != nil {
				t.Fatalf("[%s] reference failed on %q: %v", docName, q, err)
			}
			for _, m := range Modes() {
				if m == ModeM1 {
					continue
				}
				got, err := engines[m].Query(q)
				if err != nil {
					t.Errorf("[%s] %s failed on %q: %v", docName, m, q, err)
					continue
				}
				if got != want {
					t.Errorf("[%s] %s disagrees on %q:\n got: %s\nwant: %s", docName, m, q, got, want)
				}
			}
		}
	}
}

func TestExample2AllEngines(t *testing.T) {
	engines := newEngines(t, figure2)
	want := `<names><name>Ana</name><name>Bob</name></names>`
	for _, m := range Modes() {
		got, err := engines[m].Query(`<names>{ for $j in /journal return for $n in $j//name return $n }</names>`)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if got != want {
			t.Errorf("%s: got %s", m, got)
		}
	}
}

// TestMergeStrictnessSemantics verifies the paper's empty-<j/> example:
// journals without names still produce a <j/> element.
func TestMergeStrictnessSemantics(t *testing.T) {
	doc := `<lib><journal><name>A</name></journal><journal><nothing/></journal></lib>`
	engines := newEngines(t, doc)
	q := `<names>{ for $j in //journal return <j>{ for $n in $j//name return $n }</j> }</names>`
	want := `<names><j><name>A</name></j><j/></names>`
	for _, m := range Modes() {
		got, err := engines[m].Query(q)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if got != want {
			t.Errorf("%s: got %s want %s", m, got, want)
		}
	}
}

// TestDuplicateElimination exercises the ordering example of milestone 3:
// a some-condition with multiple witnesses must not duplicate output.
func TestDuplicateElimination(t *testing.T) {
	// Two text nodes below each journal (two witnesses for the some).
	doc := `<j2><journal><a>x</a><b>y</b><name>N1</name><name>N2</name></journal></j2>`
	engines := newEngines(t, doc)
	q := `for $j in //journal return if (some $t in $j//text() satisfies true()) then for $n in $j//name return $n else ()`
	want := `<name>N1</name><name>N2</name>`
	for _, m := range Modes() {
		got, err := engines[m].Query(q)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if got != want {
			t.Errorf("%s duplicated or reordered output: %s", m, got)
		}
	}
}

func TestDocumentOrderAcrossSubtrees(t *testing.T) {
	doc := `<r><a><b>1</b></a><c><b>2</b></c><a><b>3</b></a></r>`
	engines := newEngines(t, doc)
	for _, m := range Modes() {
		got, err := engines[m].Query(`for $b in //b return $b/text()`)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if got != "123" {
			t.Errorf("%s: order broken: %q", m, got)
		}
	}
}

func TestTimeout(t *testing.T) {
	// A cross-product query on a document big enough to out-run a 1 ns
	// deadline.
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&b, "<x>%d</x>", i)
	}
	b.WriteString("</r>")
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.LoadString(b.String()); err != nil {
		t.Fatal(err)
	}
	e := New(st, Config{Mode: ModeM3, Timeout: time.Nanosecond})
	_, err = e.Query(`for $x in //x return for $y in //x return if ($x/text() = $y/text()) then <m/> else ()`)
	if !errors.Is(err, limit.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

func TestNegativeBatchSizeRejected(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.LoadString(figure2); err != nil {
		t.Fatal(err)
	}
	e := New(st, Config{Mode: ModeM4, BatchSize: -1})
	if _, err := e.Query(`//name`); !errors.Is(err, ErrBatchSize) {
		t.Fatalf("want ErrBatchSize, got %v", err)
	}
}

// TestExistenceCheckEarlyOut pins what a nullary pass-fail relfor costs.
// The consumer asks its root for one row, so an existence check stops
// probing and rescanning at the first witness; only the outer side of a
// loop join reads ahead, by at most one batch. The floors are the counters
// of the row-at-a-time early-out this replaced.
func TestExistenceCheckEarlyOut(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.LoadString(xmlgen.DBLP(xmlgen.DBLPConfig{Entries: 3000, Seed: 5, PhdFraction: 0.01})); err != nil {
		t.Fatal(err)
	}
	const (
		phdAuthor     = `if (some $p in //phdthesis satisfies some $a in $p//author satisfies true()) then <yes/> else ()`
		articleVolume = `if (some $x in //article satisfies some $v in $x/volume satisfies true()) then <yes/> else ()`
	)
	for _, tc := range []struct {
		mode                     Mode
		query                    string
		probes, rescans, scanned int64
	}{
		{ModeM4, phdAuthor, 1, 0, 2},
		{ModeM4, articleVolume, 0, 0, 1975},
		{ModeM3, phdAuthor, 0, 1, 42377},
		{ModeM3, articleVolume, 0, 6, 42184},
	} {
		e := New(st, Config{Mode: tc.mode})
		res, err := e.Query(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		if res != "<yes/>" {
			t.Errorf("%s %s: got %q", tc.mode, tc.query, res)
		}
		c := e.Counters()
		if c.IndexProbes > tc.probes || c.InnerRescans > tc.rescans {
			t.Errorf("%s %s: probes=%d rescans=%d, want at most %d and %d",
				tc.mode, tc.query, c.IndexProbes, c.InnerRescans, tc.probes, tc.rescans)
		}
		if max := tc.scanned + exec.DefaultBatchSize; c.RowsScanned > max {
			t.Errorf("%s %s: scanned=%d, want at most %d (one batch of read-ahead)",
				tc.mode, tc.query, c.RowsScanned, max)
		}
	}
}

func TestExplainStages(t *testing.T) {
	engines := newEngines(t, figure2)
	out, err := engines[ModeM4].Explain(`<names>{ for $j in /journal return for $n in $j//name return $n }</names>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"TPM (rewritten)", "TPM (merged)", "physical plan", "relfor", "estimated total cost"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	// M1 explain degrades gracefully.
	out, err = engines[ModeM1].Explain(`/journal`)
	if err != nil || !strings.Contains(out, "no algebraic plan") {
		t.Errorf("M1 explain: %v / %s", err, out)
	}
}

func TestCountersPopulated(t *testing.T) {
	engines := newEngines(t, library)
	e := engines[ModeM4]
	if _, err := e.Query(`for $b in //book return $b`); err != nil {
		t.Fatal(err)
	}
	if e.Counters().RowsScanned == 0 {
		t.Error("no rows scanned recorded")
	}
	if e.Counters().RowsEmitted == 0 {
		t.Error("no rows emitted recorded")
	}
}

// TestExplainAnalyzeShowsJoinOperator checks that EXPLAIN ANALYZE on the
// Example 6 query reports which join operator actually ran, its actual
// row counts, and the structural-join counters.
func TestExplainAnalyzeShowsJoinOperator(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.LoadString(xmlgen.DBLP(xmlgen.DBLPConfig{Entries: 800, Seed: 5})); err != nil {
		t.Fatal(err)
	}
	const example6 = `for $x in //article return if (some $v in $x/volume satisfies true()) then for $y in $x//author return $y else ()`
	const descendant = `for $x in //inproceedings return for $y in $x//author return $y`

	// The Example 6 plan on this document anchors at volume and probes:
	// the analysis must name the operator that ran and its actual rows.
	e := New(st, Config{Mode: ModeM4})
	out, err := e.ExplainAnalyze(example6)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"inl-join", "actual rows=", "counters:", "structural=", "physical plan (analyzed)"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}

	// The bulk descendant query runs on the structural merge join, and
	// the analysis shows the operator, its rows and the stack mark.
	out, err = e.ExplainAnalyze(descendant)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"structural-join", "stack=", "actual rows="} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}
	if e.Counters().RowsStructural == 0 {
		t.Errorf("no structural rows counted; analyze output:\n%s", out)
	}
	if e.Counters().StructStackMax == 0 {
		t.Error("no stack high-water mark counted")
	}
	if e.Counters().RowsJoined != 0 {
		t.Errorf("loop joins ran %d rows on the merge-join plan", e.Counters().RowsJoined)
	}

	// With the operator ablated the same query must run on the loop-based
	// joins, and the analysis must say so.
	cfg := opt.M4()
	cfg.UseStructural = false
	e2 := New(st, Config{Mode: ModeM4, Opt: &cfg})
	out2, err := e2.ExplainAnalyze(descendant)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out2, "structural-join") {
		t.Errorf("ablated engine still shows a structural join:\n%s", out2)
	}
	if e2.Counters().RowsStructural != 0 {
		t.Error("ablated engine counted structural rows")
	}
	if e2.Counters().RowsJoined == 0 {
		t.Error("ablated engine counted no loop-join rows")
	}

	// Node-at-a-time modes have no plan to analyze.
	if _, err := New(st, Config{Mode: ModeM2}).ExplainAnalyze(example6); err == nil {
		t.Error("M2 ExplainAnalyze did not fail")
	}
}

// TestExplainAnalyzeTwigJoin checks that a ≥3-branch path pattern runs on
// the holistic twig join and that the k-ary analysis renders every input
// stream with its own actual row count under branch glyphs. The twig
// family is forced: with the anc-ordered structural emission enumerated,
// auto M4 serves this flat-label star on the streaming binary tower
// instead (see TestExplainAnalyzeAncStructural) — the rendering under
// test needs the k-ary operator on the plan.
func TestExplainAnalyzeTwigJoin(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.LoadString(xmlgen.DBLP(xmlgen.DBLPConfig{Entries: 800, Seed: 5})); err != nil {
		t.Fatal(err)
	}
	const twig3 = `for $x in //inproceedings return for $a in $x//author return for $t in $x//title return for $y in $x//year return $t`
	forced, ok := opt.ForceJoin("twig")
	if !ok {
		t.Fatal("ForceJoin(twig)")
	}
	e := New(st, Config{Mode: ModeM4, Opt: &forced})
	out, err := e.ExplainAnalyze(twig3)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"twig-join", "holistic, 4 streams", "twig=", "path-solutions="} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}
	// Four per-stream scan rows under the k-ary operator: three rail
	// branches and one closing corner, each carrying actual rows.
	if strings.Count(out, "├─ scan") != 3 || strings.Count(out, "└─ scan") != 1 {
		t.Errorf("k-ary stream rendering wrong:\n%s", out)
	}
	if strings.Count(out, "actual rows=") < 5 {
		t.Errorf("missing per-stream actual rows:\n%s", out)
	}
	if e.Counters().RowsTwig == 0 || e.Counters().TwigPathSolutions == 0 {
		t.Errorf("twig counters not populated: %+v", e.Counters())
	}
	if e.Counters().RowsJoined != 0 || e.Counters().RowsStructural != 0 {
		t.Errorf("binary joins ran on the holistic plan: %+v", e.Counters())
	}
}

// TestExplainAnalyzeAncStructural checks the Stack-Tree-Anc arbitration
// end to end: on ancestor-first vartuples auto M4 runs the anc-ordered
// structural merge join, no repair sort executes (the point of the
// variant), and the analysis shows the output-list high-water mark next
// to the stack mark.
func TestExplainAnalyzeAncStructural(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.LoadString(xmlgen.DBLP(xmlgen.DBLPConfig{Entries: 800, Seed: 5})); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`for $x in //article return for $y in $x//author return $y`,
		`for $x in //inproceedings return for $a in $x//author return for $t in $x//title return for $y in $x//year return $t`,
	} {
		e := New(st, Config{Mode: ModeM4})
		out, err := e.ExplainAnalyze(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"structural-join", "anc-ordered", "list-max="} {
			if !strings.Contains(out, want) {
				t.Errorf("%q: EXPLAIN ANALYZE missing %q:\n%s", q, want, out)
			}
		}
		if e.Counters().SortedRows != 0 {
			t.Errorf("%q: anc-ordered plan sorted %d rows, want 0", q, e.Counters().SortedRows)
		}
		if e.Counters().RowsStructural == 0 {
			t.Errorf("%q: no structural rows counted:\n%s", q, out)
		}
	}
	// The forced descendant-order family on the same shape pays the sort
	// the anc variant exists to remove.
	descCfg, ok := opt.ForceJoin("structural")
	if !ok {
		t.Fatal("ForceJoin(structural)")
	}
	e := New(st, Config{Mode: ModeM4, Opt: &descCfg})
	if _, err := e.Query(`for $x in //article return for $y in $x//author return $y`); err != nil {
		t.Fatal(err)
	}
	if e.Counters().SortedRows == 0 {
		t.Error("forced desc family paid no repair sort (baseline broken)")
	}
}

// TestExplainAnalyzePartialTwig checks the composite partial-twig plan end
// to end: a path pattern mixed with an uncovered relation runs the
// subtwig as the leading sub-plan under a binary join, the k-ary analysis
// renders the twig's streams under the parent join's rail, and the twig
// rows propagate into the parent join's tallies — with no repair sort.
func TestExplainAnalyzePartialTwig(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.LoadString(xmlgen.DBLP(xmlgen.DBLPConfig{Entries: 800, Seed: 5, PhdFraction: 0.01})); err != nil {
		t.Fatal(err)
	}
	const mixed = `for $x in //inproceedings return for $a in $x//author return for $t in $x//title return for $y in $x//year return if (some $p in //phdthesis satisfies true()) then $t else ()`
	cfg, ok := opt.ForceJoin("twig")
	if !ok {
		t.Fatal("ForceJoin(twig)")
	}
	e := New(st, Config{Mode: ModeM4, Opt: &cfg})
	out, err := e.ExplainAnalyze(mixed)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"twig-join", "holistic, 4 streams", "-join(", // composite: twig under a binary join
		"│  ├─ scan", "│  └─ scan", // twig streams render under the parent join's rail
		"actual rows=", "twig=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}
	c := e.Counters()
	if c.RowsTwig == 0 {
		t.Errorf("no twig rows on the composite plan:\n%s", out)
	}
	if c.RowsJoined == 0 {
		t.Errorf("twig rows did not flow through the parent join:\n%s", out)
	}
	if c.SortedRows != 0 {
		t.Errorf("composite plan paid a repair sort (%d rows):\n%s", c.SortedRows, out)
	}
}
