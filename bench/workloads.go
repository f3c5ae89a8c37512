package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"xqdb"
)

// docSpec is one generated document of a workload. Size is DBLP entries
// or Treebank sentences; the document seed derives from the run's -seed.
type docSpec struct {
	Name     string
	Treebank bool
	Size     int
	// Counts pins how often rare labels occur. The generator draws them
	// with a fixed probability per entry, so a 2 000-entry document holds
	// 4 ± 2 phdthesis elements; the selective texts and the update cycle
	// do work in proportion to that count, and left alone it would move
	// every latency by tens of percent from seed to seed. Candidate
	// document seeds are tried in a fixed order until the counts fit, so
	// the document is still a function of -seed and everything else about
	// it (names, titles, positions) varies freely.
	Counts []labelCount
}

// labelCount bounds the occurrences of one element label, inclusive.
type labelCount struct {
	Label    string
	Min, Max int
}

// generate returns the document for a run seed: the first candidate whose
// rare-label counts fit (the 200th if none does).
func (d docSpec) generate(seed int64) []byte {
	for try := int64(0); ; try++ {
		var b bytes.Buffer
		var err error
		if d.Treebank {
			err = xqdb.WriteTreebank(&b, d.Size, seed+try*7919)
		} else {
			err = xqdb.WriteDBLP(&b, d.Size, seed+try*7919)
		}
		if err != nil {
			panic(err) // writing to memory cannot fail
		}
		if d.fits(b.Bytes()) || try == 200 {
			return b.Bytes()
		}
	}
}

func (d docSpec) fits(xml []byte) bool {
	for _, c := range d.Counts {
		if n := bytes.Count(xml, []byte("<"+c.Label+">")); n < c.Min || n > c.Max {
			return false
		}
	}
	return true
}

// text is one pooled query text. Its reference answer is computed at
// set-up by the naive M2 engine (see oracle in e2e.go).
type text struct {
	Doc string
	Q   string
}

// workload describes one traffic mix. See README.md for the reasoning
// behind each; the Why strings are repeated in BENCHMARK.json.
type workload struct {
	Name string
	Why  string
	Docs []docSpec
	// Reads is the pool the reader clients draw from (seeded permutations).
	Reads []text
	// Unique makes every request textually distinct by prefixing a
	// per-request string literal, so the plan cache never hits; the
	// expected answer is the literal followed by the text's reference.
	Unique bool
	// AlternateXML alternates format=xml and the JSON envelope per
	// request; otherwise every request asks for JSON.
	AlternateXML bool
	// UpdateDoc is the DBLP document the update cycle runs against.
	UpdateDoc string
	// ConcurrentWriter runs the update cycle on client 0 beside a reader
	// on client 1 for the whole measured phase (mixed-rw). Otherwise both
	// clients read, and the cycle runs alone in the last quarter of every
	// round (the write probe).
	ConcurrentWriter bool
	// Setups is how many times the set-up (server start + loads) is done:
	// once for the run's own server and the rest spread over the rounds;
	// setup_s and load_mbps are medians over them.
	Setups int
	// ReplayOps is the N of the traced replay: the first N operations of
	// the merged client streams.
	ReplayOps int
}

// scaled shrinks the workload for the smoke test: documents and the replay
// by div, and at most two set-ups. 1 is the benchmark.
func (w workload) scaled(div int) workload {
	if div <= 1 {
		return w
	}
	w.Setups = min(w.Setups, 2)
	w.ReplayOps = max(w.ReplayOps/div, 2*len(w.Reads))
	docs := make([]docSpec, len(w.Docs))
	for i, d := range w.Docs {
		d.Size = max(d.Size/div, 20)
		d.Counts = nil
		docs[i] = d
	}
	w.Docs = docs
	return w
}

// The paper's efficiency tests (internal/testbed), spelled out here so the
// driver needs nothing beyond the public package.
const (
	t1 = `for $x in //phdthesis return for $t in $x/title return $t`
	t2 = `for $x in //inproceedings return for $y in $x//author return $y`
	t3 = `for $x in //article return if (some $v in $x/volume satisfies true()) then for $y in $x//author return $y else ()`
	t4 = `for $x in //article return for $y in $x//cdrom return $y`
	t5 = `for $y in //author return for $x in $y/note return $x`
)

// pointTexts are selective: every one anchors on a rare label through the
// label index (phdthesis, school, note, the absent cdrom), so execution is
// a few descents and the texts cost about the same. Rooted child paths
// such as /dblp/phdthesis/title are left out: they walk all of /dblp's
// children, which is a scan, not a lookup.
func pointTexts(doc string) []text {
	qs := []string{
		t1, t5,
		`//school`,
		`for $x in //phdthesis return $x/author`,
		`for $x in //phdthesis return <thesis>{ $x/title, $x/year }</thesis>`,
		`for $s in //school return $s/text()`,
		`for $s in //school return if ($s/text() = "University Koch") then <koch/> else <other/>`,
		`for $x in //phdthesis return if ($x/author/text() = "Ana Koch 0000") then <hit/> else <miss/>`,
		`for $x in //phdthesis return if (some $s in $x/school satisfies true()) then $x/year else ()`,
		`for $n in //note return if (some $t in $n/text() satisfies true()) then <noted/> else ()`,
		`for $x in //phdthesis return if (some $v in $x/volume satisfies true()) then $x else <novolume/>`,
		`<theses>{ for $x in //phdthesis return $x/year }</theses>`,
		`for $x in //phdthesis return for $a in $x/author return $a/text()`,
		`for $c in //cdrom return $c/text()`,
		`for $c in //cdrom return for $a in $c//author return $a`,
		`for $x in //phdthesis return for $t in $x/title/text() return <t>{ $t }</t>`,
	}
	return onDoc(doc, qs)
}

// compileTexts are the compile-cold templates, in rising planning cost:
// 1-step, 2-step, the Example 6 some-shape, an ancestor-first chain, a
// for+some twig, a 3-branch twig, and a twig plus a relation the twig
// cannot cover (a value join). All anchor on rare labels so execution
// stays small. There are seven so that the median request is the fourth
// template and the 95th percentile lies well inside the seventh; planning
// cost rises so steeply with the relation count (about 0.08 s at five
// relations, 0.5 s at six, 3.7 s at seven) that the last template stops at
// five.
func compileTexts(doc string) []text {
	qs := []string{
		`//school`,
		`for $x in //phdthesis return $x/title`,
		`for $x in //phdthesis return if (some $v in $x/school satisfies true()) then for $y in $x//author return $y else ()`,
		`for $d in //dblp return for $x in $d//phdthesis return for $y in $x//author return $y`,
		`for $x in //phdthesis return for $a in $x/author return if (some $s in $x/school satisfies true()) then $a/text() else ()`,
		`for $x in //phdthesis return if (some $a in $x/author satisfies true() and some $s in $x/school satisfies true()) then $x/title else ()`,
		`for $x in //phdthesis return for $a in $x/author/text() return for $n in //note return if ($a = $n/text()) then <same/> else ()`,
	}
	return onDoc(doc, qs)
}

// bulkTexts return tens to hundreds of KB each: label-skewed shallow data
// (DBLP) and deep nesting (Treebank), descendant chains, twigs and
// semijoins. An odd count keeps the median request inside one text's
// share of the mix and not between two.
func bulkTexts(dblp, treebank string) []text {
	ts := onDoc(dblp, []string{
		t2, t3,
		`//title`,
		`for $d in //dblp return for $x in $d//inproceedings return for $y in $x//author return $y`,
		`for $x in //inproceedings return if (some $a in $x/author satisfies true() and some $b in $x/booktitle satisfies true()) then $x/title else ()`,
	})
	if treebank != "" {
		ts = append(ts, onDoc(treebank, []string{
			`for $s in //S return for $n in $s//NP return for $m in $n//NN return $m`,
			`//NN`,
			`for $n in //NP return for $m in $n//NN return $m/text()`,
			`for $v in //VP return for $p in $v//PP return $p/NN`,
		})...)
	}
	return ts
}

func onDoc(doc string, qs []string) []text {
	ts := make([]text, len(qs))
	for i, q := range qs {
		ts[i] = text{Doc: doc, Q: q}
	}
	return ts
}

// updateCycle is the stationary CRUD script: 24 statements that leave the
// document byte-identical to where they started. Targets are rooted child
// paths with 1 target (/dblp, /dblp/bench), about one per 500 entries
// (/dblp/phdthesis and its children), and eight times that (the notes the
// script itself inserted). The eight note inserts go into the same gap of
// each phdthesis and exhaust the stride-8 label headroom, so some of them
// relabel the enclosing subtree.
//
// On the 20 000-entry document the statements fall into three cost
// classes: in-place ones (inserts into a gap that still has room, replaces,
// deletes), ones that relabel a phdthesis subtree, and the three that
// append to or replace under /dblp and walk its 20 000 children. The mix is
// 14 : 7 : 3, so update_p50_ms lies inside the first class and
// update_p95_ms inside the last, not on a boundary between two. (With ten
// in-place statements of twenty the median flipped between two classes
// from run to run.) `-texts` prints each statement's latency.
//
// Statements that would relabel above a phdthesis subtree are left out on
// purpose: appending a fragment of more than three nodes to /dblp relabels
// the whole document inside one transaction and fails with "buffer pool
// shard exhausted" on a document larger than the pool (see README.md).
func updateCycle() []string {
	s := []string{
		`insert node <bench>a</bench> into /dblp`,
		`replace node /dblp/bench with <bench>b</bench>`,
	}
	for i := 0; i < 8; i++ {
		s = append(s, fmt.Sprintf(`insert node <note>n%d</note> into /dblp/phdthesis`, i))
	}
	return append(s,
		`replace node /dblp/phdthesis/note with <note>r1</note>`,
		`insert node <seen/> before /dblp/phdthesis/school`,
		`insert node <erratum>e</erratum> after /dblp/phdthesis/title`,
		`replace node /dblp/phdthesis/note with <note>r2</note>`,
		`replace node /dblp/phdthesis/seen with <seen>s</seen>`,
		`replace node /dblp/phdthesis/erratum with <erratum>f</erratum>`,
		`replace node /dblp/phdthesis/seen with <seen>t</seen>`,
		`replace node /dblp/phdthesis/erratum with <erratum>g</erratum>`,
		`replace node /dblp/phdthesis/seen with <seen>u</seen>`,
		`delete node /dblp/phdthesis/erratum`,
		`delete node /dblp/phdthesis/seen`,
		`delete node /dblp/phdthesis/note`,
		`replace node /dblp/bench with <bench>c</bench>`,
		`delete node /dblp/bench`,
	)
}

// mixedReads are answers the update cycle never changes: nothing under
// phdthesis and no note that hangs off a phdthesis (T5's notes hang off
// authors).
func mixedReads(doc string) []text {
	point := onDoc(doc, []string{
		t4, t5,
		`for $c in //cdrom return $c/text()`,
		`for $n in //author/note return if (some $t in $n/text() satisfies true()) then <noted/> else ()`,
	})
	return append(point, bulkTexts(doc, "")...)
}

// generate returns the workload's documents by name.
func (w workload) generate(seed int64) map[string][]byte {
	docs := make(map[string][]byte, len(w.Docs))
	for i, d := range w.Docs {
		docs[d.Name] = d.generate(seed*31 + int64(i))
	}
	return docs
}

// The two DBLP documents. At 2 000 entries the store (about 2.8 MB) fits
// the 4 MiB pool; at 20 000 it is about seven times the pool.
var (
	smallDBLP = docSpec{Name: "dblp", Size: 2000, Counts: []labelCount{{"phdthesis", 4, 4}, {"note", 4, 6}}}
	largeDBLP = docSpec{Name: "dblp", Size: 20000, Counts: []labelCount{{"phdthesis", 39, 41}}}
)

func workloads() []workload {
	return []workload{
		{
			Name:      "point-hot",
			Why:       "16 selective texts on a store that fits the pool, plans cached: per-request fixed cost (HTTP, catalog, plan-cache hit, clone) is nearly all of the latency",
			Docs:      []docSpec{smallDBLP},
			Reads:     pointTexts("dblp"),
			UpdateDoc: "dblp",
			Setups:    7,
			ReplayOps: 480,
		},
		{
			Name:      "compile-cold",
			Why:       "7 templates made textually unique per request, so the plan cache only puts and evicts: parse, TPM rewrite and the cost-based planner dominate, execution is small",
			Docs:      []docSpec{smallDBLP},
			Reads:     compileTexts("dblp"),
			Unique:    true,
			UpdateDoc: "dblp",
			Setups:    7,
			ReplayOps: 240,
		},
		{
			Name:         "scan-bulk",
			Why:          "9 bulk texts over a 20k-entry DBLP and a deep Treebank, each store about 7 times the pool: operators, cursors, leaf decode, pager misses and serialization dominate; also times shredding",
			Docs:         []docSpec{largeDBLP, {Name: "treebank", Treebank: true, Size: 200}},
			Reads:        bulkTexts("dblp", "treebank"),
			AlternateXML: true,
			UpdateDoc:    "dblp",
			Setups:       3,
			ReplayOps:    48,
		},
		{
			Name:             "mixed-rw",
			Why:              "one client runs the stationary update cycle (WAL fsync, dirty pages, checkpoints, plan invalidation) while the other reads 4 point and 5 bulk texts: readers and the writer wait on each other",
			Docs:             []docSpec{largeDBLP},
			Reads:            mixedReads("dblp"),
			AlternateXML:     true,
			UpdateDoc:        "dblp",
			ConcurrentWriter: true,
			Setups:           3,
			ReplayOps:        120,
		},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opKind says which endpoint an operation goes to.
type opKind uint8

const (
	opQuery opKind = iota
	opUpdate
)

// op is one generated request. For a query, Text indexes the workload's
// Reads and the expected answer is Literal followed by that text's
// reference; for an update, Stmt is the statement and Pos its position in
// the cycle.
type op struct {
	Kind    opKind
	Text    int
	Literal string
	XML     bool
	Stmt    string
	Pos     int
}

// body returns the request body the server sees.
func (o op) body(w workload) string {
	if o.Kind == opUpdate {
		return o.Stmt
	}
	if o.Literal != "" {
		return fmt.Sprintf("%q, %s", o.Literal, w.Reads[o.Text].Q)
	}
	return w.Reads[o.Text].Q
}

// stream yields a client's operations. Streams are a pure function of
// (workload, seed, client), so a replay sees exactly what a client sent.
// A reader draws seeded permutations of the pool, one after another: the
// order is random but every text has exactly the same share of the mix in
// every run, so a percentile cannot move because the mix did.
type stream struct {
	w      workload
	client int
	rng    *rand.Rand
	n      int
	perm   []int    // the current permutation of the pool
	cycle  []string // non-nil: this client writes
}

func newStream(w workload, seed int64, client int, writer bool) *stream {
	s := &stream{w: w, client: client, rng: rand.New(rand.NewSource(seed*1000003 + int64(client)))}
	if writer {
		s.cycle = updateCycle()
	}
	return s
}

func (s *stream) next() op {
	n := s.n
	s.n++
	if s.cycle != nil {
		pos := n % len(s.cycle)
		return op{Kind: opUpdate, Stmt: s.cycle[pos], Pos: pos}
	}
	at := n % len(s.w.Reads)
	if at == 0 {
		s.perm = s.rng.Perm(len(s.w.Reads))
	}
	o := op{Text: s.perm[at], XML: s.w.AlternateXML && n%2 == 1}
	if s.w.Unique {
		o.Literal = fmt.Sprintf("k%d-%d-", s.client, n)
	}
	return o
}
