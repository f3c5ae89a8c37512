package testbed

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"xqdb/internal/core"
	"xqdb/internal/opt"
	"xqdb/internal/store"
	"xqdb/internal/xmlgen"
)

// FuzzSeedCI is the pinned seed the CI fuzz step runs at: failures
// reproduce exactly by re-running RunFuzz with this seed.
const FuzzSeedCI = 20260730

// FuzzConfig parameterizes the randomized equivalence fuzz harness.
type FuzzConfig struct {
	// Seed drives both document and query generation; the same seed
	// replays the identical iteration sequence.
	Seed int64
	// Iterations is the number of (document, query) checks to run.
	Iterations int
	// QueriesPerDoc groups iterations on one generated document before a
	// fresh one is generated (default 8).
	QueriesPerDoc int
	// Timeout bounds each query on each engine (default 30s — generous,
	// so no engine times out and timing never masquerades as mismatch).
	Timeout time.Duration
	// Budget, when > 0, caps every engine under test (not the naive
	// reference) at this many bytes of operator memory AND per-query
	// buffered memory, so spill paths run under the full cross-engine
	// byte-equivalence check.
	Budget int
	// BatchSizes is the operator batch-capacity dimension: iteration i runs
	// every engine at BatchSizes[i mod len]. Values follow
	// core.Config.BatchSize (0 = default capacity). Defaults to {0, 1, 7},
	// so the full-size batches, the degenerate one-row batches, and an odd
	// mid-size that never divides leaf or run lengths all face the
	// byte-equivalence check. The dimension draws nothing from the seed
	// stream, so pinned seeds replay the same documents and queries
	// regardless.
	BatchSizes []int
}

// FuzzMismatch is one query whose result on some engine configuration
// diverged from the milestone 2 naive reference.
type FuzzMismatch struct {
	Iter    int
	Doc     string
	Query   string
	Engine  string
	Batch   int // core.Config.BatchSize the engine ran at
	Got     string
	Want    string
	GotErr  error
	WantErr error
}

// FuzzEngine names one optimizer configuration under test.
type FuzzEngine struct {
	Name string
	Cfg  opt.Config
}

// FuzzEngines returns the configurations the fuzz harness cross-checks
// against the naive reference: the full cost-based planner with
// partial-twig adoption on and off, and every ForceJoin family (the twig
// family also in both partial modes; the structural family in both
// emission orders — the descendant-ordered merge plus its sort repair,
// and the ancestor-ordered Stack-Tree-Anc merge). Every configuration
// caps exhaustive join-order enumeration at 5 relations — queries the
// generator keeps within the budget enumerate fully (exercising the
// whole auction, partial twigs and emission orders included), larger
// conjunctions take the syntactic-order fallback — so a fuzz iteration
// spends its time executing plans, not planning 8!-order auctions on
// 40-entry documents.
func FuzzEngines() []FuzzEngine {
	cap5 := func(c opt.Config) opt.Config {
		c.MaxEnumRels = 5
		return c
	}
	auto := opt.M4()
	noPartial := opt.M4()
	noPartial.UsePartialTwig = false
	twig, _ := opt.ForceJoin("twig")
	twigNoPartial := twig
	twigNoPartial.UsePartialTwig = false
	structural, _ := opt.ForceJoin("structural")
	structuralAnc, _ := opt.ForceJoin("structural-anc")
	inl, _ := opt.ForceJoin("inl")
	nl, _ := opt.ForceJoin("nl")
	bnl, _ := opt.ForceJoin("bnl")
	return []FuzzEngine{
		{"m4-auto", cap5(auto)},
		{"m4-nopartial", cap5(noPartial)},
		{"twig-partial", cap5(twig)},
		{"twig-nopartial", cap5(twigNoPartial)},
		{"structural", cap5(structural)},
		{"structural-anc", cap5(structuralAnc)},
		{"inl", cap5(inl)},
		{"nl", cap5(nl)},
		{"bnl", cap5(bnl)},
	}
}

// fuzzDoc is one generated document plus the vocabulary the query
// generator draws from.
type fuzzDoc struct {
	desc   string
	xml    string
	labels []string // element labels to use in node tests (some absent)
	strs   []string // string constants for value comparisons
}

// randomFuzzDoc generates a small random document: DBLP-shaped (shallow,
// label-skewed), TREEBANK-shaped (deep, recursive), or the handmade
// Figure 2 document. Documents stay tiny so even the nested-loops
// families finish every random query quickly.
func randomFuzzDoc(rng *rand.Rand) fuzzDoc {
	switch roll := rng.Intn(10); {
	case roll == 0:
		return fuzzDoc{
			desc:   "figure2",
			xml:    xmlgen.Figure2,
			labels: []string{"journal", "authors", "name", "title", "nosuch"},
			strs:   []string{"Ana", "Bob", "DB", "zzz"},
		}
	case roll <= 5:
		seed := rng.Int63()
		entries := 10 + rng.Intn(50)
		cfg := xmlgen.DBLPConfig{
			Entries:        entries,
			Seed:           seed,
			VolumeFraction: 0.05 + 0.4*rng.Float64(),
			PhdFraction:    0.02 + 0.1*rng.Float64(),
			NoteFraction:   0.01 + 0.1*rng.Float64(),
		}
		return fuzzDoc{
			desc: fmt.Sprintf("dblp(entries=%d seed=%d)", entries, seed),
			xml:  xmlgen.DBLP(cfg),
			labels: []string{"dblp", "article", "inproceedings", "phdthesis",
				"author", "title", "year", "journal", "volume", "pages",
				"booktitle", "school", "note", "cdrom"},
			strs: []string{"corresponding", "TODS", "1995", "1999", "zzz"},
		}
	default:
		seed := rng.Int63()
		sentences := 3 + rng.Intn(6)
		cfg := xmlgen.TreebankConfig{
			Sentences: sentences,
			Seed:      seed,
			MaxDepth:  6 + rng.Intn(6),
		}
		return fuzzDoc{
			desc: fmt.Sprintf("treebank(sentences=%d seed=%d)", sentences, seed),
			xml:  xmlgen.Treebank(cfg),
			labels: []string{"FILE", "S", "NP", "VP", "PP", "NN", "VB", "DT",
				"JJ", "EMPTY", "nosuch"},
			strs: []string{"zzz", "abc"},
		}
	}
}

// fuzzVar is one for-bound variable of a generated query.
type fuzzVar struct {
	name string
	text bool // bound by a text() test, so value comparisons are legal
}

// fuzzQueryGen builds random path/value query shapes over a document's
// vocabulary: chains and branches of child/descendant for-loops (the raw
// material of twigs, partial twigs and disconnected components), text()
// steps, nonexistent labels, and TPM-able plus runtime if-conditions with
// value comparisons restricted to text-bound operands (the engines define
// comparisons only on text nodes).
//
// relBudget bounds the number of XASR relations the merged PSX will hold
// (for-loops plus the relations conditions desugar into). Most queries
// stay within the join-order enumeration budget, where every operator
// family and the partial-twig auction are exercised; a small fraction
// deliberately exceed MaxEnumRels to cover the syntactic-order fallback —
// those use only variable-based steps and existential conditions so the
// unoptimized plans stay small on the tiny fuzz documents.
type fuzzQueryGen struct {
	rng       *rand.Rand
	doc       fuzzDoc
	vars      []fuzzVar
	seq       int
	relBudget int
	deep      bool
}

func (g *fuzzQueryGen) label() string {
	return g.doc.labels[g.rng.Intn(len(g.doc.labels))]
}

func (g *fuzzQueryGen) str() string {
	return g.doc.strs[g.rng.Intn(len(g.doc.strs))]
}

func (g *fuzzQueryGen) axis() string {
	if g.rng.Float64() < 0.35 {
		return "/"
	}
	return "//"
}

// test returns a node test and whether it is text().
func (g *fuzzQueryGen) test() (string, bool) {
	r := g.rng.Float64()
	switch {
	case r < 0.12:
		return "text()", true
	case r < 0.18:
		return "*", false
	default:
		return g.label(), false
	}
}

// textVars lists the variables legal in value comparisons.
func (g *fuzzQueryGen) textVars() []fuzzVar {
	var out []fuzzVar
	for _, v := range g.vars {
		if v.text {
			out = append(out, v)
		}
	}
	return out
}

// comparand renders one side of a value comparison: a text-bound variable
// when available, else a single child-step path ending in text() (the
// parser desugars it into an existential, costing one relation).
func (g *fuzzQueryGen) comparand() string {
	if tv := g.textVars(); len(tv) > 0 && (g.relBudget <= 0 || g.rng.Float64() < 0.6) {
		return "$" + tv[g.rng.Intn(len(tv))].name
	}
	g.relBudget--
	base := "$" + g.vars[g.rng.Intn(len(g.vars))].name
	return base + "/text()"
}

// cond generates a condition; depth bounds the combinator nesting, and the
// relation budget bounds how many extra relations it may desugar into.
func (g *fuzzQueryGen) cond(depth int) string {
	r := g.rng.Float64()
	switch {
	case depth < 2 && !g.deep && r < 0.10:
		return fmt.Sprintf("%s and %s", g.cond(depth+1), g.cond(depth+1))
	case depth < 2 && !g.deep && r < 0.16:
		// or routes the whole if through the runtime (non-TPM) path,
		// where no condition relation is ever created.
		return fmt.Sprintf("%s or %s", g.cond(depth+1), g.cond(depth+1))
	case depth < 2 && !g.deep && r < 0.22:
		return fmt.Sprintf("not(%s)", g.cond(depth+1))
	case r < 0.55 || g.deep:
		// Existential step off a bound variable (or the root).
		if g.relBudget <= 0 {
			return "true()"
		}
		g.relBudget--
		g.seq++
		sv := fmt.Sprintf("s%d", g.seq)
		base := "$" + g.vars[g.rng.Intn(len(g.vars))].name
		if !g.deep && g.rng.Float64() < 0.15 {
			base = ""
		}
		test, isText := g.test()
		sat := "true()"
		if isText && g.rng.Float64() < 0.4 {
			sat = fmt.Sprintf("$%s = %q", sv, g.str())
		}
		return fmt.Sprintf("some $%s in %s%s%s satisfies %s", sv, base, g.axis(), test, sat)
	case r < 0.8:
		if len(g.textVars()) == 0 && g.relBudget <= 0 {
			return "true()" // a path comparand would bust the relation budget
		}
		return fmt.Sprintf("%s = %q", g.comparand(), g.str())
	default:
		if len(g.textVars()) == 0 && g.relBudget <= 1 {
			return "true()" // two path comparands need budget for both
		}
		return fmt.Sprintf("%s = %s", g.comparand(), g.comparand())
	}
}

// query generates one complete random query.
func (g *fuzzQueryGen) query() string {
	// Most queries keep the merged conjunction inside the join-order
	// enumeration budget (≤5 relations); a few deliberately overflow it
	// to fuzz the syntactic-order fallback and the over-cap twig paths.
	g.relBudget = 5
	if g.rng.Float64() < 0.08 {
		g.deep = true
		g.relBudget = 10
	}
	// 2–5 for-loops, weighted toward the small shapes.
	k := 2
	switch r := g.rng.Float64(); {
	case g.deep:
		k = 4 + g.rng.Intn(2)
	case r < 0.40:
		k = 2
	case r < 0.75:
		k = 3
	default:
		k = 4
	}
	// Ancestor-first chains — every loop descending from the previous
	// loop's variable — are the vartuple shape the anc-ordered structural
	// emission targets (and the most common shape in the milestone
	// queries); bias toward them so the emission-order arbitration and
	// the structural-anc forced family see dense coverage. Text-bound
	// variables are skipped as chain bases (text nodes have no element
	// descendants, which would make the tail loops trivially empty).
	chain := !g.deep && g.rng.Float64() < 0.35
	var b strings.Builder
	rootLoops := 0
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("v%d", i+1)
		base := ""
		// Later loops mostly navigate from a bound variable; at most one
		// extra root-based loop (none in deep or chain mode) keeps cross
		// products and the unoptimized fallback plans small.
		switch {
		case chain && i > 0:
			base = "$" + g.vars[len(g.vars)-1].name
		case i > 0 && !(!g.deep && rootLoops < 1 && g.rng.Float64() < 0.2):
			base = "$" + g.vars[g.rng.Intn(len(g.vars))].name
		case i > 0:
			rootLoops++
		}
		test, isText := g.test()
		if chain && isText && i < k-1 {
			test, isText = g.label(), false
		}
		fmt.Fprintf(&b, "for $%s in %s%s%s return ", name, base, g.axis(), test)
		g.vars = append(g.vars, fuzzVar{name: name, text: isText})
		g.relBudget--
	}
	emit := "$" + g.vars[g.rng.Intn(len(g.vars))].name
	body := emit
	if r := g.rng.Float64(); r < 0.15 {
		body = "<hit/>"
	} else if r < 0.3 {
		body = fmt.Sprintf("<r>{ %s }</r>", emit)
	}
	if g.rng.Float64() < 0.55 {
		body = fmt.Sprintf("if (%s) then %s else ()", g.cond(0), body)
	}
	b.WriteString(body)
	return b.String()
}

// RunFuzz runs the randomized equivalence fuzz harness: random documents,
// random query shapes, every engine configuration of FuzzEngines
// cross-checked byte-for-byte against the milestone 2 naive reference
// engine. It returns the mismatches and the number of (query, engine)
// checks performed. Everything is derived deterministically from
// cfg.Seed, so a logged seed plus iteration count reproduces a failure
// exactly.
func RunFuzz(dir string, cfg FuzzConfig) ([]FuzzMismatch, int, error) {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 200
	}
	if cfg.QueriesPerDoc <= 0 {
		cfg.QueriesPerDoc = 8
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if len(cfg.BatchSizes) == 0 {
		cfg.BatchSizes = []int{0, 1, 7}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	engines := FuzzEngines()

	var mismatches []FuzzMismatch
	checks := 0
	var st *store.Store
	var doc fuzzDoc
	var ref *core.Engine
	var under []*core.Engine
	defer func() {
		if st != nil {
			st.Close()
		}
	}()
	for iter := 0; iter < cfg.Iterations; iter++ {
		if iter%cfg.QueriesPerDoc == 0 {
			if st != nil {
				st.Close()
				st = nil
			}
			doc = randomFuzzDoc(rng)
			var err error
			st, err = store.Open(filepath.Join(dir, fmt.Sprintf("fuzz-%d", iter)), store.Options{})
			if err != nil {
				return mismatches, checks, err
			}
			if err := st.LoadString(doc.xml); err != nil {
				return mismatches, checks, fmt.Errorf("testbed: loading %s: %w", doc.desc, err)
			}
			ref = core.New(st, core.Config{Mode: core.ModeM2, Timeout: cfg.Timeout})
		}
		// The batch-capacity dimension rotates per iteration, independent
		// of the seed stream.
		batch := cfg.BatchSizes[iter%len(cfg.BatchSizes)]
		under = under[:0]
		for i := range engines {
			under = append(under, core.New(st, core.Config{
				Mode: core.ModeM4, Opt: &engines[i].Cfg, Timeout: cfg.Timeout,
				SortBudget: cfg.Budget, MemBudget: cfg.Budget,
				BatchSize: batch,
			}))
		}
		gen := &fuzzQueryGen{rng: rng, doc: doc}
		q := gen.query()
		want, wantErr := ref.Query(q)
		for i, e := range under {
			got, gotErr := e.Query(q)
			checks++
			if got != want || (gotErr == nil) != (wantErr == nil) {
				mismatches = append(mismatches, FuzzMismatch{
					Iter: iter, Doc: doc.desc, Query: q, Engine: engines[i].Name,
					Batch: batch, Got: got, Want: want, GotErr: gotErr, WantErr: wantErr,
				})
			}
		}
	}
	return mismatches, checks, nil
}
