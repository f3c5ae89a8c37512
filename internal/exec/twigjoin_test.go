package exec

import (
	"strings"
	"testing"

	"xqdb/internal/tpm"
	"xqdb/internal/xasr"
)

// twigDoc exercises branching, parent/child vs descendant edges and
// nesting: two a-subtrees with b/c descendants, one a missing c entirely,
// plus nested a's sharing descendants.
const twigDoc = `<r>` +
	`<a><b>1</b><x><c>p</c></x></a>` +
	`<a><b>2</b><b>3</b></a>` +
	`<a><a><b>4</b><c>q</c></a><c>r</c></a>` +
	`</r>`

// buildTwig assembles a twig over label streams: spec maps each alias to
// (label, parent alias, axis). Root has parent "".
func buildTwig(t *testing.T, preds []tpm.StructuralPred, rels []string, labels map[string]string, conds []tpm.Cmp, outOrder []string) *TwigJoin {
	t.Helper()
	tw, ok := tpm.AssembleTwig(preds, rels)
	if !ok {
		t.Fatalf("twig assembly failed for %v", rels)
	}
	var streams []PlanNode
	for _, n := range tw.Nodes {
		streams = append(streams, labelScan(n.Alias, labels[n.Alias]))
	}
	return NewTwigJoin(streams, *tw, conds, outOrder)
}

// nlReference evaluates the same pattern with chained nested-loops joins
// (the ground truth) and returns the set of per-alias in-assignments.
func nlReference(t *testing.T, doc string, preds []tpm.StructuralPred, rels []string, labels map[string]string) map[string]bool {
	t.Helper()
	ctx := testCtx(t, doc)
	var node PlanNode = labelScan(rels[0], labels[rels[0]])
	for _, r := range rels[1:] {
		var conds []tpm.Cmp
		for _, sp := range preds {
			if sp.Desc == r || sp.Anc == r {
				conds = append(conds, sp.Conds...)
			}
		}
		// Keep only conds whose other side is already present.
		var usable []tpm.Cmp
		for _, c := range conds {
			ok := true
			for _, cr := range c.Rels() {
				if cr != r && node.Schema().Slot(cr) < 0 {
					ok = false
				}
			}
			if ok {
				usable = append(usable, c)
			}
		}
		node = NewNLJoin(node, labelScan(r, labels[r]), usable)
	}
	want := map[string]bool{}
	schema := node.Schema()
	for _, row := range drain(t, ctx, node) {
		var kb []byte
		for _, a := range rels {
			in := row[schema.Slot(a)].In
			kb = append(kb, byte(in>>24), byte(in>>16), byte(in>>8), byte(in))
		}
		want[string(kb)] = true
	}
	return want
}

func twigKey(row Row, schema *Schema, rels []string) string {
	var kb []byte
	for _, a := range rels {
		in := row[schema.Slot(a)].In
		kb = append(kb, byte(in>>24), byte(in>>16), byte(in>>8), byte(in))
	}
	return string(kb)
}

func TestTwigJoinMatchesNLPipeline(t *testing.T) {
	labels := map[string]string{"A": "a", "B": "b", "C": "c", "R": "r"}
	cases := []struct {
		name  string
		preds []tpm.StructuralPred
		rels  []string
	}{
		{"branch-desc", []tpm.StructuralPred{descPred("A", "B"), descPred("A", "C")}, []string{"A", "B", "C"}},
		{"chain", []tpm.StructuralPred{descPred("R", "A"), descPred("A", "B")}, []string{"R", "A", "B"}},
		{"mixed-axes", []tpm.StructuralPred{childPred("A", "B"), descPred("A", "C")}, []string{"A", "B", "C"}},
		{"deep-branch", []tpm.StructuralPred{descPred("R", "A"), descPred("A", "B"), descPred("A", "C")}, []string{"R", "A", "B", "C"}},
		{"self-nested", []tpm.StructuralPred{descPred("A", "B")}, []string{"A", "B"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := nlReference(t, twigDoc, c.preds, c.rels, labels)
			ctx := testCtx(t, twigDoc)
			j := buildTwig(t, c.preds, c.rels, labels, nil, c.rels)
			rows := drain(t, ctx, j)
			got := map[string]bool{}
			for _, r := range rows {
				got[twigKey(r, j.Schema(), c.rels)] = true
			}
			if len(got) != len(rows) {
				t.Errorf("twig emitted %d rows, %d distinct (duplicates)", len(rows), len(got))
			}
			if len(got) != len(want) {
				t.Fatalf("twig %d matches, NL pipeline %d", len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Errorf("missing match %x", k)
				}
			}
			if len(want) > 0 && ctx.Counters.RowsTwig == 0 {
				t.Error("RowsTwig not counted")
			}
		})
	}
}

func TestTwigJoinOutputOrder(t *testing.T) {
	// OutOrder drives lexicographic emission by in-labels.
	labels := map[string]string{"A": "a", "B": "b", "C": "c"}
	preds := []tpm.StructuralPred{descPred("A", "B"), descPred("A", "C")}
	ctx := testCtx(t, twigDoc)
	j := buildTwig(t, preds, []string{"A", "B", "C"}, labels, nil, []string{"A", "B", "C"})
	rows := drain(t, ctx, j)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	sa, sb, sc := j.Schema().Slot("A"), j.Schema().Slot("B"), j.Schema().Slot("C")
	for i := 1; i < len(rows); i++ {
		p, q := rows[i-1], rows[i]
		pk := [3]uint32{p[sa].In, p[sb].In, p[sc].In}
		qk := [3]uint32{q[sa].In, q[sb].In, q[sc].In}
		if !(pk[0] < qk[0] || (pk[0] == qk[0] && (pk[1] < qk[1] || (pk[1] == qk[1] && pk[2] <= qk[2])))) {
			t.Fatalf("rows out of order at %d: %v then %v", i, pk, qk)
		}
	}

	// Reversed OutOrder flips the emission order.
	ctx2 := testCtx(t, twigDoc)
	j2 := buildTwig(t, preds, []string{"A", "B", "C"}, labels, nil, []string{"C", "B", "A"})
	rows2 := drain(t, ctx2, j2)
	if len(rows2) != len(rows) {
		t.Fatalf("order change altered row count: %d vs %d", len(rows2), len(rows))
	}
	for i := 1; i < len(rows2); i++ {
		if rows2[i-1][sc].In > rows2[i][sc].In {
			t.Fatalf("C-order broken at %d", i)
		}
	}
}

func TestTwigJoinResidualConds(t *testing.T) {
	labels := map[string]string{"A": "a", "B": "b", "C": "c"}
	preds := []tpm.StructuralPred{descPred("A", "B"), descPred("A", "C")}
	// Residual condition on the merged row: only b's after in 10.
	resid := []tpm.Cmp{tpm.Gt(tpm.AttrOp("B", tpm.ColIn), tpm.InOp(10))}
	ctx := testCtx(t, twigDoc)
	j := buildTwig(t, preds, []string{"A", "B", "C"}, labels, resid, []string{"A", "B", "C"})
	rows := drain(t, ctx, j)
	sb := j.Schema().Slot("B")
	for _, r := range rows {
		if r[sb].In <= 10 {
			t.Errorf("residual filter leaked row with B.in=%d", r[sb].In)
		}
	}
	ctxAll := testCtx(t, twigDoc)
	all := drain(t, ctxAll, buildTwig(t, preds, []string{"A", "B", "C"}, labels, nil, []string{"A", "B", "C"}))
	kept := 0
	for _, r := range all {
		if r[sb].In > 10 {
			kept++
		}
	}
	if len(rows) != kept {
		t.Errorf("residual filter dropped too much: %d vs %d", len(rows), kept)
	}
}

func TestTwigJoinEmptyBranchYieldsNothing(t *testing.T) {
	// One branch's label does not exist: the twig has no match and the
	// other streams must not be drained tuple by tuple for nothing.
	labels := map[string]string{"A": "a", "B": "b", "Z": "nosuch"}
	preds := []tpm.StructuralPred{descPred("A", "B"), descPred("A", "Z")}
	ctx := testCtx(t, twigDoc)
	j := buildTwig(t, preds, []string{"A", "B", "Z"}, labels, nil, []string{"A", "B", "Z"})
	if rows := drain(t, ctx, j); len(rows) != 0 {
		t.Fatalf("expected no matches, got %d", len(rows))
	}
	if ctx.Counters.TwigPathSolutions != 0 {
		t.Errorf("buffered %d path solutions for an empty twig", ctx.Counters.TwigPathSolutions)
	}
}

func TestTwigJoinStackStats(t *testing.T) {
	labels := map[string]string{"A": "a", "B": "b"}
	preds := []tpm.StructuralPred{descPred("A", "B")}
	ctx := testCtx(t, twigDoc)
	j := buildTwig(t, preds, []string{"A", "B"}, labels, nil, []string{"A", "B"})
	rows := drain(t, ctx, j)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// twigDoc nests a inside a: the A stack must have reached depth 2.
	if ctx.Stats(j).StackMax != 2 {
		t.Errorf("stack high-water = %d, want 2", ctx.Stats(j).StackMax)
	}
	if ctx.Counters.StructStackMax != 2 {
		t.Errorf("counter stack max = %d", ctx.Counters.StructStackMax)
	}
	if ctx.Counters.TwigPathSolutions == 0 {
		t.Error("no path solutions counted")
	}
	if ctx.Stats(j).Opens != 1 || ctx.Stats(j).Rows != int64(len(rows)) {
		t.Errorf("op stats: %+v", ctx.Stats(j))
	}
}

func TestExplainNodeKaryGlyphs(t *testing.T) {
	// A 4-node twig renders all its streams with branch glyphs: every
	// stream beyond the first gets a rail or corner, the last a corner.
	labels := map[string]string{"R": "r", "A": "a", "B": "b", "C": "c"}
	preds := []tpm.StructuralPred{descPred("R", "A"), descPred("R", "B"), descPred("R", "C")}
	tw, ok := tpm.AssembleTwig(preds, []string{"R", "A", "B", "C"})
	if !ok {
		t.Fatal("assembly failed")
	}
	var streams []PlanNode
	for _, n := range tw.Nodes {
		streams = append(streams, labelScan(n.Alias, labels[n.Alias]))
	}
	j := NewTwigJoin(streams, *tw, nil, []string{"R", "A", "B", "C"})
	var b strings.Builder
	ExplainNode(&b, j, 1)
	out := b.String()
	if strings.Count(out, "├─ ") != 3 || strings.Count(out, "└─ ") != 1 {
		t.Errorf("k-ary glyphs wrong:\n%s", out)
	}
	for _, want := range []string{"twig-join", "scan R", "scan A", "scan B", "scan C"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	// Nested children under a non-last child keep the │ rail.
	inner := NewStructuralJoin(labelScan("X", "a"), labelScan("Y", "b"), descPred("X", "Y"), nil)
	var b2 strings.Builder
	ExplainNode(&b2, inner, 0)
	if strings.Count(b2.String(), "├─ ") != 1 || strings.Count(b2.String(), "└─ ") != 1 {
		t.Errorf("binary glyphs wrong:\n%s", b2.String())
	}
}

// TestTwigJoinAsJoinInput wires a TwigJoin as the leading input stream of
// the binary join operators — the partial-twig composite shape — and
// cross-checks the result against a pure NL pipeline over the same
// predicates.
func TestTwigJoinAsJoinInput(t *testing.T) {
	labels := map[string]string{"A": "a", "B": "b", "C": "c"}
	preds := []tpm.StructuralPred{descPred("A", "B")}
	full := []tpm.StructuralPred{descPred("A", "B"), descPred("A", "C")}
	want := nlReference(t, twigDoc, full, []string{"A", "B", "C"}, labels)

	// NL join on top: the uncovered relation joins by residual conditions.
	ctx := testCtx(t, twigDoc)
	twig := buildTwig(t, preds, []string{"A", "B"}, labels, nil, []string{"A", "B"})
	nl := NewNLJoin(twig, labelScan("C", "c"), descPred("A", "C").Conds)
	got := map[string]bool{}
	for _, r := range drain(t, ctx, nl) {
		got[twigKey(r, nl.Schema(), []string{"A", "B", "C"})] = true
	}
	if len(got) != len(want) {
		t.Fatalf("twig-under-NL: %d matches, NL pipeline %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing match %x", k)
		}
	}
	if ctx.Counters.RowsTwig == 0 || ctx.Counters.RowsJoined == 0 {
		t.Errorf("counters: twig rows and joined rows must both tally: %+v", ctx.Counters)
	}

	// INL join on top: the inner access is parameterized by a twig alias
	// (the vartuple-prefix contract lets bounds reference any slot).
	ctx2 := testCtx(t, twigDoc)
	twig2 := buildTwig(t, preds, []string{"A", "B"}, labels, nil, []string{"A", "B"})
	inner := NewScan("C", Access{
		Kind: AccessLabel, Type: xasr.TypeElem, Value: "c",
		Bounded: true, Lo: tpm.AttrOp("A", tpm.ColIn), LoAdd: 1, Hi: tpm.AttrOp("A", tpm.ColOut),
	}, nil)
	inl := NewINLJoin(twig2, inner, nil)
	got2 := map[string]bool{}
	for _, r := range drain(t, ctx2, inl) {
		got2[twigKey(r, inl.Schema(), []string{"A", "B", "C"})] = true
	}
	if len(got2) != len(want) {
		t.Fatalf("twig-under-INL: %d matches, NL pipeline %d", len(got2), len(want))
	}
}

// TestTwigJoinSubsetOutOrder checks the partial-twig emission contract: an
// OutOrder naming a strict subset of twig nodes sorts by exactly those
// in-labels, with ties grouped (adjacent), so a downstream dedup
// projection over that prefix stays correct.
func TestTwigJoinSubsetOutOrder(t *testing.T) {
	labels := map[string]string{"A": "a", "B": "b", "C": "c"}
	preds := []tpm.StructuralPred{descPred("A", "B"), descPred("A", "C")}
	ctx := testCtx(t, twigDoc)
	j := buildTwig(t, preds, []string{"A", "B", "C"}, labels, nil, []string{"A"})
	rows := drain(t, ctx, j)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	sa := j.Schema().Slot("A")
	seen := map[uint32]bool{}
	for i, r := range rows {
		in := r[sa].In
		if i > 0 && rows[i-1][sa].In != in && seen[in] {
			t.Fatalf("A.in=%d reappears after a different value: ties not grouped", in)
		}
		if i > 0 && rows[i-1][sa].In > in {
			t.Fatalf("A order broken at %d", i)
		}
		seen[in] = true
	}
}

// TestExplainAnalyzeTwigUnderJoin is the golden rendering test for a
// twig-under-INL composite plan: branch glyphs for the k-ary operator
// under the parent join's rail, per-stream actual rows, and the twig row
// count propagated through the parent join's tallies.
func TestExplainAnalyzeTwigUnderJoin(t *testing.T) {
	ctx := testCtx(t, twigDoc)
	labels := map[string]string{"A": "a", "B": "b"}
	twig := buildTwig(t, []tpm.StructuralPred{descPred("A", "B")}, []string{"A", "B"}, labels, nil, []string{"A", "B"})
	inner := NewScan("C", Access{
		Kind: AccessLabel, Type: xasr.TypeElem, Value: "c",
		Bounded: true, Lo: tpm.AttrOp("A", tpm.ColIn), LoAdd: 1, Hi: tpm.AttrOp("A", tpm.ColOut),
	}, nil)
	inl := NewINLJoin(twig, inner, nil)
	plan := &XRelFor{Vars: []string{"a", "b", "c"}, Root: inl, Body: XEmpty{}}
	if _, err := Run(ctx, plan); err != nil {
		t.Fatal(err)
	}
	got := ExplainAnalyze(plan, ctx)
	want := `relfor ($a, $b, $c)
  inl-join → scan C: label index (elem, "c") in ∈ [A.in+1, A.out)  (actual rows=4 opens=1 batches=1)
  ├─ twig-join A[//B] [holistic, 2 streams]  (actual rows=5 opens=1 batches=1 stack=2)
  │  ├─ scan A: label index (elem, "a")  (actual rows=4 opens=1 batches=1)
  │  └─ scan B: label index (elem, "b")  (actual rows=4 opens=1 batches=1)
  └─ scan C: label index (elem, "c") in ∈ [A.in+1, A.out)  (actual rows=4 opens=5 batches=3)
  return
    ()

counters: scanned=12 joined=4 structural=0 twig=5 emitted=0
          probes=5 rescans=0 sorted=0 spilled=0 stack-max=2 list-max=0 path-solutions=5
          spill-bytes=0 spill-runs=0 batches=7
`
	if got != want {
		t.Errorf("golden EXPLAIN ANALYZE mismatch:\n-- got --\n%s\n-- want --\n%s", got, want)
	}
}

func TestTwigJoinText(t *testing.T) {
	// A twig whose leaf stream is a type-filtered full scan (text nodes),
	// like a //a//b/text() pattern would produce.
	ctx := testCtx(t, twigDoc)
	preds := []tpm.StructuralPred{descPred("A", "B"), descPred("B", "T")}
	tw, ok := tpm.AssembleTwig(preds, []string{"A", "B", "T"})
	if !ok {
		t.Fatal("assembly failed")
	}
	var streams []PlanNode
	for _, n := range tw.Nodes {
		if n.Alias == "T" {
			streams = append(streams, NewScan("T", Access{Kind: AccessFull},
				[]tpm.Cmp{tpm.Eq(tpm.AttrOp("T", tpm.ColType), tpm.TypeOp(xasr.TypeText))}))
			continue
		}
		streams = append(streams, labelScan(n.Alias, map[string]string{"A": "a", "B": "b"}[n.Alias]))
	}
	j := NewTwigJoin(streams, *tw, nil, []string{"A", "B", "T"})
	rows := drain(t, ctx, j)
	// Every b under an a has exactly one text child: matches = a//b pairs.
	wantPairs := nlReference(t, twigDoc, []tpm.StructuralPred{descPred("A", "B")}, []string{"A", "B"},
		map[string]string{"A": "a", "B": "b"})
	if len(rows) != len(wantPairs) {
		t.Errorf("text-leaf twig: %d rows, want %d", len(rows), len(wantPairs))
	}
	st := j.Schema().Slot("T")
	for _, r := range rows {
		if r[st].Type != xasr.TypeText {
			t.Errorf("non-text leaf slot: %+v", r[st])
		}
	}
}
