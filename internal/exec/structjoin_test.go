package exec

import (
	"testing"

	"xqdb/internal/tpm"
	"xqdb/internal/xasr"
)

func descPred(anc, desc string) tpm.StructuralPred {
	return tpm.StructuralPred{
		Axis: tpm.AxisDescendant, Anc: anc, Desc: desc,
		Conds: []tpm.Cmp{
			tpm.Gt(tpm.AttrOp(desc, tpm.ColIn), tpm.AttrOp(anc, tpm.ColIn)),
			tpm.Lt(tpm.AttrOp(desc, tpm.ColOut), tpm.AttrOp(anc, tpm.ColOut)),
		},
	}
}

func childPred(anc, desc string) tpm.StructuralPred {
	return tpm.StructuralPred{
		Axis: tpm.AxisChild, Anc: anc, Desc: desc,
		Conds: []tpm.Cmp{
			tpm.Eq(tpm.AttrOp(desc, tpm.ColParentIn), tpm.AttrOp(anc, tpm.ColIn)),
		},
	}
}

func TestStructuralJoinDescendantRight(t *testing.T) {
	ctx := testCtx(t, figure2)
	// Ancestor stream on the left, descendant stream on the right: the
	// output follows the descendant's document order.
	j := labelScan("J", "journal")
	n := labelScan("N", "name")
	join := NewStructuralJoin(j, n, descPred("J", "N"), nil)
	rows := drain(t, ctx, join)
	if len(rows) != 2 {
		t.Fatalf("join rows: %d, want 2", len(rows))
	}
	// Slot order is (left, right) = (J, N); order is by N.in.
	if rows[0][1].In != 4 || rows[1][1].In != 8 {
		t.Errorf("descendant order broken: %v", rows)
	}
	if rows[0][0].Value != "journal" {
		t.Errorf("ancestor slot wrong: %v", rows[0])
	}
	if ctx.Counters.RowsStructural != 2 {
		t.Errorf("RowsStructural = %d, want 2", ctx.Counters.RowsStructural)
	}
	if ctx.Counters.RowsJoined != 0 {
		t.Errorf("RowsJoined = %d, want 0 (no loop join ran)", ctx.Counters.RowsJoined)
	}
	if join.Stats().Rows != 2 || join.Stats().StackMax != 1 {
		t.Errorf("op stats: %+v", join.Stats())
	}
}

func TestStructuralJoinAncestorRight(t *testing.T) {
	ctx := testCtx(t, figure2)
	// Descendant stream on the left: output preserves the left order —
	// the planner's order-preserving case.
	n := labelScan("N", "name")
	j := labelScan("J", "journal")
	join := NewStructuralJoin(n, j, descPred("J", "N"), nil)
	rows := drain(t, ctx, join)
	if len(rows) != 2 {
		t.Fatalf("join rows: %d, want 2", len(rows))
	}
	// Slot order is (N, J); order is by N.in.
	if rows[0][0].In != 4 || rows[1][0].In != 8 {
		t.Errorf("left order not preserved: %v", rows)
	}
	if rows[0][1].Value != "journal" {
		t.Errorf("ancestor slot wrong: %v", rows[0])
	}
}

func TestStructuralJoinChildAxis(t *testing.T) {
	ctx := testCtx(t, figure2)
	// authors (in=3) is the parent of the two name elements; journal is
	// an ancestor but not the parent, so the child axis must skip it.
	a := labelScan("A", "authors")
	n := labelScan("N", "name")
	join := NewStructuralJoin(a, n, childPred("A", "N"), nil)
	rows := drain(t, ctx, join)
	if len(rows) != 2 {
		t.Fatalf("child join rows: %d, want 2", len(rows))
	}
	if rows[0][0].Value != "authors" || rows[0][1].In != 4 || rows[1][1].In != 8 {
		t.Errorf("child pairs wrong: %v", rows)
	}

	// The same join against journal parents yields nothing (names are
	// grandchildren of journal).
	ctx2 := testCtx(t, figure2)
	join2 := NewStructuralJoin(labelScan("J", "journal"), labelScan("N", "name"), childPred("J", "N"), nil)
	if rows := drain(t, ctx2, join2); len(rows) != 0 {
		t.Errorf("grandchildren matched on the child axis: %v", rows)
	}
}

// nestedDoc has nested same-label ancestors so the stack grows beyond one
// entry: a1 contains a2; a1 has descendants b1, b2; a2 has descendant b1.
const nestedDoc = `<r><a><a><b/></a><b/></a><b/></r>`

func TestStructuralJoinNestedAncestors(t *testing.T) {
	ctx := testCtx(t, nestedDoc)
	a := labelScan("A", "a")
	b := labelScan("B", "b")
	join := NewStructuralJoin(a, b, descPred("A", "B"), nil)
	rows := drain(t, ctx, join)
	// Pairs: (a1,b1), (a2,b1), (a1,b2) — b3 is outside both a's.
	if len(rows) != 3 {
		t.Fatalf("nested join rows: %d, want 3", len(rows))
	}
	// Descendant order with ancestors bottom-up (outermost first).
	if !(rows[0][0].In < rows[1][0].In && rows[0][1].In == rows[1][1].In) {
		t.Errorf("stack emission order wrong: %v", rows)
	}
	if join.Stats().StackMax != 2 {
		t.Errorf("stack high-water mark = %d, want 2", join.Stats().StackMax)
	}
	if ctx.Counters.StructStackMax != 2 {
		t.Errorf("counter stack max = %d, want 2", ctx.Counters.StructStackMax)
	}
}

func TestStructuralJoinMatchesNLJoin(t *testing.T) {
	// On every (anc, desc) label pairing of the nested document the merge
	// must produce exactly the nested-loops pairs (as a set; the merge
	// emits in descendant order, NL in ancestor order).
	for _, labels := range [][2]string{{"a", "b"}, {"a", "a"}, {"r", "b"}, {"b", "a"}} {
		ctxNL := testCtx(t, nestedDoc)
		conds := descPred("X", "Y").Conds
		nl := NewNLJoin(labelScan("X", labels[0]), labelScan("Y", labels[1]), conds)
		want := map[[2]uint32]bool{}
		for _, r := range drain(t, ctxNL, nl) {
			want[[2]uint32{r[0].In, r[1].In}] = true
		}

		ctxSJ := testCtx(t, nestedDoc)
		sj := NewStructuralJoin(labelScan("X", labels[0]), labelScan("Y", labels[1]), descPred("X", "Y"), nil)
		got := map[[2]uint32]bool{}
		rows := drain(t, ctxSJ, sj)
		for _, r := range rows {
			got[[2]uint32{r[0].In, r[1].In}] = true
		}
		if len(got) != len(want) || len(got) != len(rows) {
			t.Fatalf("%v: structural %d pairs (%d rows), NL %d pairs", labels, len(got), len(rows), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Errorf("%v: missing pair %v", labels, k)
			}
		}
	}
}

func TestStructuralJoinResidualConds(t *testing.T) {
	ctx := testCtx(t, figure2)
	// Residual condition on the emitted pair: only the second name.
	j := labelScan("J", "journal")
	n := labelScan("N", "name")
	resid := []tpm.Cmp{tpm.Gt(tpm.AttrOp("N", tpm.ColIn), tpm.InOp(5))}
	join := NewStructuralJoin(j, n, descPred("J", "N"), resid)
	rows := drain(t, ctx, join)
	if len(rows) != 1 || rows[0][1].In != 8 {
		t.Errorf("residual filter wrong: %v", rows)
	}
}

// ancJoin builds an anc-ordered structural join over two label scans.
func ancJoin(left, right PlanNode, pred tpm.StructuralPred, conds []tpm.Cmp) *StructuralJoin {
	j := NewStructuralJoin(left, right, pred, conds)
	j.AncOrder = true
	return j
}

func TestStructuralJoinAncOrder(t *testing.T) {
	ctx := testCtx(t, nestedDoc)
	// Ancestor stream on the left: Stack-Tree-Anc emits sorted by the
	// ancestor's document order, descendants in document order within.
	a := labelScan("A", "a")
	b := labelScan("B", "b")
	join := ancJoin(a, b, descPred("A", "B"), nil)
	rows := drain(t, ctx, join)
	// Pairs in ancestor order: (a1,b1), (a1,b2), (a2,b1).
	if len(rows) != 3 {
		t.Fatalf("anc join rows: %d, want 3", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		prev, cur := rows[i-1], rows[i]
		if prev[0].In > cur[0].In ||
			(prev[0].In == cur[0].In && prev[1].In > cur[1].In) {
			t.Fatalf("ancestor order broken at %d: %v", i, rows)
		}
	}
	if ctx.Counters.RowsStructural != 3 {
		t.Errorf("RowsStructural = %d, want 3", ctx.Counters.RowsStructural)
	}
	// (a2,b1) buffers in a2's self list until a1 closes.
	if join.Stats().ListMax != 1 || ctx.Counters.StructListMax != 1 {
		t.Errorf("list high-water: op=%d counter=%d, want 1", join.Stats().ListMax, ctx.Counters.StructListMax)
	}
	if join.Stats().StackMax != 2 {
		t.Errorf("stack high-water: %d, want 2", join.Stats().StackMax)
	}
}

func TestStructuralJoinAncMatchesDescEmission(t *testing.T) {
	// On every label pairing of the nested document (and with the
	// ancestor on either input side) the anc-ordered merge must produce
	// exactly the desc-ordered pairs, reordered by ancestor.
	for _, labels := range [][2]string{{"a", "b"}, {"a", "a"}, {"r", "b"}, {"r", "a"}, {"b", "a"}} {
		for _, ancLeft := range []bool{true, false} {
			mk := func(anc bool) *StructuralJoin {
				x, y := labelScan("X", labels[0]), labelScan("Y", labels[1])
				var j *StructuralJoin
				if ancLeft {
					j = NewStructuralJoin(x, y, descPred("X", "Y"), nil)
				} else {
					j = NewStructuralJoin(y, x, descPred("X", "Y"), nil)
				}
				j.AncOrder = anc
				return j
			}
			ctxD := testCtx(t, nestedDoc)
			want := map[[2]uint32]bool{}
			dj := mk(false)
			xs, ys := dj.Schema().Slot("X"), dj.Schema().Slot("Y")
			for _, r := range drain(t, ctxD, dj) {
				want[[2]uint32{r[xs].In, r[ys].In}] = true
			}
			ctxA := testCtx(t, nestedDoc)
			aj := mk(true)
			rows := drain(t, ctxA, aj)
			got := map[[2]uint32]bool{}
			var lastX, lastY uint32
			for _, r := range rows {
				x, y := r[xs].In, r[ys].In
				got[[2]uint32{x, y}] = true
				if x < lastX || (x == lastX && y < lastY) {
					t.Fatalf("%v ancLeft=%v: ancestor order broken: %v", labels, ancLeft, rows)
				}
				lastX, lastY = x, y
			}
			if len(got) != len(want) || len(got) != len(rows) {
				t.Fatalf("%v ancLeft=%v: anc %d pairs (%d rows), desc %d", labels, ancLeft, len(got), len(rows), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Errorf("%v ancLeft=%v: missing pair %v", labels, ancLeft, k)
				}
			}
		}
	}
}

func TestStructuralJoinAncChildAxis(t *testing.T) {
	ctx := testCtx(t, figure2)
	join := ancJoin(labelScan("A", "authors"), labelScan("N", "name"), childPred("A", "N"), nil)
	rows := drain(t, ctx, join)
	if len(rows) != 2 || rows[0][1].In != 4 || rows[1][1].In != 8 {
		t.Fatalf("anc child pairs wrong: %v", rows)
	}
	ctx2 := testCtx(t, figure2)
	join2 := ancJoin(labelScan("J", "journal"), labelScan("N", "name"), childPred("J", "N"), nil)
	if rows := drain(t, ctx2, join2); len(rows) != 0 {
		t.Errorf("grandchildren matched on the child axis: %v", rows)
	}
}

func TestStructuralJoinAncResidualConds(t *testing.T) {
	ctx := testCtx(t, figure2)
	resid := []tpm.Cmp{tpm.Gt(tpm.AttrOp("N", tpm.ColIn), tpm.InOp(5))}
	join := ancJoin(labelScan("J", "journal"), labelScan("N", "name"), descPred("J", "N"), resid)
	rows := drain(t, ctx, join)
	if len(rows) != 1 || rows[0][1].In != 8 {
		t.Errorf("residual filter wrong: %v", rows)
	}
}

// TestExplainAnalyzeAncStructuralJoin is the golden rendering test for an
// anc-ordered structural merge join: the emission-order marker on the
// operator line, the output-list high-water next to the stack mark, and
// the query-wide list-max counter — all byte-exact.
func TestExplainAnalyzeAncStructuralJoin(t *testing.T) {
	ctx := testCtx(t, nestedDoc)
	join := ancJoin(labelScan("A", "a"), labelScan("B", "b"), descPred("A", "B"), nil)
	plan := &XRelFor{Vars: []string{"a", "b"}, Root: join, Body: XEmpty{}}
	if _, err := Run(ctx, plan); err != nil {
		t.Fatal(err)
	}
	got := ExplainAnalyze(plan, ctx.Counters)
	want := `relfor ($a, $b)
  structural-join A//B [stack merge, descendant axis, anc-ordered]  (actual rows=3 opens=1 batches=1 stack=2 list=1)
  ├─ scan A: label index (elem, "a")  (actual rows=2 opens=1 batches=1)
  └─ scan B: label index (elem, "b")  (actual rows=3 opens=1 batches=1)
  return
    ()

counters: scanned=5 joined=0 structural=3 twig=0 emitted=0
          probes=0 rescans=0 sorted=0 spilled=0 stack-max=2 list-max=1 path-solutions=0
          spill-bytes=0 spill-runs=0 batches=3
`
	if got != want {
		t.Errorf("golden EXPLAIN ANALYZE mismatch:\n-- got --\n%s\n-- want --\n%s", got, want)
	}
}

// TestExplainAnalyzeBatchedStructuralJoin is the golden rendering test
// for the batch-at-a-time fields: batches= on every operator that produced
// rows (the merge join and its scans), sel= — residual-predicate
// selectivity — on a filtering scan, and the query-wide batch counter.
func TestExplainAnalyzeBatchedStructuralJoin(t *testing.T) {
	ctx := testCtx(t, nestedDoc)
	filtered := NewScan("B", Access{Kind: AccessLabel, Type: xasr.TypeElem, Value: "b"},
		[]tpm.Cmp{tpm.Gt(tpm.AttrOp("B", tpm.ColIn), tpm.InOp(5))})
	join := NewStructuralJoin(labelScan("A", "a"), filtered, descPred("A", "B"), nil)
	plan := &XRelFor{Vars: []string{"a", "b"}, Root: join, Body: XEmpty{}}
	if _, err := Run(ctx, plan); err != nil {
		t.Fatal(err)
	}
	got := ExplainAnalyze(plan, ctx.Counters)
	want := `relfor ($a, $b)
  structural-join A//B [stack merge, descendant axis]  (actual rows=1 opens=1 batches=1 stack=2)
  ├─ scan A: label index (elem, "a")  (actual rows=2 opens=1 batches=1)
  └─ scan B: label index (elem, "b") σ(B.in > 5)  (actual rows=2 opens=1 batches=1 sel=0.67)
  return
    ()

counters: scanned=5 joined=0 structural=1 twig=0 emitted=0
          probes=0 rescans=0 sorted=0 spilled=0 stack-max=2 list-max=0 path-solutions=0
          spill-bytes=0 spill-runs=0 batches=3
`
	if got != want {
		t.Errorf("golden EXPLAIN ANALYZE mismatch:\n-- got --\n%s\n-- want --\n%s", got, want)
	}
}

func TestStructuralJoinOverFullScans(t *testing.T) {
	// The merge also runs over primary-tree streams (no label index), as
	// the text()-valued descendant side of a query would.
	ctx := testCtx(t, figure2)
	j := labelScan("J", "journal")
	all := NewScan("D", Access{Kind: AccessFull},
		[]tpm.Cmp{tpm.Eq(tpm.AttrOp("D", tpm.ColType), tpm.TypeOp(xasr.TypeText))})
	join := NewStructuralJoin(j, all, descPred("J", "D"), nil)
	rows := drain(t, ctx, join)
	if len(rows) != 3 {
		t.Errorf("text descendants of journal: %d rows, want 3", len(rows))
	}
}
