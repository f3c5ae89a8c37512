package exec

import (
	"strings"
	"testing"

	"xqdb/internal/store"
	"xqdb/internal/tpm"
	"xqdb/internal/xasr"
)

const figure2 = `<journal><authors><name>Ana</name><name>Bob</name></authors><title>DB</title></journal>`

func testCtx(t testing.TB, doc string) *Ctx {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{LabelStride: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.LoadString(doc); err != nil {
		t.Fatal(err)
	}
	tmp, err := st.TempDir()
	if err != nil {
		t.Fatal(err)
	}
	return &Ctx{Store: st, TempDir: tmp, Env: Env{}}
}

// drain pulls a plan to exhaustion, copying rows out (batch contents are
// only valid until the next NextBatch call).
func drain(t *testing.T, ctx *Ctx, n PlanNode) []Row {
	t.Helper()
	it, err := n.open(ctx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var rows []Row
	var b Batch
	for {
		k, err := it.NextBatch(&b)
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			return rows
		}
		if b.Len() != k {
			t.Fatalf("NextBatch returned %d but Len() is %d", k, b.Len())
		}
		if max := ctx.batchCap(); k > max {
			t.Fatalf("NextBatch returned %d rows at capacity %d", k, max)
		}
		for i := 0; i < k; i++ {
			rows = append(rows, append(Row(nil), b.row(i, nil)...))
		}
	}
}

func labelScan(alias, label string) *Scan {
	return NewScan(alias, Access{Kind: AccessLabel, Type: xasr.TypeElem, Value: label}, nil)
}

func TestScanAccessPaths(t *testing.T) {
	ctx := testCtx(t, figure2)

	full := NewScan("R", Access{Kind: AccessFull}, nil)
	if got := len(drain(t, ctx, full)); got != 9 {
		t.Errorf("full scan: %d rows, want 9", got)
	}

	lbl := labelScan("N", "name")
	rows := drain(t, ctx, lbl)
	if len(rows) != 2 || rows[0][0].In != 4 || rows[1][0].In != 8 {
		t.Errorf("label scan rows: %v", rows)
	}

	par := NewScan("C", Access{Kind: AccessParent, Parent: tpm.InOp(3)}, nil)
	rows = drain(t, ctx, par)
	if len(rows) != 2 || rows[0][0].Value != "name" {
		t.Errorf("parent scan rows: %v", rows)
	}

	rng := NewScan("R", Access{Kind: AccessRange, Bounded: true,
		Lo: tpm.InOp(2), LoAdd: 1, Hi: tpm.InOp(17)}, nil)
	if got := len(drain(t, ctx, rng)); got != 7 {
		t.Errorf("range scan (descendants of journal): %d rows, want 7", got)
	}

	// Filter conditions applied at the scan.
	filt := NewScan("R", Access{Kind: AccessFull},
		[]tpm.Cmp{tpm.Eq(tpm.AttrOp("R", tpm.ColType), tpm.TypeOp(xasr.TypeText))})
	if got := len(drain(t, ctx, filt)); got != 3 {
		t.Errorf("filtered scan: %d rows, want 3", got)
	}
}

func TestNLJoinOrderPreserving(t *testing.T) {
	ctx := testCtx(t, figure2)
	// journal × name with a descendant condition.
	j := labelScan("J", "journal")
	n := labelScan("N", "name")
	join := NewNLJoin(j, n, []tpm.Cmp{
		tpm.Gt(tpm.AttrOp("N", tpm.ColIn), tpm.AttrOp("J", tpm.ColIn)),
		tpm.Lt(tpm.AttrOp("N", tpm.ColOut), tpm.AttrOp("J", tpm.ColOut)),
	})
	rows := drain(t, ctx, join)
	if len(rows) != 2 {
		t.Fatalf("join rows: %d", len(rows))
	}
	if rows[0][1].In != 4 || rows[1][1].In != 8 {
		t.Errorf("join order broken: %v", rows)
	}
	if ctx.Counters.InnerRescans == 0 {
		t.Error("no inner rescans counted")
	}
}

func TestINLJoinDescendant(t *testing.T) {
	ctx := testCtx(t, figure2)
	j := labelScan("J", "journal")
	inner := NewScan("N", Access{
		Kind: AccessLabel, Type: xasr.TypeElem, Value: "name",
		Bounded: true, Lo: tpm.AttrOp("J", tpm.ColIn), LoAdd: 1, Hi: tpm.AttrOp("J", tpm.ColOut),
	}, nil)
	join := NewINLJoin(j, inner, nil)
	rows := drain(t, ctx, join)
	if len(rows) != 2 || rows[0][1].In != 4 {
		t.Errorf("INL rows: %v", rows)
	}
	if ctx.Counters.IndexProbes != 1 {
		t.Errorf("probes: %d, want 1", ctx.Counters.IndexProbes)
	}
}

func TestBNLJoinFindsAllPairs(t *testing.T) {
	ctx := testCtx(t, figure2)
	a := labelScan("A", "name")
	b := labelScan("B", "name")
	join := NewBNLJoin(a, b, nil, 1) // block of 1 exercises refilling
	rows := drain(t, ctx, join)
	if len(rows) != 4 {
		t.Errorf("BNL cross join: %d rows, want 4", len(rows))
	}
}

func TestProjectDedup(t *testing.T) {
	ctx := testCtx(t, figure2)
	// journal × text-descendants yields 3 rows with the same journal;
	// projecting to J with dedup leaves one.
	j := labelScan("J", "journal")
	txt := NewScan("T", Access{Kind: AccessRange, Bounded: true,
		Lo: tpm.AttrOp("J", tpm.ColIn), LoAdd: 1, Hi: tpm.AttrOp("J", tpm.ColOut)},
		[]tpm.Cmp{tpm.Eq(tpm.AttrOp("T", tpm.ColType), tpm.TypeOp(xasr.TypeText))})
	join := NewINLJoin(j, txt, nil)
	proj := NewProject(join, []string{"J"}, true)
	rows := drain(t, ctx, proj)
	if len(rows) != 1 || rows[0][0].In != 2 {
		t.Errorf("dedup projection: %v", rows)
	}
}

func TestSortRestoresOrder(t *testing.T) {
	ctx := testCtx(t, figure2)
	// name × name unordered via BNL, then sort by (A, B).
	a := labelScan("A", "name")
	b := labelScan("B", "name")
	join := NewBNLJoin(a, b, nil, 1)
	sorted := NewSort(join, []string{"A", "B"}, false)
	rows := drain(t, ctx, sorted)
	if len(rows) != 4 {
		t.Fatalf("rows: %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		prev, cur := rows[i-1], rows[i]
		if prev[0].In > cur[0].In || (prev[0].In == cur[0].In && prev[1].In > cur[1].In) {
			t.Errorf("sort order broken at %d: %v then %v", i, prev, cur)
		}
	}
	// With dedup, the pairs stay distinct (all 4 unique).
	sorted = NewSort(NewBNLJoin(labelScan("A", "name"), labelScan("B", "name"), nil, 1),
		[]string{"A", "B"}, true)
	if got := len(drain(t, ctx, sorted)); got != 4 {
		t.Errorf("sort dedup dropped distinct rows: %d", got)
	}
}

func TestRunXPlanConstruction(t *testing.T) {
	ctx := testCtx(t, figure2)
	// relfor ($n) in label-scan(name) return <x>{emit $n}</x>
	plan := &XConstr{Label: "out", Body: &XRelFor{
		Vars: []string{"n"},
		Root: NewProject(labelScan("N", "name"), []string{"N"}, true),
		Body: &XEmit{Var: "n"},
	}}
	out, err := Run(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	want := `<out><name>Ana</name><name>Bob</name></out>`
	if string(out) != want {
		t.Errorf("got %s want %s", out, want)
	}
}

func TestNullaryRelForEarlyOut(t *testing.T) {
	ctx := testCtx(t, figure2)
	// Nullary relfor over names: body runs once despite two matches.
	plan := &XRelFor{
		Vars: nil,
		Root: labelScan("N", "name"),
		Body: &XText{Content: "yes"},
	}
	out, err := Run(ctx, plan)
	if err != nil || string(out) != "yes" {
		t.Errorf("nullary: %q %v", out, err)
	}
	// Empty algebra result: body never runs.
	plan.Root = labelScan("Z", "nosuch")
	out, err = Run(ctx, plan)
	if err != nil || len(out) != 0 {
		t.Errorf("nullary empty: %q %v", out, err)
	}
}

func TestSpoolSpillsToDisk(t *testing.T) {
	// A tiny budget forces the spool to disk and back.
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 500; i++ {
		b.WriteString("<x>v</x>")
	}
	b.WriteString("</r>")
	ctx := testCtx(t, b.String())
	ctx.SortBudget = 1024

	a := labelScan("A", "x")
	c := labelScan("B", "x")
	join := NewNLJoin(a, c, []tpm.Cmp{tpm.Eq(tpm.AttrOp("A", tpm.ColIn), tpm.AttrOp("B", tpm.ColIn))})
	rows := drain(t, ctx, join)
	if len(rows) != 500 {
		t.Errorf("self join rows: %d, want 500", len(rows))
	}
	if ctx.Counters.SpilledTuples == 0 {
		t.Error("spool never spilled despite tiny budget")
	}
}

// TestUnknownAttributeFailsAtOpen builds operators whose conditions name a
// relation outside their schema: building compiles the conditions, and
// the failure surfaces as an error from open, never as a panic.
func TestUnknownAttributeFailsAtOpen(t *testing.T) {
	ctx := testCtx(t, figure2)
	bad := []tpm.Cmp{tpm.Eq(tpm.AttrOp("Z", tpm.ColIn), tpm.AttrOp("A", tpm.ColIn))}
	for _, n := range []PlanNode{
		NewScan("A", Access{Kind: AccessFull}, bad),
		NewNLJoin(labelScan("A", "name"), labelScan("B", "title"), bad),
		NewINLJoin(labelScan("A", "name"), labelScan("B", "title"), bad),
		NewStructuralJoin(labelScan("A", "journal"), labelScan("B", "name"), descPred("A", "B"), bad),
	} {
		if it, err := n.open(ctx, nil, nil); err == nil || !strings.Contains(err.Error(), "not in schema") {
			if it != nil {
				it.Close()
			}
			t.Errorf("%s: open returned %v, want an unknown-attribute error", n.Describe(), err)
		}
	}
}

// TestConstructorOutput pins XConstr's bytes: the body runs onto the
// output buffer itself, and an open tag whose body wrote nothing becomes
// <label/>.
func TestConstructorOutput(t *testing.T) {
	ctx := testCtx(t, figure2)
	names := func(v string, body XPlan) XPlan {
		return &XRelFor{Vars: []string{v}, Root: NewProject(labelScan("N", "name"), []string{"N"}, true), Body: body}
	}
	none := func(body XPlan) XPlan {
		return &XRelFor{Vars: []string{"z"}, Root: NewProject(labelScan("Z", "nosuch"), []string{"Z"}, true), Body: body}
	}
	for _, tc := range []struct {
		name string
		plan XPlan
		want string
	}{
		{"empty body", &XConstr{Label: "a", Body: XEmpty{}}, `<a/>`},
		{"empty text body", &XConstr{Label: "a", Body: &XText{}}, `<a/>`},
		{"text body", &XConstr{Label: "a", Body: &XText{Content: "x<y"}}, `<a>x&lt;y</a>`},
		{"nested empty", &XConstr{Label: "a", Body: &XConstr{Label: "b", Body: XEmpty{}}}, `<a><b/></a>`},
		{"nested non-empty", &XConstr{Label: "a", Body: &XConstr{Label: "b", Body: &XText{Content: "t"}}}, `<a><b>t</b></a>`},
		{"after output", &XSeq{Items: []XPlan{&XText{Content: "p"}, &XConstr{Label: "a", Body: XEmpty{}}, &XConstr{Label: "b", Body: &XText{Content: "q"}}}}, `p<a/><b>q</b>`},
		{"mixed sequence", &XConstr{Label: "a", Body: &XSeq{Items: []XPlan{&XConstr{Label: "b", Body: XEmpty{}}, &XText{Content: "t"}, &XConstr{Label: "c", Body: XEmpty{}}}}}, `<a><b/>t<c/></a>`},
		{"around empty relfor", &XConstr{Label: "a", Body: none(&XEmit{Var: "z"})}, `<a/>`},
		{"nested around empty relfor", &XConstr{Label: "a", Body: &XConstr{Label: "b", Body: none(&XEmit{Var: "z"})}}, `<a><b/></a>`},
		{"inside relfor", names("n", &XConstr{Label: "x", Body: &XEmit{Var: "n"}}), `<x><name>Ana</name></x><x><name>Bob</name></x>`},
		{"empty inside relfor", names("n", &XConstr{Label: "x", Body: XEmpty{}}), `<x/><x/>`},
		{"empty relfor inside relfor", names("n", &XConstr{Label: "x", Body: none(&XEmit{Var: "z"})}), `<x/><x/>`},
	} {
		out, err := Run(ctx, tc.plan)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if string(out) != tc.want {
			t.Errorf("%s: got %s, want %s", tc.name, out, tc.want)
		}
	}
}
