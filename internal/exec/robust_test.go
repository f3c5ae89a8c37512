package exec

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"xqdb/internal/fault"
	"xqdb/internal/limit"
	"xqdb/internal/store"
	"xqdb/internal/tpm"
	"xqdb/internal/xmlgen"
)

// bigTwigDoc builds a flat document with n <a><b>i</b><c>i</c></a> entries:
// enough (A,B,C) twig matches that the path-solution lists overflow a tiny
// sort budget and spill.
func bigTwigDoc(n int) string {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<a><b>b%06d</b><c>c%06d</c></a>", i, i)
	}
	b.WriteString("</r>")
	return b.String()
}

// nestedDoc builds depth self-nested <a> elements, each level carrying
// width <b> leaves: the (A anc, B desc) pair count grows as depth×width,
// and the nesting keeps non-bottom anc output lists populated.
func deepNestedDoc(depth, width int) string {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < depth; i++ {
		b.WriteString("<a>")
		for j := 0; j < width; j++ {
			fmt.Fprintf(&b, "<b>x%03d</b>", j)
		}
	}
	for i := 0; i < depth; i++ {
		b.WriteString("</a>")
	}
	b.WriteString("</r>")
	return b.String()
}

// tinyCtx is testCtx with a spill-forcing sort budget and a per-query
// memory quota.
func tinyCtx(t *testing.T, doc string, budget int, dl *limit.Deadline) *Ctx {
	t.Helper()
	ctx := testCtx(t, doc)
	ctx.SortBudget = budget
	ctx.Budget = limit.NewBudget(budget, dl)
	return ctx
}

func tempFileCount(t *testing.T, ctx *Ctx) int {
	t.Helper()
	ents, err := os.ReadDir(ctx.TempDir)
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestTwigJoinEarlyCloseCleansUp closes a spilling twig join mid-stream —
// after the first row, while solution buffers, the accumulator and the
// output sorter all hold run files — and asserts every temp file is
// removed and every budget reservation released.
func TestTwigJoinEarlyCloseCleansUp(t *testing.T) {
	labels := map[string]string{"A": "a", "B": "b", "C": "c"}
	preds := []tpm.StructuralPred{descPred("A", "B"), descPred("A", "C")}
	rels := []string{"A", "B", "C"}
	ctx := tinyCtx(t, bigTwigDoc(1500), 4<<10, nil)

	j := buildTwig(t, preds, rels, labels, nil, rels)
	it, err := j.open(ctx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b Batch
	if n, err := it.NextBatch(&b); err != nil || n == 0 {
		t.Fatalf("first batch: n=%d err=%v", n, err)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("early close: %v", err)
	}
	if ctx.Counters.SpilledBytes == 0 {
		t.Fatal("twig never spilled — early close not exercised on the spill path")
	}
	if n := tempFileCount(t, ctx); n != 0 {
		t.Errorf("early close leaked %d temp files", n)
	}
	if u := ctx.Budget.InUse(); u != 0 {
		t.Errorf("early close leaked %d budget bytes", u)
	}
}

// TestStructAncEarlyCloseCleansUp does the same for the anc-ordered
// structural join: close while spilled list segments are still queued.
func TestStructAncEarlyCloseCleansUp(t *testing.T) {
	ctx := tinyCtx(t, deepNestedDoc(60, 40), 4<<10, nil)
	join := NewStructuralJoin(labelScan("A", "a"), labelScan("B", "b"), descPred("A", "B"), nil)
	join.AncOrder = true
	it, err := join.open(ctx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Drain until the lists have spilled (bottom pairs stream out one per
	// descendant, so plenty of the join remains), then close mid-stream.
	b := Batch{limit: 1}
	rows := 0
	for ctx.Counters.SpilledTuples == 0 && rows < 500 {
		n, err := it.NextBatch(&b)
		if err != nil || n == 0 {
			t.Fatalf("row %d: n=%d err=%v", rows, n, err)
		}
		rows++
	}
	if err := it.Close(); err != nil {
		t.Fatalf("early close: %v", err)
	}
	if ctx.Counters.SpilledTuples == 0 {
		t.Fatal("anc lists never spilled — early close not exercised on the spill path")
	}
	if n := tempFileCount(t, ctx); n != 0 {
		t.Errorf("early close leaked %d temp files", n)
	}
	if u := ctx.Budget.InUse(); u != 0 {
		t.Errorf("early close leaked %d budget bytes", u)
	}
}

// TestTwigJoinDeadlineAborts is the pathological-twig regression: a twig
// whose merge phase is far larger than its deadline must abort with the
// timeout error promptly (the getNext/merge loops poll the deadline, so
// the abort latency is bounded by one merge step, not by the join size) —
// and must clean up its temp files and reservations on Close.
func TestTwigJoinDeadlineAborts(t *testing.T) {
	labels := map[string]string{"A": "a", "B": "b", "C": "c"}
	preds := []tpm.StructuralPred{descPred("A", "B"), descPred("A", "C")}
	rels := []string{"A", "B", "C"}
	ctx := tinyCtx(t, bigTwigDoc(3000), 4<<10, limit.After(time.Millisecond))

	j := buildTwig(t, preds, rels, labels, nil, rels)
	it, err := j.open(ctx, nil, nil)
	if err == nil {
		start := time.Now()
		var b Batch
		for {
			n, nerr := it.NextBatch(&b)
			if nerr != nil {
				err = nerr
				break
			}
			if n == 0 {
				break
			}
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("deadline abort took %v — polling too coarse", elapsed)
		}
		if cerr := it.Close(); cerr != nil {
			t.Errorf("close after abort: %v", cerr)
		}
	}
	if !errors.Is(err, limit.ErrTimeout) {
		t.Fatalf("pathological twig finished with %v, want %v", err, limit.ErrTimeout)
	}
	if n := tempFileCount(t, ctx); n != 0 {
		t.Errorf("deadline abort leaked %d temp files", n)
	}
	if u := ctx.Budget.InUse(); u != 0 {
		t.Errorf("deadline abort leaked %d budget bytes", u)
	}
}

// TestStructAncDeadlineAborts covers the anc cascade's polling: the merge
// loop must notice an expired deadline even while pops and list cascades
// dominate, and Close must release everything.
func TestStructAncDeadlineAborts(t *testing.T) {
	ctx := tinyCtx(t, deepNestedDoc(120, 60), 4<<10, limit.After(time.Millisecond))
	join := NewStructuralJoin(labelScan("A", "a"), labelScan("B", "b"), descPred("A", "B"), nil)
	join.AncOrder = true
	it, err := join.open(ctx, nil, nil)
	if err == nil {
		var b Batch
		for {
			n, nerr := it.NextBatch(&b)
			if nerr != nil {
				err = nerr
				break
			}
			if n == 0 {
				break
			}
		}
		if cerr := it.Close(); cerr != nil {
			t.Errorf("close after abort: %v", cerr)
		}
	}
	if !errors.Is(err, limit.ErrTimeout) {
		t.Fatalf("anc join finished with %v, want %v", err, limit.ErrTimeout)
	}
	if n := tempFileCount(t, ctx); n != 0 {
		t.Errorf("deadline abort leaked %d temp files", n)
	}
	if u := ctx.Budget.InUse(); u != 0 {
		t.Errorf("deadline abort leaked %d budget bytes", u)
	}
}

// TestEmitReadFaultFailsQuery fails a page read while XEmit serializes a
// subtree spanning many leaves: the run must fail with the injected error,
// release every pin and drop its subtree writer.
func TestEmitReadFaultFailsQuery(t *testing.T) {
	var inj fault.Injector
	st, err := store.Open(t.TempDir(), store.Options{IOHook: inj.Hook, CacheFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.LoadString(xmlgen.DBLP(xmlgen.DBLPConfig{Entries: 400, Seed: 250})); err != nil {
		t.Fatal(err)
	}
	plan := &XRelFor{
		Vars: []string{"d"},
		Root: NewProject(labelScan("D", "dblp"), []string{"D"}, true),
		Body: &XEmit{Var: "d"},
	}
	ctx := &Ctx{Store: st}
	inj.Arm(0) // count, never fail
	want, err := Run(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	reads := inj.Ops()
	if reads < 8 {
		t.Fatalf("the query read %d pages from the file: the pool is not small enough", reads)
	}

	// The label scan reads a page or two; the rest of the reads are the
	// emit's, so the last quarter falls inside the subtree.
	inj.ArmAt("page:read", reads-reads/4)
	ctx = &Ctx{Store: st}
	got, err := Run(ctx, plan)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("query with a failing read: err = %v, want %v", err, fault.ErrInjected)
	}
	if ctx.Counters.RowsEmitted != 1 || len(got) != 0 {
		t.Errorf("the fault did not land inside the emit: %d emits, %d bytes out", ctx.Counters.RowsEmitted, len(got))
	}
	if pins := st.PinnedPages(); pins != 0 {
		t.Errorf("%d pages pinned after the failed query", pins)
	}
	if ctx.emit != nil {
		t.Error("the failed run kept its subtree writer")
	}

	inj.Disarm()
	got, err = Run(ctx, plan)
	if err != nil || string(got) != string(want) {
		t.Errorf("rerun after the fault: err = %v, output equal = %v", err, string(got) == string(want))
	}
}
