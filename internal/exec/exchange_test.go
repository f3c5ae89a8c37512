package exec

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"xqdb/internal/limit"
	"xqdb/internal/tpm"
	"xqdb/internal/xasr"
)

// exchangeDoc builds a document with n repeated <a><b>tK</b></a> subtrees,
// large enough to split into many morsels.
func exchangeDoc(n int) string {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<a><b>t%03d</b></a>", i%50)
	}
	b.WriteString("</r>")
	return b.String()
}

func rowsEqual(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestExchangeMatchesSerialScan(t *testing.T) {
	doc := exchangeDoc(400)
	cases := []struct {
		name string
		mk   func() *Scan
	}{
		{"full", func() *Scan { return NewScan("R", Access{Kind: AccessFull}, nil) }},
		{"label", func() *Scan { return labelScan("A", "a") }},
		{"full-cond", func() *Scan {
			conds := []tpm.Cmp{tpm.Eq(tpm.AttrOp("R", tpm.ColType), tpm.TypeOp(xasr.TypeText))}
			return NewScan("R", Access{Kind: AccessFull}, conds)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sctx := testCtx(t, doc)
			want := drain(t, sctx, tc.mk())

			pctx := testCtx(t, doc)
			ex := NewExchange(tc.mk(), 4)
			ex.MorselRows = 16
			got := drain(t, pctx, ex)
			if !rowsEqual(got, want) {
				t.Fatalf("parallel scan diverged: %d rows vs %d serial", len(got), len(want))
			}
			if ex.morsels < 2 {
				t.Fatalf("exchange did not parallelize: morsels=%d", ex.morsels)
			}
			if pctx.Counters.RowsScanned != sctx.Counters.RowsScanned {
				t.Errorf("merged RowsScanned = %d, want %d",
					pctx.Counters.RowsScanned, sctx.Counters.RowsScanned)
			}
		})
	}
}

func TestExchangeBatchContract(t *testing.T) {
	doc := exchangeDoc(300)
	sctx := testCtx(t, doc)
	want := drain(t, sctx, labelScan("A", "a"))

	pctx := testCtx(t, doc)
	ex := NewExchange(labelScan("A", "a"), 3)
	ex.MorselRows = 8
	got := drain(t, pctx, ex)
	if !rowsEqual(got, want) {
		t.Fatalf("batched parallel scan diverged: %d rows vs %d serial", len(got), len(want))
	}
	var sum int64
	for _, wb := range ex.WorkerBatches() {
		sum += wb
	}
	if sum != ex.Child.Stats().Batches {
		t.Errorf("worker batches sum %d != child batches %d", sum, ex.Child.Stats().Batches)
	}
	if ex.Stats().Rows != int64(len(want)) {
		t.Errorf("exchange stats rows = %d, want %d", ex.Stats().Rows, len(want))
	}
}

func TestExchangeUnderStructuralJoin(t *testing.T) {
	doc := exchangeDoc(300)
	sctx := testCtx(t, doc)
	sj := NewStructuralJoin(labelScan("A", "a"), labelScan("B", "b"), descPred("A", "B"), nil)
	want := drain(t, sctx, sj)

	pctx := testCtx(t, doc)
	la := NewExchange(labelScan("A", "a"), 4)
	la.MorselRows = 8
	lb := NewExchange(labelScan("B", "b"), 4)
	lb.MorselRows = 8
	pj := NewStructuralJoin(la, lb, descPred("A", "B"), nil)
	got := drain(t, pctx, pj)
	if !rowsEqual(got, want) {
		t.Fatalf("structural join over exchanges diverged: %d rows vs %d serial", len(got), len(want))
	}
	if la.morsels < 2 || lb.morsels < 2 {
		t.Fatalf("exchanges did not parallelize: %d/%d morsels", la.morsels, lb.morsels)
	}
}

func TestExchangeSerialFallbacks(t *testing.T) {
	doc := exchangeDoc(200)

	// Ctx.DOP=1 caps a planned exchange to serial at runtime.
	cctx := testCtx(t, doc)
	cctx.DOP = 1
	ex2 := NewExchange(labelScan("A", "a"), 4)
	if got := len(drain(t, cctx, ex2)); got != 200 {
		t.Fatalf("dop-capped fallback rows = %d, want 200", got)
	}

	// A budget too small for even minimal in-flight batches falls back.
	bctx := testCtx(t, doc)
	bctx.Budget = limit.NewBudget(1024, nil)
	ex3 := NewExchange(labelScan("A", "a"), 4)
	ex3.MorselRows = 8
	if got := len(drain(t, bctx, ex3)); got != 200 {
		t.Fatalf("budget fallback rows = %d, want 200", got)
	}
	if ex3.morsels != 0 {
		t.Errorf("tight budget must not spawn workers (morsels=%d)", ex3.morsels)
	}
	if bctx.Budget.InUse() != 0 {
		t.Errorf("budget not released: %d bytes in use", bctx.Budget.InUse())
	}
}

func TestExchangeBudgetBackoffShrinksBatches(t *testing.T) {
	doc := exchangeDoc(400)
	ctx := testCtx(t, doc)
	// Enough for dop=2 at a shrunken batch capacity, not for full batches:
	// the exchange should still parallelize rather than fall back.
	ctx.Budget = limit.NewBudget(64<<10, nil)
	ex := NewExchange(labelScan("A", "a"), 2)
	ex.MorselRows = 32
	got := len(drain(t, ctx, ex))
	if got != 400 {
		t.Fatalf("backoff rows = %d, want 400", got)
	}
	if ex.morsels < 2 {
		t.Fatalf("exchange fell back instead of shrinking batches (morsels=%d)", ex.morsels)
	}
	if ctx.Budget.InUse() != 0 {
		t.Errorf("budget not released: %d bytes in use", ctx.Budget.InUse())
	}
}

func TestExchangeCancelMidStream(t *testing.T) {
	doc := exchangeDoc(2000)
	before := runtime.NumGoroutine()
	ctx := testCtx(t, doc)
	ctx.Budget = limit.NewBudget(0, nil)
	ctx.BatchSize = 4 // many small batches so cancel lands mid-exchange
	ex := NewExchange(NewScan("R", Access{Kind: AccessFull}, nil), 4)
	ex.MorselRows = 8
	it, err := ex.open(ctx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pull a few batches, then cancel: the next polls must surface
	// limit.ErrCanceled and the pool must unwind without leaks.
	var b Batch
	for i := 0; i < 2; i++ {
		if n, err := it.NextBatch(&b); err != nil || n == 0 {
			t.Fatalf("warmup batch: n=%d err=%v", n, err)
		}
	}
	ctx.Budget.Cancel()
	var got error
	for i := 0; i < 100000; i++ {
		n, err := it.NextBatch(&b)
		if err != nil {
			got = err
			break
		}
		if n == 0 {
			break
		}
	}
	if !errors.Is(got, limit.ErrCanceled) {
		t.Fatalf("mid-exchange cancel returned %v, want ErrCanceled", got)
	}
	it.Close()
	if ctx.Budget.InUse() != 0 {
		t.Errorf("budget not released after cancel: %d bytes", ctx.Budget.InUse())
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

func TestExchangeEarlyClose(t *testing.T) {
	doc := exchangeDoc(2000)
	before := runtime.NumGoroutine()
	ctx := testCtx(t, doc)
	ctx.BatchSize = 4
	ex := NewExchange(NewScan("R", Access{Kind: AccessFull}, nil), 4)
	ex.MorselRows = 8
	it, err := ex.open(ctx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b Batch
	if n, err := it.NextBatch(&b); err != nil || n == 0 {
		t.Fatalf("first batch: n=%d err=%v", n, err)
	}
	// Abandon the stream with workers still running and batches in flight.
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked after early close: %d before, %d after", before, after)
	}
}

func TestExchangeEligibility(t *testing.T) {
	if ExchangeEligible(NewScan("C", Access{Kind: AccessParent, Parent: tpm.InOp(3)}, nil)) {
		t.Error("parent-index scans must not be eligible")
	}
	bounded := NewScan("D", Access{Kind: AccessRange, Bounded: true,
		Lo: tpm.AttrOp("X", tpm.ColIn), Hi: tpm.AttrOp("X", tpm.ColOut)}, nil)
	if ExchangeEligible(bounded) {
		t.Error("outer-row-bounded scans must not be eligible")
	}
	if !ExchangeEligible(NewScan("R", Access{Kind: AccessFull}, nil)) {
		t.Error("full scans must be eligible")
	}
	if !ExchangeEligible(labelScan("A", "a")) {
		t.Error("label scans must be eligible")
	}
}

func TestLoserTree(t *testing.T) {
	keys := []uint64{5, 3, 9, 1, 7}
	lt := newLoserTree(keys)
	var got []uint64
	for {
		w := lt.winner()
		if keys[w] == exhaustedKey {
			break
		}
		got = append(got, keys[w])
		keys[w] += 10 // advance the stream
		if keys[w] > 40 {
			keys[w] = exhaustedKey
		}
		lt.fix(w)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("loser tree emitted out of order: %v", got)
		}
	}
	if len(got) != 20 {
		t.Fatalf("loser tree emitted %d keys, want 20", len(got))
	}
}
