package core

import (
	"testing"

	"xqdb/internal/opt"
	"xqdb/internal/store"
)

// TestExplainAnalyzeExchangeGolden pins the byte-exact EXPLAIN ANALYZE
// rendering of an exchange-under-structural-join plan: the exchange nodes
// with their dop= and morsels= annotations, the merged actual row and
// batch counts of the scans running inside the workers, and the query-wide
// counters. Everything in the output is deterministic — the morsel count
// comes from the interval split, and the merged totals are independent of
// how the scheduler partitioned morsels across workers (the per-worker
// partition is asserted separately, as a sum, in the exec tests). The
// analysis is repeated to catch any scheduling dependence leaking into
// the rendering.
func TestExplainAnalyzeExchangeGolden(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{LabelStride: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.LoadString(library); err != nil {
		t.Fatal(err)
	}
	cfg := opt.M4()
	cfg.DOP = 2
	cfg.ExchangeAll = true // the library doc is far below the cost gate
	e := New(st, Config{Mode: ModeM4, Opt: &cfg})

	const want = `engine: M4-costbased
query:  for $b in //book return for $a in $b//author return $a

-- physical plan (analyzed) --
relfor ($b, $a)
  project π(B.in, A.in) [one-pass dedup]  (rows≈2 cost≈2)  (actual rows=4 opens=1 batches=1)
  └─ structural-join B//A [stack merge, descendant axis, anc-ordered]  (rows≈2 cost≈2)  (actual rows=4 opens=1 batches=1 stack=1)
     ├─ exchange [dop=2 morsels=8]  (rows≈3 cost≈1)  (actual rows=3 opens=1 batches=3)
     │  └─ scan B: full scan σ(B.in > 1 ∧ B.type = elem ∧ B.value = book)  (rows≈3 cost≈1)  (actual rows=3 opens=8 batches=3 sel=0.10)
     └─ exchange [dop=2 morsels=8]  (rows≈4 cost≈1)  (actual rows=4 opens=1 batches=4)
        └─ scan A: full scan σ(A.type = elem ∧ A.value = author)  (rows≈4 cost≈1)  (actual rows=4 opens=8 batches=4 sel=0.14)
  return
    emit($a)

counters: scanned=58 joined=0 structural=4 twig=0 emitted=4
          probes=0 rescans=0 sorted=0 spilled=0 stack-max=1 list-max=0 path-solutions=0
          spill-bytes=0 spill-runs=0 batches=16
result: 80 bytes
`
	for i := 0; i < 3; i++ {
		got, err := e.ExplainAnalyze(`for $b in //book return for $a in $b//author return $a`)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("run %d: EXPLAIN ANALYZE bytes differ\n got:\n%s\nwant:\n%s", i, got, want)
		}
	}
}
