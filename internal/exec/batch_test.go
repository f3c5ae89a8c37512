package exec

import (
	"errors"
	"testing"
	"time"

	"xqdb/internal/limit"
	"xqdb/internal/naive"
	"xqdb/internal/tpm"
	"xqdb/internal/xasr"
)

func sameRows(t *testing.T, label string, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d width %d, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: row %d slot %d = %+v, want %+v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// descConds is the A//B containment as a plain conjunction, for the loop
// joins that evaluate it per pair.
func descConds() []tpm.Cmp {
	return []tpm.Cmp{
		tpm.Gt(tpm.AttrOp("B", tpm.ColIn), tpm.AttrOp("A", tpm.ColIn)),
		tpm.Lt(tpm.AttrOp("B", tpm.ColOut), tpm.AttrOp("A", tpm.ColOut)),
	}
}

// descProbe is the B scan of an A//B index nested-loops join: a label
// range bounded by the outer A row's interval.
func descProbe() *Scan {
	return NewScan("B", Access{
		Kind: AccessLabel, Type: xasr.TypeElem, Value: "b",
		Bounded: true, Lo: tpm.AttrOp("A", tpm.ColIn), LoAdd: 1, Hi: tpm.AttrOp("A", tpm.ColOut),
	}, nil)
}

// Two queries every operator kind can answer over deepNestedDoc: all
// (a, b) pairs in hierarchical order, and the distinct a's that have a b
// below them. The naive evaluator's answers are the reference.
const (
	pairsQuery    = `for $a in //a return for $b in $a//b return $b`
	distinctQuery = `for $a in //a return if (some $b in $a//b satisfies true()) then $a else ()`
)

var pairsVars, distinctVars = []string{"a", "b"}, []string{"a"}

// batchCases builds one plan per operator kind. Each plan's rows, bound to
// vars and emitting the last one, answer query.
var batchCases = []struct {
	name   string
	query  string
	vars   []string
	budget int // per-query memory quota and sort budget (0 = none)
	plan   func(t *testing.T) PlanNode
}{
	{"nl", pairsQuery, pairsVars, 0, func(*testing.T) PlanNode {
		return NewNLJoin(labelScan("A", "a"), labelScan("B", "b"), descConds())
	}},
	{"bnl-block1", pairsQuery, pairsVars, 0, func(*testing.T) PlanNode {
		return NewBNLJoin(labelScan("A", "a"), labelScan("B", "b"), descConds(), 1)
	}},
	{"bnl-block5+sort", pairsQuery, pairsVars, 0, func(*testing.T) PlanNode {
		bnl := NewBNLJoin(labelScan("A", "a"), labelScan("B", "b"), descConds(), 5)
		return NewSort(bnl, []string{"A", "B"}, false)
	}},
	{"inl", pairsQuery, pairsVars, 0, func(*testing.T) PlanNode {
		return NewINLJoin(labelScan("A", "a"), descProbe(), nil)
	}},
	{"sort-dedup", distinctQuery, distinctVars, 0, func(*testing.T) PlanNode {
		bnl := NewBNLJoin(labelScan("A", "a"), labelScan("B", "b"), descConds(), 5)
		return NewSort(NewProject(bnl, []string{"A"}, false), []string{"A"}, true)
	}},
	{"sort-spilled", pairsQuery, pairsVars, 4 << 10, func(*testing.T) PlanNode {
		bnl := NewBNLJoin(labelScan("A", "a"), labelScan("B", "b"), descConds(), 5)
		return NewSort(bnl, []string{"A", "B"}, false)
	}},
	// Every a has dozens of pairs, so each duplicate run straddles the
	// boundaries of all the small capacities.
	{"project-dedup", distinctQuery, distinctVars, 0, func(*testing.T) PlanNode {
		return NewProject(NewINLJoin(labelScan("A", "a"), descProbe(), nil), []string{"A"}, true)
	}},
	{"filter", pairsQuery, pairsVars, 0, func(*testing.T) PlanNode {
		cross := NewNLJoin(labelScan("A", "a"), labelScan("B", "b"), nil)
		return &Filter{Child: cross, Conds: descConds()}
	}},
	{"stack-tree-desc+sort", pairsQuery, pairsVars, 0, func(*testing.T) PlanNode {
		sj := NewStructuralJoin(labelScan("A", "a"), labelScan("B", "b"), descPred("A", "B"), nil)
		return NewSort(sj, []string{"A", "B"}, false)
	}},
	{"stack-tree-anc", pairsQuery, pairsVars, 0, func(*testing.T) PlanNode {
		return ancJoin(labelScan("A", "a"), labelScan("B", "b"), descPred("A", "B"), nil)
	}},
	{"stack-tree-anc-spilled", pairsQuery, pairsVars, 8 << 10, func(*testing.T) PlanNode {
		return ancJoin(labelScan("A", "a"), labelScan("B", "b"), descPred("A", "B"), nil)
	}},
	{"twig", pairsQuery, pairsVars, 0, func(t *testing.T) PlanNode {
		rels := []string{"A", "B"}
		return buildTwig(t, []tpm.StructuralPred{descPred("A", "B")}, rels,
			map[string]string{"A": "a", "B": "b"}, nil, rels)
	}},
}

// TestBatchSizeEquivalence replays every operator kind under every batch
// capacity class — tiny, prime, default — and requires the row sequence of
// the default capacity and the serialized answer of the naive evaluator at
// each. Capacity must never be observable in results.
func TestBatchSizeEquivalence(t *testing.T) {
	doc := deepNestedDoc(12, 9)
	for _, tc := range batchCases {
		t.Run(tc.name, func(t *testing.T) {
			newCtx := func(size int) *Ctx {
				ctx := testCtx(t, doc)
				ctx.BatchSize = size
				if tc.budget > 0 {
					ctx.SortBudget = tc.budget
					ctx.Budget = limit.NewBudget(tc.budget, nil)
				}
				return ctx
			}
			refCtx := newCtx(DefaultBatchSize)
			wantRows := drain(t, refCtx, tc.plan(t))
			if len(wantRows) == 0 {
				t.Fatal("empty reference result — test document broken")
			}
			if tc.budget > 0 && refCtx.Counters.SpilledBytes == 0 {
				t.Fatal("budgeted case never spilled")
			}
			wantXML, err := naive.New(refCtx.Store).EvalString(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{1, 2, 3, 7, DefaultBatchSize} {
				sameRows(t, "rows", drain(t, newCtx(size), tc.plan(t)), wantRows)

				ctx := newCtx(size)
				emit := &XEmit{Var: tc.vars[len(tc.vars)-1]}
				got, err := Run(ctx, &XRelFor{Vars: tc.vars, Root: tc.plan(t), Body: emit})
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != wantXML {
					t.Errorf("batch size %d: answer differs from the naive evaluator (%d vs %d bytes)",
						size, len(got), len(wantXML))
				}
				if u := ctx.Budget.InUse(); u != 0 {
					t.Errorf("batch size %d: %d budget bytes still reserved", size, u)
				}
			}
		})
	}
}

// TestBatchDeadlineAborts covers the per-batch poll for every producer:
// budget checks run per batch or per merge step instead of per row, so an
// expired deadline must still abort mid-stream — within roughly one batch
// of work, not after the operator completes — and Close must leak no pins,
// temp files, or budget reservations.
func TestBatchDeadlineAborts(t *testing.T) {
	doc := deepNestedDoc(120, 60)
	for _, tc := range batchCases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := tinyCtx(t, doc, 4<<10, limit.After(time.Millisecond))
			start := time.Now()
			it, err := tc.plan(t).open(ctx, nil, nil)
			if err == nil {
				var b Batch
				for {
					k, nerr := it.NextBatch(&b)
					if nerr != nil {
						err = nerr
						break
					}
					if k == 0 {
						break
					}
				}
				if cerr := it.Close(); cerr != nil {
					t.Errorf("close after abort: %v", cerr)
				}
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Errorf("deadline abort took %v — per-batch polling too coarse", elapsed)
			}
			if !errors.Is(err, limit.ErrTimeout) {
				t.Fatalf("finished with %v, want %v", err, limit.ErrTimeout)
			}
			checkNoLeaks(t, ctx)
		})
	}
}

// TestBatchEarlyCloseReleasesEverything abandons every producer after its
// first batch — spools, sort runs, spilled lists and probes still open —
// and requires Close to remove and release all of it.
func TestBatchEarlyCloseReleasesEverything(t *testing.T) {
	doc := deepNestedDoc(60, 40)
	for _, tc := range batchCases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := testCtx(t, doc)
			ctx.BatchSize = 7
			ctx.SortBudget = 4 << 10
			ctx.Budget = limit.NewBudget(1<<20, nil)
			it, err := tc.plan(t).open(ctx, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			var b Batch
			if k, err := it.NextBatch(&b); err != nil || k == 0 {
				t.Fatalf("first batch: k=%d err=%v", k, err)
			}
			if err := it.Close(); err != nil {
				t.Fatalf("early close: %v", err)
			}
			checkNoLeaks(t, ctx)
		})
	}
}

func checkNoLeaks(t *testing.T, ctx *Ctx) {
	t.Helper()
	if n := tempFileCount(t, ctx); n != 0 {
		t.Errorf("leaked %d temp files", n)
	}
	if u := ctx.Budget.InUse(); u != 0 {
		t.Errorf("leaked %d budget bytes", u)
	}
	if p := ctx.Store.PinnedPages(); p != 0 {
		t.Errorf("leaked %d pinned pages", p)
	}
}
