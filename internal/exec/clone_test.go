package exec

import (
	"strings"
	"sync"
	"testing"

	"xqdb/internal/store"
	"xqdb/internal/tpm"
	"xqdb/internal/xasr"
)

// clonePlanFixture builds a small composite plan exercising every cloneable
// operator family over a loaded store: scans under filters, loop joins,
// structural join, twig join, project, and sort.
func clonePlanFixture(t *testing.T) (*store.Store, XPlan) {
	t.Helper()
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 50; i++ {
		b.WriteString("<a><b><c>x</c></b></a>")
	}
	b.WriteString("</r>")
	st, err := store.Open(t.TempDir(), store.Options{LabelStride: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.LoadString(b.String()); err != nil {
		t.Fatal(err)
	}

	scanA := NewScan("a", Access{Kind: AccessLabel, Type: xasr.TypeElem, Value: "a"}, nil)
	scanB := NewScan("b", Access{Kind: AccessLabel, Type: xasr.TypeElem, Value: "b"}, nil)
	sj := NewStructuralJoin(scanA, scanB, tpm.StructuralPred{Anc: "a", Desc: "b", Axis: tpm.AxisDescendant}, nil)
	srt := NewSort(sj, []string{"a", "b"}, false)
	proj := NewProject(srt, []string{"a", "b"}, true)
	return st, &XRelFor{Vars: []string{"x", "y"}, Root: proj, Body: &XEmit{Var: "y"}}
}

// TestClonePlanEquivalence runs a plan and its clone, asserting identical
// output and that the clone starts from zero runtime state.
func TestClonePlanEquivalence(t *testing.T) {
	st, plan := clonePlanFixture(t)
	tmp, err := st.TempDir()
	if err != nil {
		t.Fatal(err)
	}

	clone := ClonePlan(plan)
	ctx1 := &Ctx{Store: st, TempDir: tmp, Env: Env{}}
	out1, err := Run(ctx1, plan)
	if err != nil {
		t.Fatal(err)
	}
	ctx2 := &Ctx{Store: st, TempDir: tmp, Env: Env{}}
	out2, err := Run(ctx2, clone)
	if err != nil {
		t.Fatal(err)
	}
	if string(out1) != string(out2) {
		t.Fatalf("clone output differs:\n%s\nvs\n%s", out1, out2)
	}
	if len(out1) == 0 {
		t.Fatal("fixture produced no output")
	}
	if ctx1.Counters != ctx2.Counters {
		t.Errorf("clone counters differ: %+v vs %+v", ctx1.Counters, ctx2.Counters)
	}

	// A clone taken AFTER execution must still start from fresh stats.
	fresh := ClonePlan(plan).(*XRelFor)
	var walk func(n PlanNode)
	walk = func(n PlanNode) {
		if st := n.Stats(); *st != (OpStats{}) {
			t.Errorf("clone of executed plan carries stats on %s: %+v", n.Describe(), *st)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(fresh.Root)

	// Explain of a clone is byte-identical: clones share all compile-time
	// fields the renderer reads.
	if Explain(plan) != Explain(clone) {
		t.Errorf("EXPLAIN differs between plan and clone")
	}
}

// TestClonePlanConcurrent executes many clones of one pristine plan in
// parallel — the plan-cache execution pattern. Run under -race this proves
// cached plans share no mutable state across executions.
func TestClonePlanConcurrent(t *testing.T) {
	st, plan := clonePlanFixture(t)
	tmp, err := st.TempDir()
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{Store: st, TempDir: tmp, Env: Env{}}
	want, err := Run(ctx, ClonePlan(plan))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				ctx := &Ctx{Store: st, TempDir: tmp, Env: Env{}}
				got, err := Run(ctx, ClonePlan(plan))
				if err != nil {
					errs <- err
					return
				}
				if string(got) != string(want) {
					t.Errorf("concurrent clone output differs")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
