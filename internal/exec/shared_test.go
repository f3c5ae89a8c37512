package exec_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"xqdb/internal/exec"
	"xqdb/internal/opt"
	"xqdb/internal/store"
	"xqdb/internal/tpm"
	"xqdb/internal/xmlgen"
	"xqdb/internal/xq"
)

// sharedQueries between them put every operator family the planner builds
// into some plan: label, range and parent-index scans, NL/BNL/INL joins,
// structural joins in both emission orders, twig joins, sorts and
// deduplicating projections, with residual conditions.
var sharedQueries = []string{
	`for $x in //phdthesis return for $t in $x/title return $t`,
	`for $x in //article return if (some $v in $x/volume satisfies true()) then for $y in $x//author return $y else ()`,
	`for $x in //inproceedings return for $a in $x/author return for $t in $x/title return $t`,
	`for $d in //dblp return for $x in $d//article return for $y in $x//author return $y`,
	`for $n in //author/note return if (some $t in $n/text() satisfies true()) then <noted/> else ()`,
}

var sharedConfigs = map[string]opt.Config{
	"m4": opt.M4(), "m4-badstats": opt.M4BadStats(), "m3": opt.M3(), "naive-tpm": opt.NaiveTPM(),
}

func sharedStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.LoadString(xmlgen.DBLP(xmlgen.DBLPConfig{Entries: 300, Seed: 3})); err != nil {
		t.Fatal(err)
	}
	return st
}

func planOf(t *testing.T, st *store.Store, cfg opt.Config, q string) exec.XPlan {
	t.Helper()
	p, err := opt.New(st, cfg).Plan(tpm.Merge(tpm.Rewrite(xq.MustParse(q))))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runOnce runs p on a fresh context and returns the answer and the context.
func runOnce(t testing.TB, st *store.Store, p exec.XPlan) ([]byte, *exec.Ctx) {
	tmp, err := st.TempDir()
	if err != nil {
		t.Error(err)
	}
	ctx := &exec.Ctx{Store: st, TempDir: tmp, Env: exec.Env{}}
	out, err := exec.Run(ctx, p)
	if err != nil {
		t.Error(err)
	}
	return out, ctx
}

// profile collects a run's tallies for every operator of p.
func profile(p exec.XPlan, ctx *exec.Ctx) map[exec.PlanNode]exec.OpStats {
	prof := map[exec.PlanNode]exec.OpStats{}
	var node func(exec.PlanNode)
	node = func(n exec.PlanNode) {
		prof[n] = ctx.Stats(n)
		for _, c := range n.Children() {
			node(c)
		}
	}
	var walk func(exec.XPlan)
	walk = func(p exec.XPlan) {
		switch p := p.(type) {
		case *exec.XConstr:
			walk(p.Body)
		case *exec.XSeq:
			for _, it := range p.Items {
				walk(it)
			}
		case *exec.XIf:
			walk(p.Then)
		case *exec.XRelFor:
			node(p.Root)
			walk(p.Body)
		}
	}
	walk(p)
	return prof
}

// TestPlanRunsTwiceWithFreshProfiles runs one plan twice, each run on a
// fresh context: both runs must give the same answer, counters and
// per-operator tallies, because a run keeps its state in its context and
// never on the plan.
func TestPlanRunsTwiceWithFreshProfiles(t *testing.T) {
	st := sharedStore(t)
	for name, cfg := range sharedConfigs {
		for _, q := range sharedQueries {
			p := planOf(t, st, cfg, q)
			out1, ctx1 := runOnce(t, st, p)
			out2, ctx2 := runOnce(t, st, p)
			if !bytes.Equal(out1, out2) {
				t.Errorf("%s %s: second run's answer differs", name, q)
			}
			if ctx1.Counters != ctx2.Counters {
				t.Errorf("%s %s: counters %+v, then %+v", name, q, ctx1.Counters, ctx2.Counters)
			}
			prof1, prof2 := profile(p, ctx1), profile(p, ctx2)
			if !reflect.DeepEqual(prof1, prof2) {
				t.Errorf("%s %s: per-operator tallies differ between runs:\n%s\nthen\n%s",
					name, q, exec.ExplainAnalyze(p, ctx1), exec.ExplainAnalyze(p, ctx2))
			}
			opened := false
			for _, st := range prof1 {
				opened = opened || st.Opens > 0
			}
			if !opened {
				t.Errorf("%s %s: no operator opened", name, q)
			}
		}
	}
}

// TestSharedPlanConcurrent runs one planner-built plan object on 8
// goroutines at once, the way a cached plan serves concurrent requests.
// Every run must produce the serial run's answer and profile; under -race
// it also proves that running a plan writes nothing the runs share.
func TestSharedPlanConcurrent(t *testing.T) {
	st := sharedStore(t)
	for name, cfg := range sharedConfigs {
		for _, q := range sharedQueries {
			p := planOf(t, st, cfg, q)
			want, ctx := runOnce(t, st, p)
			wantProf := profile(p, ctx)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, ctx := runOnce(t, st, p)
					if !bytes.Equal(got, want) {
						t.Errorf("%s %s: concurrent answer differs (%d vs %d bytes)", name, q, len(got), len(want))
					}
					if prof := profile(p, ctx); !reflect.DeepEqual(prof, wantProf) {
						t.Errorf("%s %s: concurrent profile differs:\n%s", name, q, exec.ExplainAnalyze(p, ctx))
					}
				}()
			}
			wg.Wait()
		}
	}
}
