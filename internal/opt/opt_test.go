package opt

import (
	"strings"
	"testing"

	"xqdb/internal/exec"
	"xqdb/internal/store"
	"xqdb/internal/tpm"
	"xqdb/internal/xasr"
	"xqdb/internal/xmlgen"
	"xqdb/internal/xq"
)

func loadStore(t testing.TB, doc string) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.LoadString(doc); err != nil {
		t.Fatal(err)
	}
	return st
}

func planFor(t *testing.T, st *store.Store, cfg Config, query string) exec.XPlan {
	t.Helper()
	plan := tpm.Merge(tpm.Rewrite(xq.MustParse(query)))
	xplan, err := New(st, cfg).Plan(plan)
	if err != nil {
		t.Fatalf("plan %q: %v", query, err)
	}
	return xplan
}

func explain(t *testing.T, st *store.Store, cfg Config, query string) string {
	t.Helper()
	return exec.Explain(planFor(t, st, cfg, query))
}

func dblpStore(t testing.TB) *store.Store {
	return loadStore(t, xmlgen.DBLP(xmlgen.DBLPConfig{Entries: 800, Seed: 5}))
}

func TestM4PicksLabelIndexForSelectiveLabel(t *testing.T) {
	st := dblpStore(t)
	out := explain(t, st, M4(), `for $x in //phdthesis return $x`)
	if !strings.Contains(out, `label index (elem, "phdthesis")`) {
		t.Errorf("no label index chosen:\n%s", out)
	}
}

func TestM3UsesNoIndexes(t *testing.T) {
	st := dblpStore(t)
	out := explain(t, st, M3(), `for $x in //phdthesis return $x`)
	if strings.Contains(out, "label index") || strings.Contains(out, "parent index") {
		t.Errorf("M3 used a milestone 4 index:\n%s", out)
	}
	if !strings.Contains(out, "scan") {
		t.Errorf("no scan in plan:\n%s", out)
	}
}

func TestM4PicksINLForDescendantJoin(t *testing.T) {
	st := dblpStore(t)
	// With the structural merge join ablated, the descendant join must
	// still fall back to index nested-loops with interval-bounded probes.
	cfg := M4()
	cfg.UseStructural = false
	out := explain(t, st, cfg, `for $x in //article return for $y in $x//author return $y`)
	if !strings.Contains(out, "inl-join") {
		t.Errorf("no INL join chosen:\n%s", out)
	}
	// The inner must be bounded by the outer's interval.
	if !strings.Contains(out, "A2.in+1") && !strings.Contains(out, "A.in+1") {
		t.Errorf("inner not interval-bounded:\n%s", out)
	}
}

func TestM4PicksStructuralJoinForDescendantJoin(t *testing.T) {
	st := dblpStore(t)
	const q = `for $x in //article return for $y in $x//author return $y`
	out := explain(t, st, M4(), q)
	if !strings.Contains(out, "structural-join") {
		t.Errorf("M4 did not choose the structural merge join:\n%s", out)
	}
	// The merge must be cheaper than the best loop-based plan: the whole
	// point of the operator is removing the per-outer-row probe cost.
	cfg := M4()
	cfg.UseStructural = false
	withCost := exec.PlanCost(planFor(t, st, M4(), q))
	withoutCost := exec.PlanCost(planFor(t, st, cfg, q))
	if withCost >= withoutCost {
		t.Errorf("structural plan not estimated cheaper: %.1f vs %.1f", withCost, withoutCost)
	}
}

func TestStructuralJoinDisabledByKnob(t *testing.T) {
	st := dblpStore(t)
	cfg := M4()
	cfg.UseStructural = false
	out := explain(t, st, cfg, `for $x in //inproceedings return for $y in $x//author return $y`)
	if strings.Contains(out, "structural-join") {
		t.Errorf("structural join chosen with UseStructural=false:\n%s", out)
	}
	if out2 := explain(t, st, M3(), `for $x in //inproceedings return for $y in $x//author return $y`); strings.Contains(out2, "structural-join") {
		t.Errorf("M3 preset uses the structural join:\n%s", out2)
	}
}

func TestStructuralJoinEquivalence(t *testing.T) {
	// Forcing the structural join on and off must not change any answer.
	st := dblpStore(t)
	queries := []string{
		`for $x in //article return for $y in $x//author return $y`,
		`for $x in //inproceedings return for $y in $x//author return $y`,
		`for $y in //author return for $x in $y/note return $x`,
		`for $x in //article return if (some $v in $x/volume satisfies true()) then for $y in $x//author return $y else ()`,
	}
	off := M4()
	off.UseStructural = false
	for _, q := range queries {
		var got [2]string
		for i, cfg := range []Config{M4(), off} {
			xplan := planFor(t, st, cfg, q)
			tmp, err := st.TempDir()
			if err != nil {
				t.Fatal(err)
			}
			out, err := exec.Run(&exec.Ctx{Store: st, TempDir: tmp, Env: exec.Env{}}, xplan)
			if err != nil {
				t.Fatalf("%q config %d: %v", q, i, err)
			}
			got[i] = string(out)
		}
		if got[0] != got[1] {
			t.Errorf("%q: structural join changed the answer\nwith:    %.200s\nwithout: %.200s", q, got[0], got[1])
		}
	}
}

const twig3Query = `for $x in //inproceedings return for $a in $x//author return for $t in $x//title return for $y in $x//year return $t`

func TestM4PicksTwigForBranchingPattern(t *testing.T) {
	st := dblpStore(t)
	// Against descendant-ordered binary pipelines (which pay a repair
	// sort on this ancestor-first pattern) the holistic twig wins the
	// auction — the pre-Stack-Tree-Anc arbitration.
	descOnly := M4()
	descOnly.StructuralEmit = EmitDesc
	out := explain(t, st, descOnly, twig3Query)
	if !strings.Contains(out, "twig-join") {
		t.Errorf("M4 (desc emission) did not choose the holistic twig join:\n%s", out)
	}
	// All four streams feed the one operator; no binary join remains.
	if strings.Count(out, "scan") != 4 || strings.Contains(out, "-join(") || strings.Contains(out, "inl-join") {
		t.Errorf("twig plan not holistic:\n%s", out)
	}
	// The holistic plan must be estimated cheaper than the best
	// descendant-ordered binary pipeline for the same pattern.
	off := descOnly
	off.UseTwig = false
	withCost := exec.PlanCost(planFor(t, st, descOnly, twig3Query))
	withoutCost := exec.PlanCost(planFor(t, st, off, twig3Query))
	if withCost >= withoutCost {
		t.Errorf("twig plan not estimated cheaper: %.1f vs %.1f", withCost, withoutCost)
	}
	// With the anc-ordered emission enumerated, the order-preserving
	// structural tower undercuts even the twig on this flat-label star
	// (no path-solution buffering, no in-memory sort) — and the plan
	// must be fully streaming: no repair sort anywhere.
	autoOut := explain(t, st, M4(), twig3Query)
	if !strings.Contains(autoOut, "anc-ordered") {
		t.Errorf("full M4 did not choose the anc-ordered structural tower:\n%s", autoOut)
	}
	if strings.Contains(autoOut, "sort [external") {
		t.Errorf("full M4 plan pays a repair sort:\n%s", autoOut)
	}
	towerCost := exec.PlanCost(planFor(t, st, M4(), twig3Query))
	if towerCost >= withCost {
		t.Errorf("anc tower not estimated cheaper than the twig: %.1f vs %.1f", towerCost, withCost)
	}
}

func TestTwigDisabledByKnob(t *testing.T) {
	st := dblpStore(t)
	off := M4()
	off.UseTwig = false
	if out := explain(t, st, off, twig3Query); strings.Contains(out, "twig-join") {
		t.Errorf("twig join chosen with UseTwig=false:\n%s", out)
	}
	if out := explain(t, st, M3(), twig3Query); strings.Contains(out, "twig-join") {
		t.Errorf("M3 preset uses the twig join:\n%s", out)
	}
	if out := explain(t, st, M4BadStats(), twig3Query); strings.Contains(out, "twig-join") {
		t.Errorf("engine 2 model uses the twig join:\n%s", out)
	}
}

func TestTwigNotUsedForBinaryOrDisconnected(t *testing.T) {
	st := dblpStore(t)
	// Two relations: the binary structural merge join owns the pattern.
	if out := explain(t, st, M4(), `for $x in //inproceedings return for $y in $x//author return $y`); strings.Contains(out, "twig-join") {
		t.Errorf("twig join chosen for a binary pattern:\n%s", out)
	}
	// Value equi-join between otherwise unconnected branches: predicates
	// do not assemble into one twig, so the binary pipeline must serve.
	const disconnected = `for $a in //phdthesis//text() return for $b in //author/text() return if ($a = $b) then <same/> else ()`
	if out := explain(t, st, M4(), disconnected); strings.Contains(out, "twig-join") {
		t.Errorf("twig join chosen for disconnected predicates:\n%s", out)
	}
}

func TestTwigEquivalence(t *testing.T) {
	// Forcing the twig join on and off must not change any answer.
	st := dblpStore(t)
	queries := []string{
		twig3Query,
		`for $x in //article return for $a in $x//author return for $t in $x//title return $a`,
		`for $x in //article return if (some $v in $x/volume satisfies true()) then for $y in $x//author return $y else ()`,
		`for $x in //inproceedings return for $y in $x//author return $y`,
	}
	off := M4()
	off.UseTwig = false
	for _, q := range queries {
		var got [2]string
		for i, cfg := range []Config{M4(), off} {
			xplan := planFor(t, st, cfg, q)
			tmp, err := st.TempDir()
			if err != nil {
				t.Fatal(err)
			}
			out, err := exec.Run(&exec.Ctx{Store: st, TempDir: tmp, Env: exec.Env{}}, xplan)
			if err != nil {
				t.Fatalf("%q config %d: %v", q, i, err)
			}
			got[i] = string(out)
		}
		if got[0] != got[1] {
			t.Errorf("%q: twig join changed the answer\nwith:    %.200s\nwithout: %.200s", q, got[0], got[1])
		}
	}
}

// mixedTwigQuery is the partial-twig shape: the twig3 branching pattern
// mixed with an uncovered pass-fail relation no structural predicate
// reaches (the `some` relation joins by cross product).
const mixedTwigQuery = `for $x in //inproceedings return for $a in $x//author return for $t in $x//title return for $y in $x//year return if (some $p in //phdthesis satisfies true()) then $t else ()`

func TestPartialTwigAdoptedForMixedPattern(t *testing.T) {
	st := dblpStore(t)
	// Against descendant-ordered binary pipelines the partial twig wins:
	// a twig-join over the covered pattern with a binary join for the
	// uncovered relation on top — previously this query was
	// all-or-nothing and fell back to the binary pipeline.
	descOnly := M4()
	descOnly.StructuralEmit = EmitDesc
	out := explain(t, st, descOnly, mixedTwigQuery)
	if !strings.Contains(out, "twig-join") {
		t.Errorf("partial twig not adopted:\n%s", out)
	}
	if !strings.Contains(out, "-join(") && !strings.Contains(out, "inl-join") {
		t.Errorf("no parent join above the twig (not a composite plan):\n%s", out)
	}
	// No repair sort: the twig emits the covered vartuple prefix in order
	// and the joins above preserve it.
	if strings.Contains(out, "sort [external") {
		t.Errorf("composite plan pays a repair sort:\n%s", out)
	}
	// Full M4 additionally enumerates the anc-ordered structural tower,
	// which overtakes the composite on this flat-label star; whichever
	// side wins, the plan must stay sort-free.
	if autoOut := explain(t, st, M4(), mixedTwigQuery); strings.Contains(autoOut, "sort [external") {
		t.Errorf("full M4 mixed plan pays a repair sort:\n%s", autoOut)
	}
}

func TestPartialTwigDisabledByKnob(t *testing.T) {
	st := dblpStore(t)
	off := M4()
	off.UsePartialTwig = false
	off.StructuralEmit = EmitDesc // keep the twig the best remaining family
	// Without partial adoption the pattern has no full twig (the some
	// relation is disconnected), so no twig join may appear.
	if out := explain(t, st, off, mixedTwigQuery); strings.Contains(out, "twig-join") {
		t.Errorf("twig join chosen with UsePartialTwig=false:\n%s", out)
	}
	if out := explain(t, st, M4BadStats(), mixedTwigQuery); strings.Contains(out, "twig-join") {
		t.Errorf("engine 2 model uses the partial twig:\n%s", out)
	}
	// Full-coverage twigs are untouched by the knob.
	if out := explain(t, st, off, twig3Query); !strings.Contains(out, "twig-join") {
		t.Errorf("full twig lost with UsePartialTwig=false:\n%s", out)
	}
}

func TestPartialTwigEquivalenceAndCounters(t *testing.T) {
	st := dblpStore(t)
	queries := []string{
		mixedTwigQuery,
		// Twig + value predicate + uncovered relation.
		`for $x in //inproceedings return for $a in $x//author return for $t in $x//title return for $y in $x//year return for $yt in $y/text() return if ($yt = "1995" and some $p in //phdthesis satisfies true()) then $t else ()`,
		// Chain twig + value equi-join against a second component.
		`for $x in //inproceedings return for $a in $x//author return for $at in $a/text() return for $p in //phdthesis return for $pt in $p//text() return if ($at = $pt) then $at else ()`,
	}
	off := M4()
	off.UsePartialTwig = false
	for _, q := range queries {
		var got [2]string
		for i, cfg := range []Config{M4(), off} {
			xplan := planFor(t, st, cfg, q)
			tmp, err := st.TempDir()
			if err != nil {
				t.Fatal(err)
			}
			out, err := exec.Run(&exec.Ctx{Store: st, TempDir: tmp, Env: exec.Env{}}, xplan)
			if err != nil {
				t.Fatalf("%q config %d: %v", q, i, err)
			}
			got[i] = string(out)
		}
		if got[0] != got[1] {
			t.Errorf("%q: partial twig changed the answer\nwith:    %.200s\nwithout: %.200s", q, got[0], got[1])
		}
	}

	// Forced partial-twig execution: the twig branch does the pattern work
	// (RowsTwig) with zero sorted rows — the composite plan stays
	// order-preserving end to end.
	forced, ok := ForceJoin("twig")
	if !ok {
		t.Fatal("ForceJoin(twig)")
	}
	xplan := planFor(t, st, forced, mixedTwigQuery)
	tmp, err := st.TempDir()
	if err != nil {
		t.Fatal(err)
	}
	ctx := &exec.Ctx{Store: st, TempDir: tmp, Env: exec.Env{}}
	if _, err := exec.Run(ctx, xplan); err != nil {
		t.Fatal(err)
	}
	if ctx.Counters.RowsTwig == 0 {
		t.Errorf("forced partial twig did not run the twig join: %+v", ctx.Counters)
	}
	if ctx.Counters.SortedRows != 0 {
		t.Errorf("twig-led plan sorted %d rows, want 0", ctx.Counters.SortedRows)
	}
}

// TestPartialTwigExistentialNodeNoDuplicates is the regression test for a
// subtle dedup bug: a covered existential (non-vartuple) twig node with
// several matches per vartuple tie used to leak duplicate vartuples —
// after joining an uncovered bind relation on top, equal vartuples came
// back non-adjacent and the one-pass dedup projection missed them. The
// seed now projects existential nodes away directly above the twig (valid
// there: the twig emits sorted by the covered vartuple order).
func TestPartialTwigExistentialNodeNoDuplicates(t *testing.T) {
	st := loadStore(t, `<r><a><b/><b/><e/><e/></a><d/><d/></r>`)
	const q = `for $x in //a return for $t in $x//b return for $c in //d return if (some $s in $x//e satisfies true()) then $t else ()`
	const want = `<b/><b/><b/><b/>` // 2 b's × 2 d's, e is a pure witness
	for _, m := range []struct {
		name string
		cfg  Config
	}{
		{"auto", M4()},
		{"forced-twig", func() Config { c, _ := ForceJoin("twig"); return c }()},
		{"nopartial", func() Config { c := M4(); c.UsePartialTwig = false; return c }()},
	} {
		xplan := planFor(t, st, m.cfg, q)
		tmp, err := st.TempDir()
		if err != nil {
			t.Fatal(err)
		}
		out, err := exec.Run(&exec.Ctx{Store: st, TempDir: tmp, Env: exec.Env{}}, xplan)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if string(out) != want {
			t.Errorf("%s: got %q, want %q\n%s", m.name, out, want, exec.Explain(xplan))
		}
	}
}

func TestProbeCostCalibration(t *testing.T) {
	st := dblpStore(t)
	e := NewEstimator(st, StatsAccurate)
	// A probe can never cost more than a cold descent or less than the
	// CPU of walking a cached one.
	if p := e.ProbeCost(); p > probeBase || p < e.Height()*cpuPerTuple {
		t.Errorf("probe cost %g outside (%g, %g]", p, e.Height()*cpuPerTuple, probeBase)
	}
	// Warm the pool by scanning, then recalibrate: the hit rate can only
	// grow, so the probe charge must not increase.
	before := e.ProbeCost()
	if err := st.ScanAll(func(t xasr.Tuple) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if err := st.ScanAll(func(t xasr.Tuple) bool { return true }); err != nil {
		t.Fatal(err)
	}
	after := NewEstimator(st, StatsAccurate).ProbeCost()
	if after > before {
		t.Errorf("probe cost grew on a warmer pool: %g -> %g", before, after)
	}
}

func TestChildAxisArbitratedByCost(t *testing.T) {
	// The blanket gate is gone: with a highly selective descendant-side
	// stream the child-axis structural merge can now win against INL when
	// the estimates favor it, and the plan still executes correctly.
	st := dblpStore(t)
	const q = `for $y in //author return for $x in $y/note return $x`
	out := explain(t, st, M4(), q)
	if !strings.Contains(out, "structural-join") && !strings.Contains(out, "inl-join") {
		t.Errorf("no join operator chosen for the child step:\n%s", out)
	}
	// Whichever wins, the answer must match the gate-free loop plan.
	nl := M4()
	nl.UseStructural = false
	nl.UseINL = false
	nl.UseTwig = false
	var got [2]string
	for i, cfg := range []Config{M4(), nl} {
		xplan := planFor(t, st, cfg, q)
		tmp, err := st.TempDir()
		if err != nil {
			t.Fatal(err)
		}
		res, err := exec.Run(&exec.Ctx{Store: st, TempDir: tmp, Env: exec.Env{}}, xplan)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = string(res)
	}
	if got[0] != got[1] {
		t.Errorf("child-axis arbitration changed the answer:\n%.200s\nvs\n%.200s", got[0], got[1])
	}
}

func TestM3KeepsSyntacticOrder(t *testing.T) {
	st := dblpStore(t)
	// Example 6 query: M3 must keep article first (bind order), with the
	// volume condition relation after the binds.
	out := explain(t, st, M3(),
		`for $x in //article return if (some $v in $x/volume satisfies true()) then for $y in $x//author return $y else ()`)
	if !strings.Contains(out, "nl-join") {
		t.Errorf("M3 without NL joins:\n%s", out)
	}
	if strings.Contains(out, "inl-join") || strings.Contains(out, "sort") {
		t.Errorf("M3 used milestone 4 machinery:\n%s", out)
	}
}

func TestM4NonexistentLabelEstimatedEmpty(t *testing.T) {
	st := dblpStore(t)
	// The inner loop's label does not exist; with accurate statistics the
	// plan must carry a ~zero row estimate (and avoid per-article index
	// probes — either the cdrom relation leads, or it is the inner of a
	// lazily materialized nested-loops join that costs one empty scan).
	xplan := planFor(t, st, M4(), `for $x in //article return for $y in $x//cdrom return $y`)
	rf := findRelFor(xplan)
	if rf == nil {
		t.Fatal("no relfor in plan")
	}
	if est := rf.Root.Estimate(); est.Rows > 1 {
		t.Errorf("estimated %.1f rows for a non-existent label:\n%s", est.Rows, exec.Explain(xplan))
	}
	if out := explain(t, st, M4(), `for $x in //article return for $y in $x//cdrom return $y`); strings.Contains(out, "inl-join") {
		t.Errorf("per-article probes chosen for an empty relation:\n%s", out)
	}
}

func TestBadStatsKeepsUnselectiveOrder(t *testing.T) {
	st := dblpStore(t)
	// The engine 2 model: order-preserving only, uniform estimates. The
	// author loop must stay at the bottom (leading) despite the rare
	// note relation.
	xplan := planFor(t, st, M4BadStats(), `for $y in //author return for $x in $y/note return $x`)
	rf := findRelFor(xplan)
	lead := leftmostScan(rf.Root)
	if lead == nil || lead.Access.Value != "author" {
		t.Errorf("bad-stats engine reordered away from author:\n%s", exec.Explain(xplan))
	}
	// Accurate M4 anchors at note instead.
	xplan = planFor(t, st, M4(), `for $y in //author return for $x in $y/note return $x`)
	rf = findRelFor(xplan)
	lead = leftmostScan(rf.Root)
	if lead == nil || lead.Access.Value != "note" {
		t.Errorf("accurate engine did not anchor at note:\n%s", exec.Explain(xplan))
	}
}

func TestSemijoinProjectionPush(t *testing.T) {
	st := dblpStore(t)
	cfg := M4()
	cfg.Strategies = OrderPreserve | OrderSemijoin // no sort: force QP2 shape
	cfg.UseBNL = false
	cfg.UseTwig = false // the holistic twig would otherwise absorb the whole pattern
	out := explain(t, st, cfg,
		`for $x in //article return if (some $v in $x/volume satisfies true()) then for $y in $x//author return $y else ()`)
	// The projection must appear below the top (two projections total:
	// the semijoin push and the final one).
	if strings.Count(out, "project") < 2 {
		t.Errorf("no pushed projection (QP2 shape):\n%s", out)
	}
}

func TestEstimatorModes(t *testing.T) {
	st := dblpStore(t)
	acc := NewEstimator(st, StatsAccurate)
	uni := NewEstimator(st, StatsUniform)
	authorAcc := acc.labelCard("author")
	authorUni := uni.labelCard("author")
	noteAcc := acc.labelCard("note")
	noteUni := uni.labelCard("note")
	if authorAcc <= noteAcc {
		t.Errorf("accurate cards not skewed: author=%f note=%f", authorAcc, noteAcc)
	}
	if authorUni != noteUni {
		t.Errorf("uniform cards differ: author=%f note=%f", authorUni, noteUni)
	}
	// Nonexistent labels: accurate sees zero, uniform does not.
	if acc.labelCard("cdrom") != 0 {
		t.Errorf("accurate card for missing label: %f", acc.labelCard("cdrom"))
	}
	if uni.labelCard("cdrom") == 0 {
		t.Error("uniform card for missing label is zero")
	}
}

func TestDescendantPairSelUsesSubtreeSums(t *testing.T) {
	st := dblpStore(t)
	e := NewEstimator(st, StatsAccurate)
	stats := st.Stats()
	// With accurate statistics the ancestor dimension is exact:
	// sel · C_anc · N must reproduce the collected subtree sum.
	sum, ok := stats.SubtreeSum("article")
	if !ok || sum == 0 {
		t.Fatal("no subtree sum collected for article")
	}
	sel := e.DescendantPairSel("article", true)
	got := sel * float64(stats.Card("article")) * e.Relation()
	if got < float64(sum)*0.99 || got > float64(sum)*1.01 {
		t.Errorf("pairs from sel = %.1f, want %d", got, sum)
	}
	gross := clamp01(e.AvgSubtree() / e.Relation())
	// Unlabeled ancestors fall back to the gross avgDepth measure.
	if s := e.DescendantPairSel("", false); s != gross {
		t.Errorf("fallback sel = %g, want %g", s, gross)
	}
	// A nonexistent ancestor label contributes no pairs.
	if s := e.DescendantPairSel("cdrom", true); s != 0 {
		t.Errorf("sel for missing label = %g, want 0", s)
	}
	// The engine 2 model (uniform stats) must not see the exact sums.
	u := NewEstimator(st, StatsUniform)
	if s := u.DescendantPairSel("article", true); s != clamp01(u.AvgSubtree()/u.Relation()) {
		t.Errorf("uniform-mode sel = %g uses accurate sums", s)
	}
}

func TestStructuralJoinBowsToSortCost(t *testing.T) {
	// Deep same-label nesting makes descendant pairs plentiful: the
	// sort-needing merge-join plan must lose to the order-preserving INL
	// plan once the repair sort is priced with realistic cardinalities.
	var b strings.Builder
	b.WriteString("<root>")
	for i := 0; i < 60; i++ {
		b.WriteString("<S><x/>")
	}
	for i := 0; i < 200; i++ {
		b.WriteString("<NN>t</NN>")
	}
	for i := 0; i < 60; i++ {
		b.WriteString("</S>")
	}
	b.WriteString("</root>")
	st := loadStore(t, b.String())
	const q = `for $s in //S return if (some $n in $s//NN satisfies true()) then <nn/> else ()`
	descOnly := M4()
	descOnly.StructuralEmit = EmitDesc
	out := explain(t, st, descOnly, q)
	if strings.Contains(out, "structural-join") {
		t.Errorf("sort-needing structural plan chosen over order-preserving INL:\n%s", out)
	}
	// With both emissions enumerated, a structural plan may return — but
	// only the anc-ordered variant (which needs no repair sort); the
	// deep nesting's buffering is priced instead of the sort.
	autoOut := explain(t, st, M4(), q)
	if strings.Contains(autoOut, "structural-join") && !strings.Contains(autoOut, "anc-ordered") {
		t.Errorf("descendant-ordered structural plan chosen under full M4:\n%s", autoOut)
	}
	if strings.Contains(autoOut, "sort [external") {
		t.Errorf("full M4 plan pays a repair sort:\n%s", autoOut)
	}
}

func TestM4PicksAncOrderedForAncestorFirstVartuple(t *testing.T) {
	st := dblpStore(t)
	// The most common milestone shape: ancestor bound first, descendant
	// second. The descendant-ordered merge leads with the descendant and
	// needs an external repair sort; the anc-ordered merge streams in
	// vartuple order. Full M4 must take the streaming plan.
	const q = `for $x in //article return for $y in $x//author return $y`
	out := explain(t, st, M4(), q)
	if !strings.Contains(out, "structural-join") || !strings.Contains(out, "anc-ordered") {
		t.Errorf("M4 did not choose the anc-ordered structural join:\n%s", out)
	}
	if strings.Contains(out, "sort [external") {
		t.Errorf("anc-ordered plan still pays a repair sort:\n%s", out)
	}
	// The forced descendant-order family must keep the PR2-era shape:
	// a structural join repaired by an external sort.
	descCfg, ok := ForceJoin("structural")
	if !ok {
		t.Fatal("ForceJoin(structural)")
	}
	descOut := explain(t, st, descCfg, q)
	if strings.Contains(descOut, "anc-ordered") {
		t.Errorf("forced desc family produced an anc-ordered join:\n%s", descOut)
	}
	if !strings.Contains(descOut, "sort [external") {
		t.Errorf("forced desc family plan has no repair sort:\n%s", descOut)
	}
	// The forced anc family mirrors it without the sort.
	ancCfg, ok := ForceJoin("structural-anc")
	if !ok {
		t.Fatal("ForceJoin(structural-anc)")
	}
	ancOut := explain(t, st, ancCfg, q)
	if !strings.Contains(ancOut, "anc-ordered") || strings.Contains(ancOut, "sort [external") {
		t.Errorf("forced anc family plan wrong:\n%s", ancOut)
	}
	// The anc plan must be estimated cheaper than the sort-repaired one.
	ancCost := exec.PlanCost(planFor(t, st, ancCfg, q))
	descCost := exec.PlanCost(planFor(t, st, descCfg, q))
	if ancCost >= descCost {
		t.Errorf("anc plan not estimated cheaper: %.1f vs %.1f", ancCost, descCost)
	}
}

func TestStructuralEmitEquivalence(t *testing.T) {
	// The emission order is a physical property: every emission
	// restriction must produce byte-identical answers.
	st := dblpStore(t)
	queries := []string{
		`for $x in //article return for $y in $x//author return $y`,
		`for $y in //author return for $x in $y/note return $x`,
		twig3Query,
		mixedTwigQuery,
		`for $x in //article return if (some $v in $x/volume satisfies true()) then for $y in $x//author return $y else ()`,
	}
	ancForced, _ := ForceJoin("structural-anc")
	descForced, _ := ForceJoin("structural")
	descOnly := M4()
	descOnly.StructuralEmit = EmitDesc
	cfgs := []Config{M4(), descOnly, ancForced, descForced}
	for _, q := range queries {
		var want string
		for i, cfg := range cfgs {
			xplan := planFor(t, st, cfg, q)
			tmp, err := st.TempDir()
			if err != nil {
				t.Fatal(err)
			}
			out, err := exec.Run(&exec.Ctx{Store: st, TempDir: tmp, Env: exec.Env{}}, xplan)
			if err != nil {
				t.Fatalf("%q config %d: %v", q, i, err)
			}
			if i == 0 {
				want = string(out)
				continue
			}
			if string(out) != want {
				t.Errorf("%q: config %d diverges\nwant: %.200s\ngot:  %.200s", q, i, want, out)
			}
		}
	}
}

func TestTextEquiJoinSelectivityUsesDistinctStat(t *testing.T) {
	st := dblpStore(t)
	stats := st.Stats()
	e := NewEstimator(st, StatsAccurate)
	// The statistic is collected: years repeat heavily, so the distinct
	// count must be far below the text-node count.
	vYear, ok := stats.DistinctTexts("year")
	if !ok || vYear <= 0 {
		t.Fatalf("no distinct-text stat for year: %d (ok=%v)", vYear, ok)
	}
	if vYear >= stats.Texts/4 {
		t.Fatalf("year distinct count %d not dense vs %d texts", vYear, stats.Texts)
	}
	// Known labels use 1/max(V_l, V_r); the near-unique guess only
	// survives when no label is known.
	got := e.TextEquiJoinSel("year", true, "year", true)
	if want := 1 / float64(vYear); got < want*0.99 || got > want*1.01 {
		t.Errorf("year=year selectivity %g, want %g", got, want)
	}
	fallback := 1 / float64(stats.Texts)
	if got := e.TextEquiJoinSel("", false, "", false); got != fallback {
		t.Errorf("label-free selectivity %g, want fallback %g", got, fallback)
	}
	if got <= fallback {
		t.Errorf("dense year join %g not estimated denser than the near-unique guess %g", got, fallback)
	}
	// One-sided labels still improve on the guess.
	oneSided := e.TextEquiJoinSel("year", true, "", false)
	if oneSided != 1/float64(vYear) {
		t.Errorf("one-sided selectivity %g, want %g", oneSided, 1/float64(vYear))
	}
	// Degraded statistics modes never see the statistic.
	u := NewEstimator(st, StatsUniform)
	if got := u.TextEquiJoinSel("year", true, "year", true); got != 1/float64(stats.Texts) {
		t.Errorf("uniform mode used the distinct stat: %g", got)
	}
	// The planner wires it through crossSelectivity: a year=year value
	// join between two labeled parents must be estimated at the dense
	// selectivity, not the near-unique one.
	p := New(st, M4())
	const q = `for $a in //article return for $ay in $a/year return for $at in $ay/text() return for $b in //inproceedings return for $by in $b/year return for $bt in $by/text() return if ($at = $bt) then <hit/> else ()`
	plan := tpm.Merge(tpm.Rewrite(xq.MustParse(q)))
	var psx *tpm.PSX
	var walk func(tpm.Plan)
	walk = func(pl tpm.Plan) {
		switch pl := pl.(type) {
		case *tpm.RelFor:
			psx = pl.Alg
			walk(pl.Body)
		case *tpm.Seq:
			for _, it := range pl.Items {
				walk(it)
			}
		case *tpm.Constr:
			walk(pl.Body)
		case *tpm.RuntimeIf:
			walk(pl.Then)
		}
	}
	walk(plan)
	if psx == nil {
		t.Fatal("no PSX in plan")
	}
	info := p.analyze(psx)
	var valueJoin *tpm.Cmp
	for i := range info.cross {
		c := info.cross[i]
		if c.Op == tpm.CmpEq && c.Left.Kind == tpm.OpAttr && c.Right.Kind == tpm.OpAttr &&
			c.Left.Attr.Col == tpm.ColValue && c.Right.Attr.Col == tpm.ColValue {
			valueJoin = &info.cross[i]
		}
	}
	if valueJoin == nil {
		t.Fatal("no text-value equi-join recovered from the query")
	}
	if got := p.residCondSel(info, *valueJoin); got != 1/float64(vYear) {
		t.Errorf("planner-level value-join selectivity %g, want %g (1/distinct(year))", got, 1/float64(vYear))
	}
}

func TestForcedTwigRemainderKeepsINL(t *testing.T) {
	st := dblpStore(t)
	// The covered twig (x, a, t, y) leads; the uncovered second component
	// (p, s with p//s) joins on top. Under the forced twig family UseINL
	// is off, but the joins above the seed keep the interval-bounded probe
	// for the uncovered s instead of a full-scan NL inner.
	const q = `for $x in //inproceedings return for $a in $x//author return for $t in $x//title return for $y in $x//year return if (some $p in //phdthesis satisfies some $s in $p//author satisfies true()) then $t else ()`
	forced, ok := ForceJoin("twig")
	if !ok {
		t.Fatal("ForceJoin(twig)")
	}
	out := explain(t, st, forced, q)
	if !strings.Contains(out, "twig-join") {
		t.Fatalf("forced twig family did not adopt the subtwig:\n%s", out)
	}
	if !strings.Contains(out, "inl-join") || !strings.Contains(out, ".in+1") {
		t.Errorf("uncovered remainder not served by an interval-bounded INL:\n%s", out)
	}
	// Same answer as the unforced planner.
	var got [2]string
	for i, cfg := range []Config{forced, M4()} {
		xplan := planFor(t, st, cfg, q)
		tmp, err := st.TempDir()
		if err != nil {
			t.Fatal(err)
		}
		res, err := exec.Run(&exec.Ctx{Store: st, TempDir: tmp, Env: exec.Env{}}, xplan)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		got[i] = string(res)
	}
	if got[0] != got[1] {
		t.Errorf("remainder INL changed the answer:\n%.200s\nvs\n%.200s", got[0], got[1])
	}
}

func TestDescendantSelectivityUsesAvgDepth(t *testing.T) {
	st := dblpStore(t)
	e := NewEstimator(st, StatsAccurate)
	pair := []tpm.Cmp{
		tpm.Gt(tpm.AttrOp("B", tpm.ColIn), tpm.AttrOp("A", tpm.ColIn)),
		tpm.Lt(tpm.AttrOp("B", tpm.ColOut), tpm.AttrOp("A", tpm.ColOut)),
	}
	sel := 1.0
	for _, c := range pair {
		sel *= e.condSelectivity(c)
	}
	want := e.AvgSubtree() / e.Relation()
	if sel < want/2 || sel > want*2 {
		t.Errorf("descendant pair selectivity %g, want ≈ %g (avgDepth/N)", sel, want)
	}
}

func TestPlansExecuteCorrectly(t *testing.T) {
	// Every configuration must produce the same answer on the Example 6
	// query (plan choice must never change semantics).
	st := dblpStore(t)
	const q = `for $x in //article return if (some $v in $x/volume satisfies true()) then for $y in $x//author return $y else ()`
	var want string
	for i, cfg := range []Config{M4(), M4BadStats(), M3(), NaiveTPM()} {
		xplan := planFor(t, st, cfg, q)
		tmp, err := st.TempDir()
		if err != nil {
			t.Fatal(err)
		}
		out, err := exec.Run(&exec.Ctx{Store: st, TempDir: tmp, Env: exec.Env{}}, xplan)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if i == 0 {
			want = string(out)
			continue
		}
		if string(out) != want {
			t.Errorf("config %d result diverges (%d vs %d bytes)", i, len(out), len(want))
		}
	}
	if want == "" {
		t.Error("Example 6 query returned no results; generator shape wrong?")
	}
}

// findRelFor returns the first XRelFor in the plan.
func findRelFor(p exec.XPlan) *exec.XRelFor {
	switch p := p.(type) {
	case *exec.XRelFor:
		return p
	case *exec.XConstr:
		return findRelFor(p.Body)
	case *exec.XSeq:
		for _, it := range p.Items {
			if rf := findRelFor(it); rf != nil {
				return rf
			}
		}
	case *exec.XIf:
		return findRelFor(p.Then)
	}
	return nil
}

// leftmostScan descends to the leading scan of a physical tree.
func leftmostScan(n exec.PlanNode) *exec.Scan {
	for {
		if s, ok := n.(*exec.Scan); ok {
			return s
		}
		ch := n.Children()
		if len(ch) == 0 {
			return nil
		}
		n = ch[0]
	}
}
