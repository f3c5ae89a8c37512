package opt

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"xqdb/internal/limit"
	"xqdb/internal/tpm"
	"xqdb/internal/xmlgen"
	"xqdb/internal/xq"
)

// TestSearchWorkIsPolynomialInSubsets counts the joinNext calls the
// join-order search makes on 7- and 8-relation conjunctions and holds them
// to T·n²·2ⁿ for n relations and T toggle recipes. Costing every join
// order instead takes T·(n−1)·n! of them (1.7 million at 8 relations and
// six recipes).
func TestSearchWorkIsPolynomialInSubsets(t *testing.T) {
	st := dblpStore(t)
	for _, c := range []struct {
		rels int
		q    string
	}{
		{7, `for $x in //phdthesis return for $a in $x/author return for $t in $x/title return for $y in $x/year return for $s in $x/school return for $n in //note return for $m in $n/text() return $a`},
		{8, `for $d in //dblp return for $x in $d/phdthesis return for $a in $x/author return for $t in $x/title return for $y in $x/year return for $s in $x/school return for $n in //note return for $m in $n/text() return $a`},
		// Existential relations waiting on one vartuple relation: the
		// interesting orders the key must tell apart multiply here.
		{7, `for $x in //phdthesis return if (some $a in $x/author satisfies true() and some $t in $x/title satisfies true() and some $y in $x/year satisfies true() and some $s in $x/school satisfies true() and some $n in //note satisfies true() and some $e in $x/ee satisfies true()) then $x else ()`},
		{8, `for $d in //dblp return for $x in $d//phdthesis return if (some $a in $x/author satisfies true() and some $t in $x/title satisfies true() and some $y in $x/year satisfies true() and some $s in $x/school satisfies true() and some $n in //note satisfies true() and some $e in $x/ee satisfies true()) then $x else ()`},
	} {
		ps := psxs(tpm.Merge(tpm.Rewrite(xq.MustParse(c.q))))
		if len(ps) != 1 || len(ps[0].Rels) != c.rels {
			t.Fatalf("%q: want one conjunction of %d relations", c.q, c.rels)
		}
		p := New(st, M4())
		info := p.analyze(ps[0])
		if _, _, err := p.bestPlan(ps[0], info); err != nil {
			t.Fatal(err)
		}
		n, recipes := c.rels, len(p.joinOptions(info))
		if bound := recipes * n * n << n; info.joins > bound {
			t.Errorf("%d relations: %d joinNext calls, bound %d·%d²·2^%d = %d", n, info.joins, recipes, n, n, bound)
		} else {
			t.Logf("%d relations: %d joinNext calls (bound %d)", n, info.joins, bound)
		}
	}
}

// TestPlanAllocations holds planning the costliest compile-cold template
// (a twig plus a value join, five relations) to a fifth of the 575 577
// allocations costing every join order took.
func TestPlanAllocations(t *testing.T) {
	st := loadStore(t, xmlgen.DBLP(xmlgen.DBLPConfig{Entries: 2000, Seed: 1}))
	const q = `for $x in //phdthesis return for $a in $x/author/text() return for $n in //note return if ($a = $n/text()) then <same/> else ()`
	plan := tpm.Merge(tpm.Rewrite(xq.MustParse(q)))
	p := New(st, M4())
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := p.Plan(plan); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 575577/5 {
		t.Errorf("planning allocates %.0f times, ceiling %d", allocs, 575577/5)
	}
	t.Logf("%.0f allocations per plan", allocs)
}

// wideQueries are two conjunctions of twenty relations, whose subsets no
// search could visit: nineteen for-loops and nineteen existentials over
// one phdthesis.
func wideQueries() []string {
	labels := []string{"author", "title", "year", "school", "ee", "note", "volume", "pages", "url"}
	var forLoops, some strings.Builder
	forLoops.WriteString(`for $x in //phdthesis return `)
	some.WriteString(`for $x in //phdthesis return if (`)
	for i := 0; i < 19; i++ {
		fmt.Fprintf(&forLoops, `for $v%d in $x/%s return `, i, labels[i%len(labels)])
		if i > 0 {
			some.WriteString(` and `)
		}
		fmt.Fprintf(&some, `some $v%d in $x/%s satisfies true()`, i, labels[i%len(labels)])
	}
	forLoops.WriteString(`$v0`)
	some.WriteString(`) then $x else ()`)
	return []string{forLoops.String(), some.String()}
}

// TestSearchWorkIsBounded requires the planner to stop the search on a
// twenty-relation conjunction at maxSearchJoins and to plan it in the
// syntactic join order.
func TestSearchWorkIsBounded(t *testing.T) {
	st := dblpStore(t)
	for _, q := range wideQueries() {
		ps := psxs(tpm.Merge(tpm.Rewrite(xq.MustParse(q))))
		if len(ps) != 1 || len(ps[0].Rels) != 20 {
			t.Fatalf("%q: want one conjunction of 20 relations", q)
		}
		p := New(st, M4())
		info := p.analyze(ps[0])
		node, _, err := p.bestPlan(ps[0], info)
		if err != nil || node == nil {
			t.Fatalf("no plan: %v", err)
		}
		// The search overruns the bound by at most one state's
		// extensions; the fallback builds the syntactic order under
		// every recipe, on the plain relations and on the seed.
		n, recipes := len(ps[0].Rels), len(p.joinOptions(info))
		if bound := maxSearchJoins + n + 2*recipes*n; info.joins > bound {
			t.Errorf("%d joinNext calls, bound %d", info.joins, bound)
		}
		if got, want := leftmostScan(node).Alias, ps[0].Rels[0]; got != want {
			t.Errorf("plan leads with %s, want the syntactic order's %s:\n%s", got, want, explainNode(node))
		}
	}
}

// TestPlanningStopsAtDeadline plans the twenty-relation conjunctions under
// a deadline that has passed: planning must fail with limit.ErrTimeout.
func TestPlanningStopsAtDeadline(t *testing.T) {
	st := dblpStore(t)
	for _, q := range wideQueries() {
		p := New(st, M4())
		p.Budget = limit.NewBudget(0, limit.After(time.Nanosecond))
		time.Sleep(time.Millisecond)
		if _, err := p.Plan(tpm.Merge(tpm.Rewrite(xq.MustParse(q)))); !errors.Is(err, limit.ErrTimeout) {
			t.Errorf("Plan past its deadline: err = %v, want %v", err, limit.ErrTimeout)
		}
	}
}

// TestPlanningStopsWhenCanceled plans the twenty-relation conjunctions
// under a budget canceled beforehand: planning must fail with
// limit.ErrCanceled.
func TestPlanningStopsWhenCanceled(t *testing.T) {
	st := dblpStore(t)
	for _, q := range wideQueries() {
		p := New(st, M4())
		p.Budget = limit.NewBudget(0, nil)
		p.Budget.Cancel()
		if _, err := p.Plan(tpm.Merge(tpm.Rewrite(xq.MustParse(q)))); !errors.Is(err, limit.ErrCanceled) {
			t.Errorf("Plan under a canceled budget: err = %v, want %v", err, limit.ErrCanceled)
		}
	}
}

// TestAlikeKeysTheTail checks the part of alike's key that decides what a
// later eager projection cuts: the tail after the last vartuple relation,
// as runs of relations waiting for the same partners, and the least
// rowsBefore of each run. x is the vartuple relation; p and q wait for z,
// r waits for w. Each pair of states joins the same relations to the same
// rows; a pair is alike exactly when joining z and projecting leaves both
// the same order and rows.
func TestAlikeKeysTheTail(t *testing.T) {
	const x, p, q, r, z, w = 0, 1, 2, 3, 4, 5
	info := &psxInfo{rels: []string{"x", "p", "q", "r", "z", "w"}, bind: bit(x), bindIdx: []int{x}, nbr: make([]relSet, 6)}
	for _, e := range [][2]int{{x, p}, {x, q}, {x, r}, {p, z}, {q, z}, {r, w}} {
		info.crossRel = append(info.crossRel, e)
		info.nbr[e[0]] |= bit(e[1])
		info.nbr[e[1]] |= bit(e[0])
	}
	// state joins order with NL joins, the i-th prefix estimated at rows[i].
	state := func(order []int, rows ...float64) *built {
		b := &built{rel: order[0], set: bit(order[0]), schema: bit(order[0]), orderSeq: order[:1:1], rows: rows[0]}
		for i, rel := range order[1:] {
			b = &built{prev: b, rel: rel, set: b.set | bit(rel), schema: b.schema | bit(rel),
				orderSeq: appendSeq(b.orderSeq, rel), rows: rows[i+1]}
		}
		return b
	}
	pl := &Planner{cfg: M4()}
	joinZ := func(b *built) *built {
		nb := &built{prev: b, rel: z, set: b.set | bit(z), schema: b.schema | bit(z),
			orderSeq: appendSeq(b.orderSeq, z), rows: 100, usedEager: b.usedEager}
		pl.eagerProject(info, nb)
		return nb
	}
	for _, c := range []struct {
		name  string
		a, b  *built
		alike bool
	}{
		// Tails [p q][r] and [p][r][q]: after z, only the second can cut q.
		{"runs", state([]int{x, p, q, r}, 10, 20, 40, 80), state([]int{x, p, r, q}, 10, 20, 40, 80), false},
		// One run {p, q} each, least rowsBefore 10 and 5: z cuts both, to
		// different rows.
		{"minBefore", state([]int{x, p, q}, 10, 20, 40), state([]int{x, q, p}, 10, 5, 40), false},
		// One run {p, q} each, least rowsBefore 10 on both.
		{"same", state([]int{x, p, q}, 10, 20, 40), state([]int{x, q, p}, 10, 20, 40), true},
	} {
		if got := alike(info, c.a, c.b); got != c.alike {
			t.Errorf("%s: alike = %v, want %v", c.name, got, c.alike)
		}
		za, zb := joinZ(c.a), joinZ(c.b)
		if same := equalSeq(za.orderSeq, zb.orderSeq) && za.rows == zb.rows; same != c.alike {
			t.Errorf("%s: after z, orders %v/%v, rows %v/%v: extend alike = %v, want %v",
				c.name, za.orderSeq, zb.orderSeq, za.rows, zb.rows, same, c.alike)
		}
	}
}
