package opt

import (
	"fmt"
	"math"

	"xqdb/internal/exec"
	"xqdb/internal/limit"
	"xqdb/internal/recfile"
	"xqdb/internal/store"
	"xqdb/internal/tpm"
	"xqdb/internal/xasr"
)

// spoolBytesPerRow approximates the memory footprint of one spooled row.
const spoolBytesPerRow = 40

// Planner compiles TPM plans into executable physical plans for one store.
type Planner struct {
	st  *store.Store
	cfg Config
	est *Estimator
	// Budget, when set, is the query's budget: the join-order search polls
	// it, so Plan fails with limit.ErrTimeout once its deadline passes and
	// with limit.ErrCanceled once the query is canceled.
	Budget *limit.Budget
}

// New returns a planner using the given configuration.
func New(st *store.Store, cfg Config) *Planner {
	return &Planner{st: st, cfg: cfg, est: NewEstimator(st, cfg.Stats)}
}

// spoolBudget is the operator memory budget the cost model prices
// buffering against (SpoolBudget, defaulting to the executor's default).
func (p *Planner) spoolBudget() float64 {
	if p.cfg.SpoolBudget > 0 {
		return float64(p.cfg.SpoolBudget)
	}
	return float64(recfile.DefaultSortBudget)
}

// Plan compiles a TPM plan into an executable plan, choosing a physical
// operator tree for every relfor.
func (p *Planner) Plan(t tpm.Plan) (exec.XPlan, error) {
	switch t := t.(type) {
	case tpm.Empty:
		return exec.XEmpty{}, nil
	case *tpm.Text:
		return &exec.XText{Content: t.Content}, nil
	case *tpm.Emit:
		return &exec.XEmit{Var: t.Var}, nil
	case *tpm.Constr:
		body, err := p.Plan(t.Body)
		if err != nil {
			return nil, err
		}
		return &exec.XConstr{Label: t.Label, Body: body}, nil
	case *tpm.Seq:
		items := make([]exec.XPlan, len(t.Items))
		for i, it := range t.Items {
			x, err := p.Plan(it)
			if err != nil {
				return nil, err
			}
			items[i] = x
		}
		return &exec.XSeq{Items: items}, nil
	case *tpm.RuntimeIf:
		then, err := p.Plan(t.Then)
		if err != nil {
			return nil, err
		}
		return &exec.XIf{Cond: t.Cond, Then: then}, nil
	case *tpm.RelFor:
		root, err := p.PlanPSX(t.Alg)
		if err != nil {
			return nil, err
		}
		body, err := p.Plan(t.Body)
		if err != nil {
			return nil, err
		}
		return &exec.XRelFor{Vars: t.Vars, Root: root, Body: body}, nil
	default:
		return nil, fmt.Errorf("opt: unknown plan node %T", t)
	}
}

// psxInfo is the precomputed analysis of one PSX expression. The join-order
// search names relations by their index into rels; aliases reappear only
// where operator nodes are built.
type psxInfo struct {
	rels     []string
	relIdx   map[string]int
	all      relSet
	bindRels []string // vartuple relations, in vartuple order
	bindIdx  []int    // bindRels as relation indices (-1 outside rels)
	bindPos  []int    // per relation: its last position in bindRels, -1 if none
	bind     relSet
	local    [][]tpm.Cmp // per relation: its single-relation conditions
	cross    []tpm.Cmp
	crossRel [][2]int // per cross condition: its two relations
	nbr      []relSet // per relation: the relations it shares a cross condition with
	// structural are the structural join predicates recovered from the
	// cross conditions (descendant interval pairs, parent/child
	// equalities), the units the structural merge join can take over.
	structural []tpm.StructuralPred
	spRel      [][2]int // per structural predicate: its ancestor and descendant relation
	// ids interns every condition by its text, so conditions that render
	// alike are one condition to every subsumption test.
	ids  map[tpm.Cmp]int
	nids int
	// filteredRows estimates each relation after local selections.
	filteredRows []float64
	access       []accessChoice // best standalone access path per relation
	label        []string       // element label per relation (see aliasLabel)
	labeled      []bool
	// Memos of the join-order search, keyed by the joined relation and the
	// part of the prefix its conditions reach.
	joinSel map[memoKey]float64
	inl     map[memoKey]*accessChoice
	joins   int // joinNext calls
}

type memoKey struct {
	r              int
	prefix, schema relSet
}

// rel returns the index of alias, or -1 for an alias outside the PSX.
func (info *psxInfo) rel(alias string) int {
	if i, ok := info.relIdx[alias]; ok {
		return i
	}
	return -1
}

func (p *Planner) analyze(psx *tpm.PSX) *psxInfo {
	n := len(psx.Rels)
	info := &psxInfo{
		rels:         psx.Rels,
		relIdx:       make(map[string]int, n),
		all:          relSet(1)<<uint(n) - 1,
		bindPos:      make([]int, n),
		local:        make([][]tpm.Cmp, n),
		nbr:          make([]relSet, n),
		ids:          make(map[tpm.Cmp]int, len(psx.Conds)),
		filteredRows: make([]float64, n),
		access:       make([]accessChoice, n),
		label:        make([]string, n),
		labeled:      make([]bool, n),
		joinSel:      map[memoKey]float64{},
		inl:          map[memoKey]*accessChoice{},
	}
	if n == maxRels {
		info.all = ^relSet(0)
	}
	for i, r := range psx.Rels {
		info.relIdx[r] = i
		info.bindPos[i] = -1
	}
	for i, b := range psx.Bind {
		r := info.rel(b.Rel)
		info.bindRels = append(info.bindRels, b.Rel)
		info.bindIdx = append(info.bindIdx, r)
		if r >= 0 {
			info.bindPos[r] = i
			info.bind |= bit(r)
		}
	}
	texts := make(map[string]int, len(psx.Conds))
	for _, c := range psx.Conds {
		if _, ok := info.ids[c]; !ok {
			s := c.String()
			id, ok := texts[s]
			if !ok {
				id = len(texts)
				texts[s] = id
			}
			info.ids[c] = id
		}
		rels := c.Rels()
		switch len(rels) {
		case 1:
			if r := info.rel(rels[0]); r >= 0 {
				info.local[r] = append(info.local[r], c)
			}
		case 2:
			a, b := info.rel(rels[0]), info.rel(rels[1])
			info.cross = append(info.cross, c)
			info.crossRel = append(info.crossRel, [2]int{a, b})
			if a >= 0 && b >= 0 {
				info.nbr[a] |= bit(b)
				info.nbr[b] |= bit(a)
			}
		default:
			// Constant conditions cannot arise from the rewriting; keep
			// them on the first relation defensively.
			if n > 0 {
				info.local[0] = append(info.local[0], c)
			}
		}
	}
	info.nids = len(texts)
	info.structural = tpm.FindStructural(info.cross)
	for _, sp := range info.structural {
		info.spRel = append(info.spRel, [2]int{info.rel(sp.Anc), info.rel(sp.Desc)})
	}
	for i, r := range psx.Rels {
		info.filteredRows[i] = p.est.Relation() * p.est.PairSelectivity(info.local[i])
		info.access[i] = p.bestAccess(info, r, info.local[i])
		info.label[i], info.labeled[i] = aliasLabel(r, info.local[i])
	}
	return info
}

// condSet is a set of interned conditions (psxInfo.ids).
type condSet []uint64

func (info *psxInfo) condSet(conds []tpm.Cmp) condSet {
	s := make(condSet, (info.nids+63)/64)
	for _, c := range conds {
		s.add(info.ids[c])
	}
	return s
}

func (s condSet) has(id int) bool { return s[id/64]&(1<<uint(id%64)) != 0 }

func (s condSet) add(id int) { s[id/64] |= 1 << uint(id%64) }

// PlanPSX chooses a physical plan for one PSX expression. Cost-based
// configurations search the join orders (vartuple relations constrained to
// vartuple order unless a final sort is permitted) by dynamic programming
// over relation subsets; otherwise the syntactic order is kept.
func (p *Planner) PlanPSX(psx *tpm.PSX) (exec.PlanNode, error) {
	if len(psx.Rels) == 0 {
		return nil, fmt.Errorf("opt: PSX without relations: %s", psx)
	}
	if len(psx.Rels) > maxRels {
		return nil, fmt.Errorf("%w: %d, at most %d", ErrTooManyRelations, len(psx.Rels), maxRels)
	}
	if err := p.Budget.Check(); err != nil {
		return nil, err
	}
	info := p.analyze(psx)
	if !p.cfg.CostBased {
		t := joinToggles{structural: p.cfg.UseStructural, structAnc: p.cfg.StructuralEmit == EmitAnc}
		node, _ := p.finalize(info, p.buildOrder(info, nil, syntacticOrder(info), t))
		return node, nil
	}
	node, _, err := p.bestPlan(psx, info)
	return node, err
}

// bestPlan runs the cost-based auction: the holistic twig candidate opens
// it, then the join-order search runs once per toggle recipe, over the
// plain relations and over the partial-twig seed. Ties keep the earlier
// candidate: the twig, then plans without the seed, then the earlier join
// order (by index into psx.Rels), then the earlier toggle recipe.
func (p *Planner) bestPlan(psx *tpm.PSX, info *psxInfo) (exec.PlanNode, float64, error) {
	var twig exec.PlanNode
	bestCost := math.Inf(1)
	if tn, tc, ok := p.twigCandidate(psx, info); ok {
		twig, bestCost = tn, tc
	}
	twigCost := bestCost
	seed := p.partialTwigSeed(psx, info)
	opts := p.joinOptions(info)
	// Every cost term is non-negative, so no plan that could still win
	// passes a value above ub on its way, and rounding shrinks a cost gap
	// by at most an ulp of ub per addition — a few hundred additions per
	// plan at most. A state cheaper by margin stays cheaper.
	order := syntacticOrder(info)
	ub := bestCost
	if c, _, ok := p.finish(info, p.buildOrder(info, nil, order, opts[0])); ok && c < ub {
		ub = c
	}
	margin := ub * 0x1p-40
	var best *built
	for _, t := range opts {
		b, cost, err := p.search(info, t, seed, margin)
		if err == errSearchBound {
			best, bestCost = p.syntacticBest(info, order, opts, seed, twigCost)
			break
		}
		if err != nil {
			return nil, 0, err
		}
		if b != nil && (cost < bestCost || best != nil && cost == bestCost && earlier(b, best)) {
			best, bestCost = b, cost
		}
	}
	if best != nil {
		node, cost := p.finalize(info, best)
		return node, cost, nil
	}
	if twig != nil {
		return twig, bestCost, nil
	}
	// No order produced a valid plan (should not happen — the syntactic
	// order is always valid); fall back.
	node, cost := p.finalize(info, p.buildOrder(info, nil, order, joinToggles{}))
	return node, cost, nil
}

// syntacticBest is the auction past the search's work bound: the
// syntactic join order, on the plain relations and on top of the seed,
// under every toggle recipe. It returns the cheapest complete state that
// costs less than bound, or nil.
func (p *Planner) syntacticBest(info *psxInfo, order []int, opts []joinToggles, seed *built, bound float64) (*built, float64) {
	var best *built
	for _, t := range opts {
		cands := []*built{p.buildOrder(info, nil, order, t)}
		if seed != nil {
			cands = append(cands, p.buildOrder(info, seed, order, t))
		}
		for _, b := range cands {
			if c, _, ok := p.finish(info, b); ok && c < bound {
				best, bound = b, c
			}
		}
	}
	return best, bound
}

// joinToggles selects which optional operator families one search may
// use. Enumerating the toggles (instead of deciding greedily inside
// joinNext) lets finalize-level costs arbitrate: a per-join win for a
// non-order-preserving operator can lose the plan comparison once the
// repair sort is priced in — and, symmetrically, the anc-ordered
// structural emission can win a plan comparison its per-join buffering
// cost loses, by dropping that sort entirely.
type joinToggles struct {
	bnl        bool
	structural bool
	// structAnc selects the ancestor-ordered (Stack-Tree-Anc) emission
	// for the structural joins of this run; with it off they emit in
	// descendant order (Stack-Tree-Desc).
	structAnc bool
}

func (p *Planner) joinOptions(info *psxInfo) []joinToggles {
	// The structural toggles only multiply the search when the
	// expression actually contains structural predicates — plain queries
	// must not pay double planning time.
	var structOpts []joinToggles
	if p.cfg.UseStructural && len(info.structural) > 0 {
		if p.cfg.StructuralEmit != EmitAnc {
			structOpts = append(structOpts, joinToggles{structural: true})
		}
		if p.cfg.StructuralEmit != EmitDesc {
			structOpts = append(structOpts, joinToggles{structural: true, structAnc: true})
		}
	}
	opts := []joinToggles{{}}
	opts = append(opts, structOpts...)
	if p.cfg.UseBNL && p.cfg.allow(OrderSort) {
		opts = append(opts, joinToggles{bnl: true})
		for _, s := range structOpts {
			s.bnl = true
			opts = append(opts, s)
		}
	}
	return opts
}

// syntacticOrder mirrors the query structure: vartuple relations first in
// vartuple order, then condition relations in their syntactic order.
func syntacticOrder(info *psxInfo) []int {
	var seen relSet
	var order []int
	for _, r := range info.bindIdx {
		if r >= 0 && !seen.has(r) {
			seen |= bit(r)
			order = append(order, r)
		}
	}
	for r := range info.rels {
		if !seen.has(r) {
			seen |= bit(r)
			order = append(order, r)
		}
	}
	return order
}

// buildOrder joins the relations of order in that order onto start, or
// from a scan of the first when start is nil, skipping those start holds.
func (p *Planner) buildOrder(info *psxInfo, start *built, order []int, t joinToggles) *built {
	b := start
	if b == nil {
		b, order = p.leaf(info, order[0]), order[1:]
	}
	for _, r := range order {
		if !b.set.has(r) {
			b = p.joinNext(info, b, r, t)
		}
	}
	return b
}

// applicableCross returns the cross conditions joining r to the prefix s.
func applicableCross(info *psxInfo, s relSet, r int) []tpm.Cmp {
	var out []tpm.Cmp
	for i, c := range info.cross {
		a, b := info.crossRel[i][0], info.crossRel[i][1]
		if a == r && s.has(b) || b == r && s.has(a) {
			out = append(out, c)
		}
	}
	return out
}

// joinSelectivity is crossSelectivity of the conditions joining r to the
// prefix s, memoized on the neighbours of r the prefix holds.
func (p *Planner) joinSelectivity(info *psxInfo, s relSet, r int) float64 {
	k := memoKey{r: r, prefix: s & info.nbr[r]}
	sel, ok := info.joinSel[k]
	if !ok {
		sel = p.crossSelectivity(info, applicableCross(info, s, r))
		info.joinSel[k] = sel
	}
	return sel
}

// crossSelectivity estimates the combined selectivity of the cross
// conditions joining a relation to the prefix. Descendant interval pairs
// are recognized and estimated together from the per-label subtree
// statistics (DescendantPairSel) — per-condition multiplication wildly
// underestimates pair counts on deep documents; remaining conditions
// multiply independently as before.
func (p *Planner) crossSelectivity(info *psxInfo, cross []tpm.Cmp) float64 {
	if len(info.structural) == 0 {
		// Without structural predicates no parent labels are recoverable,
		// so the text-equi-join refinement cannot apply either.
		sel := 1.0
		for _, c := range cross {
			sel *= p.est.condSelectivity(c)
		}
		return sel
	}
	inCross := info.condSet(cross)
	covered := info.condSet(nil)
	sel := 1.0
	for i := range info.structural {
		sp := &info.structural[i]
		if sp.Axis != tpm.AxisDescendant {
			continue
		}
		all := true
		for _, c := range sp.Conds {
			if id := info.ids[c]; !inCross.has(id) || covered.has(id) {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		anc := info.spRel[i][0]
		if anc >= 0 {
			sel *= p.est.DescendantPairSel(info.label[anc], info.labeled[anc])
		} else {
			sel *= p.est.DescendantPairSel("", false)
		}
		for _, c := range sp.Conds {
			covered.add(info.ids[c])
		}
	}
	for _, c := range cross {
		if !covered.has(info.ids[c]) {
			sel *= p.residCondSel(info, c)
		}
	}
	return sel
}

// residCondSel estimates one residual cross condition. Text-value
// equi-joins whose operands' parent element labels are recoverable from
// child-axis structural predicates (the $x/author/text() shape) are
// priced from the per-label distinct-text-value statistic instead of the
// near-unique 1/texts guess; everything else keeps condSelectivity.
func (p *Planner) residCondSel(info *psxInfo, c tpm.Cmp) float64 {
	if c.Op == tpm.CmpEq && c.Left.Kind == tpm.OpAttr && c.Right.Kind == tpm.OpAttr &&
		c.Left.Attr.Col == tpm.ColValue && c.Right.Attr.Col == tpm.ColValue {
		ll, lok := textParentLabel(info, info.rel(c.Left.Attr.Rel))
		rl, rok := textParentLabel(info, info.rel(c.Right.Attr.Rel))
		if lok || rok {
			return p.est.TextEquiJoinSel(ll, lok, rl, rok)
		}
	}
	return p.est.condSelectivity(c)
}

// textParentLabel recovers the element label a text-typed relation hangs
// under: a child-axis structural predicate names its parent relation,
// whose local conditions pin the label. ok is false for non-text
// relations and when no labeled parent is found — the distinct-text
// statistic counts direct text children, so looser ancestors do not
// qualify.
func textParentLabel(info *psxInfo, r int) (string, bool) {
	if r < 0 {
		return "", false
	}
	parts := classify(info.rels[r], info.local[r], nil)
	if parts.typeEq == nil || parts.typeEq.norm.Right.Type != xasr.TypeText {
		return "", false
	}
	for i := range info.structural {
		if info.structural[i].Axis != tpm.AxisChild || info.spRel[i][1] != r {
			continue
		}
		if anc := info.spRel[i][0]; anc >= 0 && info.labeled[anc] {
			return info.label[anc], true
		}
	}
	return "", false
}

// aliasLabel returns the element label an alias is filtered to by its
// local conditions, if any.
func aliasLabel(alias string, local []tpm.Cmp) (string, bool) {
	parts := classify(alias, local, nil)
	if parts.typeEq != nil && parts.valueEq != nil && parts.typeEq.norm.Right.Type == xasr.TypeElem {
		return parts.valueEq.norm.Right.Str, true
	}
	return "", false
}

// structuralCandidate returns the index of a structural predicate joining
// r to the current prefix that the merge join can run, or -1.
// Requirements: the prefix stream must be sorted by the partner
// relation's in-label (true exactly when that relation leads orderSeq),
// and adopting an r whose output would lead with r's document order — the
// descendant side under descendant emission, the ancestor side under
// ancestor emission — must leave the plan finalizable (a final sort can
// repair it, or the vartuple relations happen to lead with r). The
// predicate's conditions are all pending: they join r, which is not in
// the prefix yet.
func (p *Planner) structuralCandidate(info *psxInfo, b *built, r int, ancEmit bool) int {
	if !p.cfg.UseStructural || b.orderSeq == nil {
		return -1
	}
	for i, sr := range info.spRel {
		anc, desc := sr[0], sr[1]
		var other int
		switch {
		case anc == r && desc >= 0 && b.set.has(desc):
			other = desc
		case desc == r && anc >= 0 && b.set.has(anc):
			other = anc
		default:
			continue
		}
		if b.orderSeq[0] != other {
			continue
		}
		rLeads := (desc == r) != ancEmit
		if rLeads && !p.cfg.allow(OrderSort) && !leadsVartuple(info.bindIdx, r, b.orderSeq) {
			continue
		}
		return i
	}
	return -1
}

// leadsVartuple reports whether the vartuple is a prefix of r followed by
// seq.
func leadsVartuple(bind []int, r int, seq []int) bool {
	if len(bind) > len(seq)+1 {
		return false
	}
	return len(bind) == 0 || bind[0] == r && isPrefix(bind[1:], seq)
}

// twigStreams builds one best-access, document-ordered scan per twig node
// with local selections pushed down, accumulating the stream costs — the
// construction shared by the full and partial twig candidates.
func (p *Planner) twigStreams(info *psxInfo, tw *tpm.Twig) (streams []exec.PlanNode, streamCost, streamRows, rowsProduct float64) {
	streams = make([]exec.PlanNode, len(tw.Nodes))
	rowsProduct = 1.0
	for i, n := range tw.Nodes {
		r := info.rel(n.Alias)
		ac := info.access[r]
		rows := info.filteredRows[r]
		scan := exec.NewScan(n.Alias, ac.access, ac.residual)
		scan.Est_ = exec.Est{Rows: rows, Cost: ac.cost}
		streams[i] = scan
		streamCost += ac.cost
		streamRows += rows
		rowsProduct *= rows
	}
	return streams, streamCost, streamRows, rowsProduct
}

// residualConds returns the cross conditions the twig edges do not
// subsume: the per-row filters the TwigJoin evaluates on merged rows.
func residualConds(info *psxInfo, tw *tpm.Twig, cross []tpm.Cmp) []tpm.Cmp {
	subsumed := info.condSet(tw.Conds)
	var resid []tpm.Cmp
	for _, c := range cross {
		if !subsumed.has(info.ids[c]) {
			resid = append(resid, c)
		}
	}
	return resid
}

// twigCandidate builds the holistic twig-join plan for a PSX whose
// structural predicates assemble into one connected twig covering every
// relation. Each twig node gets its best standalone (document-ordered)
// access path with local selections pushed down; cross conditions not
// subsumed by the twig edges stay as residual per-row filters on the
// join. The operator emits in vartuple order, so only the deduplicating
// projection of the order-preserving finalize branch goes on top — no
// repair sort. ok is false when the twig machinery does not apply (knob
// off, fewer than three relations — the binary merge join owns those —
// a nullary pass-fail check, or disconnected predicates).
func (p *Planner) twigCandidate(psx *tpm.PSX, info *psxInfo) (exec.PlanNode, float64, bool) {
	if !p.cfg.UseTwig || len(info.bindRels) == 0 || len(psx.Rels) < 3 {
		return nil, 0, false
	}
	tw, ok := tpm.AssembleTwig(info.structural, psx.Rels)
	if !ok {
		return nil, 0, false
	}
	streams, streamCost, streamRows, rowsProduct := p.twigStreams(info, tw)
	outRows := rowsProduct * p.crossSelectivity(info, info.cross)
	if outRows < 0.01 {
		outRows = 0.01
	}
	cost := TwigJoinCost(streamCost, streamRows, outRows, outRows) +
		SpillSurcharge(outRows, spoolBytesPerRow*float64(len(tw.Nodes)), p.spoolBudget())
	join := exec.NewTwigJoin(streams, *tw, residualConds(info, tw, info.cross), info.bindRels)
	join.Est_ = exec.Est{Rows: outRows, Cost: cost}
	proj := exec.NewProject(join, info.bindRels, true)
	cost += outRows * cpuPerTuple
	proj.Est_ = exec.Est{Rows: outRows, Cost: cost}
	return proj, cost, true
}

// partialTwigSeed builds the leading sub-plan for partial-twig adoption: a
// holistic twig join over the maximal connected subtwig of the
// conjunction's structural predicates, acting as a composite "base
// relation" the remaining relations join on top of. The twig emits sorted
// by the in-labels of the covered vartuple relations (in vartuple order),
// so orderSeq propagates into the binary machinery exactly as for a
// leading scan. Cross conditions entirely inside the covered set are
// subsumed by the twig edges or evaluated as residual filters on the
// operator; conditions reaching an uncovered relation stay pending for
// the joins above. nil when the machinery does not apply (knobs off, a
// nullary pass-fail check, or no subtwig of three or more nodes — smaller
// patterns belong to the binary merge join).
func (p *Planner) partialTwigSeed(psx *tpm.PSX, info *psxInfo) *built {
	if !p.cfg.UseTwig || !p.cfg.UsePartialTwig || len(info.bindRels) == 0 || len(psx.Rels) < 3 {
		return nil
	}
	tw, _, uncovered, ok := tpm.AssembleMaxTwig(info.structural, psx.Rels)
	if !ok || len(tw.Nodes) < 3 {
		return nil
	}
	if len(uncovered) == 0 {
		if _, full := tpm.AssembleTwig(info.structural, psx.Rels); full {
			// twigCandidate already enters exactly this plan into the
			// auction; only DAG-ish shapes AssembleTwig rejects (residual
			// second-parent edges) are worth seeding at full coverage.
			return nil
		}
	}
	var covered relSet
	for _, n := range tw.Nodes {
		covered |= bit(info.rel(n.Alias))
	}
	streams, streamCost, streamRows, rowsProduct := p.twigStreams(info, tw)
	// Cross conditions entirely inside the covered set: subsumed by the
	// twig edges, or residual per-row filters on the operator.
	var intra []tpm.Cmp
	for i, c := range info.cross {
		if a, b := info.crossRel[i][0], info.crossRel[i][1]; a >= 0 && b >= 0 && covered.has(a) && covered.has(b) {
			intra = append(intra, c)
		}
	}
	outRows := rowsProduct * p.crossSelectivity(info, intra)
	if outRows < 0.01 {
		outRows = 0.01
	}
	// The emission order: covered vartuple relations in vartuple order —
	// the prefix the finalize contract needs.
	var outOrder []string
	var outSeq []int
	var outSet relSet
	for i, r := range info.bindIdx {
		if r >= 0 && covered.has(r) {
			outOrder = append(outOrder, info.bindRels[i])
			outSeq = append(outSeq, r)
			outSet |= bit(r)
		}
	}
	join := exec.NewTwigJoin(streams, *tw, residualConds(info, tw, intra), outOrder)
	cost := TwigJoinCost(streamCost, streamRows, outRows, outRows) +
		SpillSurcharge(outRows, spoolBytesPerRow*float64(len(tw.Nodes)), p.spoolBudget())
	join.Est_ = exec.Est{Rows: outRows, Cost: cost}
	b := &built{
		rel:      -1,
		leaf:     join,
		set:      covered,
		schema:   covered,
		orderSeq: outSeq, // nil when no vartuple relation is covered
		rows:     outRows,
		cost:     cost,
		seed:     true,
	}

	// The adjacent-dedup machinery above (eager projections, the
	// order-preserving finalize) relies on the stream being sorted by
	// every alias it carries. A covered existential (non-vartuple) node
	// breaks that: the twig emits sorted by outOrder only, with the
	// existential's matches varying inside ties, so duplicate vartuples
	// would come back non-adjacent after a join above. Project such nodes
	// away right here — the twig's emission order makes the one-pass
	// dedup valid, and their conditions are all applied (a semijoin,
	// exactly the QP2 push). If a pending condition still references one
	// (a value join against an uncovered relation), the node must stay —
	// then the stream counts as unordered and only the sort-dedup
	// finalize (which dedups after sorting) may accept the plan.
	if len(outOrder) == len(tw.Nodes) {
		return b // every covered relation is a vartuple relation
	}
	existential := covered &^ outSet
	for _, cr := range info.crossRel {
		if pending := !(cr[0] >= 0 && cr[1] >= 0 && covered.has(cr[0]) && covered.has(cr[1])); pending &&
			(cr[0] >= 0 && existential.has(cr[0]) || cr[1] >= 0 && existential.has(cr[1])) {
			b.orderSeq = nil
			return b
		}
	}
	if !p.cfg.allow(OrderSemijoin) {
		b.orderSeq = nil
		return b
	}
	proj := exec.NewProject(join, outOrder, true)
	b.cost += outRows * cpuPerTuple
	proj.Est_ = exec.Est{Rows: outRows, Cost: b.cost}
	b.leaf = proj
	b.schema = outSet
	b.usedEager = true
	return b
}

// joinNext returns b extended with relation r, the eager projection
// applied. Joins above a partial-twig seed keep interval-bounded INL
// candidates even when UseINL is off: uncovered relations (value-join
// tails, disconnected components) that a parameterized access path can
// serve must not degrade the forced-twig family to full-scan NL inners.
// Unparameterized inners are unaffected, and so is every join below or
// inside the twig.
func (p *Planner) joinNext(info *psxInfo, b *built, r int, t joinToggles) *built {
	info.joins++
	joinSel := p.joinSelectivity(info, b.set, r)
	innerRows := info.filteredRows[r]
	outRows := b.rows * innerRows * joinSel
	if outRows < 0.01 {
		outRows = 0.01
	}

	// Candidate A: index nested-loops with a parameterized inner access.
	var inl *accessChoice
	if p.cfg.UseINL || b.seed {
		inl = p.inlAccess(info, b, r)
	}
	inlCost := math.Inf(1)
	if inl != nil {
		inlCost = b.cost + b.rows*(p.est.ProbeCost()+inl.cost) + outRows*cpuPerTuple
	}

	// Candidate B: (block) nested loops with a materialized inner scan.
	// Inners that fit in the operator memory budget replay at CPU cost;
	// spilled inners are re-read from disk per outer row.
	innerScanCost := info.access[r].cost
	rescan := Pages(innerRows)
	if innerRows*spoolBytesPerRow <= p.spoolBudget() {
		rescan = innerRows * cpuPerTuple
	}
	nlCost := b.cost + innerScanCost + b.rows*rescan + b.rows*innerRows*cpuPerTuple
	bnlCost := b.cost + innerScanCost + math.Ceil(b.rows/blockRows)*Pages(innerRows) + b.rows*innerRows*cpuPerTuple

	// Candidate C: stack-based structural merge join — both inputs read
	// once in document order, no probes, no rescans. The toggle's
	// emission order decides the output order AND the extra cost term:
	// descendant emission streams but may force a repair sort at
	// finalize; ancestor emission buffers the non-bottom share of the
	// output in per-stack-entry lists.
	sp := -1
	structCost := math.Inf(1)
	if t.structural {
		// Child-axis candidates compete directly with the index-probe
		// path: with the probe charge calibrated against the live buffer
		// pool hit rate (ProbeCost), the estimates arbitrate instead of a
		// blanket gate.
		sp = p.structuralCandidate(info, b, r, t.structAnc)
		if sp >= 0 && t.structAnc {
			// Expected stack depth = ancestor-stream rows per distinct
			// ancestor (prefix rows duplicate their ancestor once per
			// earlier join partner — duplicates stack together) times
			// one plus the label's interval nesting. Only the bottom
			// entry's pairs stream; the rest buffer.
			anc := info.spRel[sp][0]
			dup := 1.0
			if anc != r {
				if ancRows := info.filteredRows[anc]; ancRows > 0 && b.rows > ancRows {
					dup = b.rows / ancRows
				}
			}
			above := dup*(1+p.est.AncNesting(info.label[anc], info.labeled[anc])) - 1
			if above < 0 {
				above = 0
			}
			bufRows := outRows * above / (1 + above)
			structCost = StructuralJoinAncCost(b.cost, innerScanCost, b.rows, innerRows, outRows, bufRows) +
				SpillSurcharge(bufRows, spoolBytesPerRow, p.spoolBudget())
		} else if sp >= 0 {
			structCost = StructuralJoinCost(b.cost, innerScanCost, b.rows, innerRows, outRows)
		}
	}

	nb := &built{
		prev:      b,
		rel:       r,
		set:       b.set | bit(r),
		schema:    b.schema | bit(r),
		orderSeq:  b.orderSeq,
		rows:      outRows,
		joinRows:  outRows,
		usedEager: b.usedEager,
		seed:      b.seed,
	}
	switch {
	case sp >= 0 && structCost <= inlCost && structCost <= nlCost && !(t.bnl && bnlCost < structCost):
		nb.kind, nb.sp, nb.anc, nb.cost = joinStructural, sp, t.structAnc, structCost
		// The side whose document order leads the output depends on the
		// emission: descendant emission leads with the descendant stream,
		// ancestor emission with the ancestor stream; the other side's
		// arrival order breaks ties. When the leading side is the prefix,
		// the join is order-preserving and r's order is appended.
		if (info.spRel[sp][1] == r) != t.structAnc {
			nb.orderSeq = append([]int{r}, b.orderSeq...)
		} else {
			nb.orderSeq = appendSeq(b.orderSeq, r)
		}
	case t.bnl && bnlCost < nlCost && bnlCost < inlCost:
		nb.kind, nb.cost = joinBNL, bnlCost
		nb.orderSeq = nil // BNL destroys document order
	case inlCost <= nlCost && inl != nil:
		nb.kind, nb.inl, nb.cost = joinINL, inl, inlCost
		nb.orderSeq = appendSeq(b.orderSeq, r)
	default:
		nb.kind, nb.cost = joinNL, nlCost
		nb.orderSeq = appendSeq(b.orderSeq, r)
	}
	nb.joinCost = nb.cost
	p.eagerProject(info, nb)
	return nb
}

// blockRows is the outer block size of the block nested-loops join.
const blockRows = 1024.0

// appendSeq returns seq with r appended, in a fresh array so states never
// share a tail; nil stays nil (an unordered stream gains no order).
func appendSeq(seq []int, r int) []int {
	if seq == nil {
		return nil
	}
	return append(seq[:len(seq):len(seq)], r)
}

// inlAccess returns the cheapest inner access for joining r to b's prefix
// that is parameterized by the prefix (a genuine index nested-loops
// inner), or nil. Only the neighbours of r can parameterize it, so the
// choice is memoized on the neighbours the prefix and its schema hold.
func (p *Planner) inlAccess(info *psxInfo, b *built, r int) *accessChoice {
	k := memoKey{r: r, prefix: b.set & info.nbr[r], schema: b.schema & info.nbr[r]}
	if ac, ok := info.inl[k]; ok {
		return ac
	}
	prefix := map[string]bool{}
	for i, a := range info.rels {
		if b.schema.has(i) {
			prefix[a] = true
		}
	}
	all := append(append([]tpm.Cmp(nil), info.local[r]...), applicableCross(info, b.set, r)...)
	choices := p.planAccess(info, info.rels[r], all, prefix)
	var best *accessChoice
	for i := range choices {
		if accessUsesPrefix(choices[i].access, prefix) && (best == nil || choices[i].cost < best.cost) {
			best = &choices[i]
		}
	}
	info.inl[k] = best
	return best
}

// accessUsesPrefix reports whether an access path is parameterized by
// outer-row attributes (making it a genuine index nested-loops inner).
func accessUsesPrefix(a exec.Access, prefix map[string]bool) bool {
	isPrefixAttr := func(op tpm.Operand) bool {
		return op.Kind == tpm.OpAttr && prefix[op.Attr.Rel]
	}
	if a.Kind == exec.AccessParent && isPrefixAttr(a.Parent) {
		return true
	}
	if a.Bounded && (isPrefixAttr(a.Lo) || isPrefixAttr(a.Hi)) {
		return true
	}
	return false
}

// eagerProject applies the semijoin-style projection push (strategy (b),
// plan QP2): trailing condition relations whose conditions are all applied
// are projected away with one-pass duplicate elimination, keeping the
// sorted prefix property for the relations that remain.
func (p *Planner) eagerProject(info *psxInfo, b *built) {
	if !p.cfg.allow(OrderSemijoin) || b.orderSeq == nil {
		return
	}
	live := info.bind | info.referenced(b.set)
	seq := b.orderSeq
	cut := len(seq)
	for cut > 0 && !live.has(seq[cut-1]) {
		cut--
	}
	if cut == len(seq) || cut == 0 {
		return
	}
	// A twig-led plan can carry aliases outside orderSeq (non-vartuple
	// twig nodes). The projection drops those too, so it is only valid
	// when none of them is still needed by the vartuple or a pending
	// condition.
	var keep relSet
	for _, r := range seq[:cut] {
		keep |= bit(r)
	}
	if b.schema&^keep&live != 0 {
		return
	}
	// Project to the live prefix; estimate the semijoin row reduction:
	// no more rows than before any projected relation joined.
	rows := b.rows
	for _, r := range seq[cut:] {
		if before := b.rowsBefore(r); before > 0 && before < rows {
			rows = before
		}
	}
	b.projected = true
	b.cost += b.rows * cpuPerTuple
	b.rows = rows
	b.orderSeq = seq[:cut:cut]
	b.schema = keep
	b.usedEager = true
}

// referenced returns the relations a condition still pending over prefix
// s mentions.
func (info *psxInfo) referenced(s relSet) relSet {
	var out relSet
	for _, cr := range info.crossRel {
		a, b := cr[0], cr[1]
		if a < 0 || b < 0 || !s.has(a) || !s.has(b) {
			out |= bit(a) | bit(b)
		}
	}
	return out
}

// finish prices the order and duplicate handling on top of a complete
// state. ok is false if the order cannot be made valid under the
// configured strategies; sorted reports the external-sort repair.
func (p *Planner) finish(info *psxInfo, b *built) (cost float64, sorted, ok bool) {
	if len(info.bindRels) == 0 {
		// Nullary pass-fail check: no projection or order requirement
		// (the driver stops at the first row).
		return b.cost, false, true
	}
	if b.orderSeq != nil && isPrefix(info.bindIdx, b.orderSeq) {
		if b.usedEager && !p.cfg.allow(OrderSemijoin) {
			return 0, false, false
		}
		return b.cost + b.rows*cpuPerTuple, false, true
	}
	if !p.cfg.allow(OrderSort) {
		return 0, false, false
	}
	return sortCost(b) + b.rows*cpuPerTuple, true, true
}

// sortCost is the cost of strategy (a)'s external sort on top of b.
func sortCost(b *built) float64 {
	return b.cost + 2*Pages(b.rows) + b.rows*cpuPerTuple*log2(b.rows+2)
}

// finalize builds the operator tree of a complete state with the order
// and duplicate handling and the final projection on top, returning nil
// if the order cannot be made valid under the configured strategies.
func (p *Planner) finalize(info *psxInfo, b *built) (exec.PlanNode, float64) {
	cost, sorted, ok := p.finish(info, b)
	if !ok {
		return nil, 0
	}
	node := p.node(info, b)
	if len(info.bindRels) == 0 {
		return node, cost
	}
	if !sorted {
		proj := exec.NewProject(node, info.bindRels, true)
		proj.Est_ = exec.Est{Rows: b.rows, Cost: cost}
		return proj, cost
	}
	// Strategy (a): restore order with an external sort, dedup while
	// emitting, then project.
	s := exec.NewSort(node, info.bindRels, true)
	s.Est_ = exec.Est{Rows: b.rows, Cost: sortCost(b)}
	proj := exec.NewProject(s, info.bindRels, false)
	proj.Est_ = exec.Est{Rows: b.rows, Cost: cost}
	return proj, cost
}

func isPrefix(prefix, seq []int) bool {
	if len(prefix) > len(seq) {
		return false
	}
	for i, r := range prefix {
		if seq[i] != r {
			return false
		}
	}
	return true
}

func log2(x float64) float64 { return math.Log2(x) }
