package opt

import (
	"fmt"
	"math"

	"xqdb/internal/exec"
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
}

// New returns a planner using the given configuration.
func New(st *store.Store, cfg Config) *Planner {
	if cfg.MaxEnumRels == 0 {
		cfg.MaxEnumRels = 8
	}
	return &Planner{st: st, cfg: cfg, est: NewEstimator(st, cfg.Stats)}
}

// Estimator exposes the planner's estimator (for tests and EXPLAIN).
func (p *Planner) Estimator() *Estimator { return p.est }

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

// psxInfo is the precomputed analysis of one PSX expression.
type psxInfo struct {
	bindRels []string // vartuple relations, in vartuple order
	local    map[string][]tpm.Cmp
	cross    []tpm.Cmp
	// structural are the structural join predicates recovered from the
	// cross conditions (descendant interval pairs, parent/child
	// equalities), the units the structural merge join can take over.
	structural []tpm.StructuralPred
	// filteredRows estimates each relation after local selections.
	filteredRows map[string]float64
}

func (p *Planner) analyze(psx *tpm.PSX) *psxInfo {
	info := &psxInfo{
		local:        map[string][]tpm.Cmp{},
		filteredRows: map[string]float64{},
	}
	for _, b := range psx.Bind {
		info.bindRels = append(info.bindRels, b.Rel)
	}
	for _, c := range psx.Conds {
		rels := c.Rels()
		switch len(rels) {
		case 1:
			info.local[rels[0]] = append(info.local[rels[0]], c)
		case 2:
			info.cross = append(info.cross, c)
		default:
			// Constant conditions cannot arise from the rewriting; keep
			// them on the first relation defensively.
			if len(psx.Rels) > 0 {
				info.local[psx.Rels[0]] = append(info.local[psx.Rels[0]], c)
			}
		}
	}
	info.structural = tpm.FindStructural(info.cross)
	for _, r := range psx.Rels {
		info.filteredRows[r] = p.est.Relation() * p.est.PairSelectivity(info.local[r])
	}
	return info
}

// built is a candidate physical plan under construction.
type built struct {
	node     exec.PlanNode
	orderSeq []string // aliases whose ins the output is sorted by (nil = unordered)
	present  map[string]bool
	rows     float64
	cost     float64
	// rowsBefore remembers, per joined alias, the row estimate before its
	// join, for the semijoin-projection row estimate.
	rowsBefore map[string]float64
	applied    map[string]bool // cond strings already applied
	usedEager  bool
}

func (b *built) clone() *built {
	nb := *b
	nb.orderSeq = append([]string(nil), b.orderSeq...)
	nb.present = make(map[string]bool, len(b.present))
	for k, v := range b.present {
		nb.present[k] = v
	}
	nb.rowsBefore = make(map[string]float64, len(b.rowsBefore))
	for k, v := range b.rowsBefore {
		nb.rowsBefore[k] = v
	}
	nb.applied = make(map[string]bool, len(b.applied))
	for k, v := range b.applied {
		nb.applied[k] = v
	}
	return &nb
}

// PlanPSX chooses a physical plan for one PSX expression. For cost-based
// configurations it enumerates join orders (vartuple relations constrained
// to vartuple order unless a final sort is permitted); otherwise it keeps
// the syntactic order.
func (p *Planner) PlanPSX(psx *tpm.PSX) (exec.PlanNode, error) {
	if len(psx.Rels) == 0 {
		return nil, fmt.Errorf("opt: PSX without relations: %s", psx)
	}
	info := p.analyze(psx)

	if !p.cfg.CostBased || len(psx.Rels) > p.cfg.MaxEnumRels {
		order := syntacticOrder(psx, info)
		// The join order is fixed, but cost-based configurations still
		// arbitrate the operator toggles (structural emission order, BNL)
		// over it — an over-cap ancestor-first chain keeps the streaming
		// anc-ordered plan it would have found under full enumeration.
		tos := []joinToggles{{structural: p.cfg.UseStructural,
			structAnc: p.cfg.StructuralEmit == EmitAnc}}
		if p.cfg.CostBased {
			tos = p.joinOptions(info)
		}
		var node exec.PlanNode
		cost := math.Inf(1)
		for _, t := range tos {
			b, err := p.buildOrder(info, order, t)
			if err != nil {
				return nil, err
			}
			n, c, err := p.finalize(psx, info, b)
			if err != nil {
				return nil, err
			}
			if n != nil && (node == nil || c < cost) {
				node, cost = n, c
			}
		}
		// Past the enumeration cap the holistic twig still applies — its
		// plan shape does not depend on a join order, so it sidesteps the
		// factorial search entirely. Likewise a partial twig with the
		// uncovered relations joined in syntactic order on top.
		if p.cfg.CostBased {
			if tn, tc, ok := p.twigCandidate(psx, info); ok && (node == nil || tc < cost) {
				node, cost = tn, tc
			}
			if seed := p.partialTwigSeed(psx, info); seed != nil {
				for _, t := range tos {
					pn, pc, err := p.buildOnSeed(psx, info, seed, remainder(order, seed), t)
					if err == nil && pn != nil && (node == nil || pc < cost) {
						node, cost = pn, pc
					}
				}
			}
		}
		return node, nil
	}

	var best exec.PlanNode
	bestCost := math.Inf(1)
	// The holistic twig candidate (one plan regardless of join order)
	// opens the auction; binary pipelines must beat it on estimated cost.
	if tn, tc, ok := p.twigCandidate(psx, info); ok {
		best, bestCost = tn, tc
	}
	perms := p.enumerateOrders(psx, info)
	opts := p.joinOptions(info)
	for _, order := range perms {
		for _, t := range opts {
			b, err := p.buildOrder(info, order, t)
			if err != nil {
				return nil, err
			}
			if b == nil {
				continue
			}
			node, cost, err := p.finalize(psx, info, b)
			if err != nil || node == nil {
				continue
			}
			if cost < bestCost {
				bestCost = cost
				best = node
			}
		}
	}
	// Partial-twig adoption: the maximal connected subtwig enters the
	// auction as a composite leading "base relation", with every order of
	// the uncovered relations joined on top through the ordinary operator
	// families. The mixed plans compete on estimated cost like any other.
	if seed := p.partialTwigSeed(psx, info); seed != nil {
		for _, order := range p.enumerateRemainder(info, remainder(psx.Rels, seed)) {
			for _, t := range opts {
				node, cost, err := p.buildOnSeed(psx, info, seed, order, t)
				if err != nil || node == nil {
					continue
				}
				if cost < bestCost {
					bestCost = cost
					best = node
				}
			}
		}
	}
	if best == nil {
		// No enumerated order produced a valid plan (should not happen —
		// the syntactic order is always valid); fall back.
		order := syntacticOrder(psx, info)
		b, err := p.buildOrder(info, order, joinToggles{})
		if err != nil {
			return nil, err
		}
		node, _, err := p.finalize(psx, info, b)
		return node, err
	}
	return best, nil
}

// joinToggles selects which optional operator families one buildOrder run
// may use. Enumerating the toggles (instead of deciding greedily inside
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
	// remainderINL lets joinNext keep interval-bounded INL candidates
	// even when UseINL is off — set for the joins above a partial-twig
	// seed.
	remainderINL bool
}

func (p *Planner) joinOptions(info *psxInfo) []joinToggles {
	// The structural toggles only multiply the enumeration when the
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
func syntacticOrder(psx *tpm.PSX, info *psxInfo) []string {
	seen := map[string]bool{}
	var order []string
	for _, r := range info.bindRels {
		if !seen[r] {
			seen[r] = true
			order = append(order, r)
		}
	}
	for _, r := range psx.Rels {
		if !seen[r] {
			seen[r] = true
			order = append(order, r)
		}
	}
	return order
}

// enumerateOrders yields the join orders to cost. Vartuple relations must
// stay in vartuple order unless OrderSort can repair arbitrary orders.
func (p *Planner) enumerateOrders(psx *tpm.PSX, info *psxInfo) [][]string {
	rels := psx.Rels
	bindPos := map[string]int{}
	for i, r := range info.bindRels {
		bindPos[r] = i
	}
	freeOrder := p.cfg.allow(OrderSort)
	var out [][]string
	used := make([]bool, len(rels))
	cur := make([]string, 0, len(rels))
	var rec func(nextBind int)
	rec = func(nextBind int) {
		if len(cur) == len(rels) {
			out = append(out, append([]string(nil), cur...))
			return
		}
		for i, r := range rels {
			if used[i] {
				continue
			}
			nb := nextBind
			if pos, isBind := bindPos[r]; isBind {
				if !freeOrder && pos != nextBind {
					continue // vartuple order violated
				}
				if pos == nextBind {
					nb = nextBind + 1
				}
			}
			used[i] = true
			cur = append(cur, r)
			rec(nb)
			cur = cur[:len(cur)-1]
			used[i] = false
		}
	}
	rec(0)
	return out
}

// buildOrder constructs the physical plan for one join order.
func (p *Planner) buildOrder(info *psxInfo, order []string, t joinToggles) (*built, error) {
	first := order[0]
	lead := p.bestAccess(first, info.local[first], nil)
	scan := exec.NewScan(first, lead.access, lead.residual)
	b := &built{
		node:       scan,
		orderSeq:   []string{first},
		present:    map[string]bool{first: true},
		rows:       info.filteredRows[first],
		cost:       lead.cost,
		rowsBefore: map[string]float64{},
		applied:    map[string]bool{},
	}
	for _, c := range info.local[first] {
		b.applied[c.String()] = true
	}
	scan.Est_ = exec.Est{Rows: b.rows, Cost: b.cost}

	for _, r := range order[1:] {
		if err := p.joinNext(info, b, r, t); err != nil {
			return nil, err
		}
		p.eagerProject(info, b)
	}
	return b, nil
}

// applicableCross returns the cross conditions joining r to the present
// prefix.
func applicableCross(info *psxInfo, b *built, r string) []tpm.Cmp {
	var out []tpm.Cmp
	for _, c := range info.cross {
		if b.applied[c.String()] {
			continue
		}
		rels := c.Rels()
		if len(rels) != 2 {
			continue
		}
		var other string
		switch {
		case rels[0] == r:
			other = rels[1]
		case rels[1] == r:
			other = rels[0]
		default:
			continue
		}
		if b.present[other] {
			out = append(out, c)
		}
	}
	return out
}

// crossSelectivity estimates the combined selectivity of the cross
// conditions joining a relation to the prefix. Descendant interval pairs
// are recognized and estimated together from the per-label subtree
// statistics (DescendantPairSel) — per-condition multiplication wildly
// underestimates pair counts on deep documents; remaining conditions
// multiply independently as before.
func (p *Planner) crossSelectivity(info *psxInfo, cross []tpm.Cmp) float64 {
	if len(info.structural) == 0 {
		// Plain queries keep the zero-allocation multiply path (without
		// structural predicates no parent labels are recoverable, so the
		// text-equi-join refinement cannot apply either).
		sel := 1.0
		for _, c := range cross {
			sel *= p.est.condSelectivity(c)
		}
		return sel
	}
	inCross := map[string]bool{}
	for _, c := range cross {
		inCross[c.String()] = true
	}
	covered := map[string]bool{}
	sel := 1.0
	for i := range info.structural {
		sp := &info.structural[i]
		if sp.Axis != tpm.AxisDescendant {
			continue
		}
		all := true
		for _, c := range sp.Conds {
			if !inCross[c.String()] || covered[c.String()] {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		label, ok := p.aliasLabel(info, sp.Anc)
		sel *= p.est.DescendantPairSel(label, ok)
		for _, c := range sp.Conds {
			covered[c.String()] = true
		}
	}
	for _, c := range cross {
		if !covered[c.String()] {
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
		ll, lok := p.textParentLabel(info, c.Left.Attr.Rel)
		rl, rok := p.textParentLabel(info, c.Right.Attr.Rel)
		if lok || rok {
			return p.est.TextEquiJoinSel(ll, lok, rl, rok)
		}
	}
	return p.est.condSelectivity(c)
}

// textParentLabel recovers the element label a text-typed alias hangs
// under: a child-axis structural predicate names its parent alias, whose
// local conditions pin the label. ok is false for non-text aliases and
// when no labeled parent is found — the distinct-text statistic counts
// direct text children, so looser ancestors do not qualify.
func (p *Planner) textParentLabel(info *psxInfo, alias string) (string, bool) {
	parts := classify(alias, info.local[alias], nil)
	if parts.typeEq == nil || parts.typeEq.norm.Right.Type != xasr.TypeText {
		return "", false
	}
	for i := range info.structural {
		sp := &info.structural[i]
		if sp.Axis != tpm.AxisChild || sp.Desc != alias {
			continue
		}
		if label, ok := p.aliasLabel(info, sp.Anc); ok {
			return label, true
		}
	}
	return "", false
}

// aliasLabel returns the element label an alias is filtered to by its
// local conditions, if any.
func (p *Planner) aliasLabel(info *psxInfo, alias string) (string, bool) {
	parts := classify(alias, info.local[alias], nil)
	if parts.typeEq != nil && parts.valueEq != nil && parts.typeEq.norm.Right.Type == xasr.TypeElem {
		return parts.valueEq.norm.Right.Str, true
	}
	return "", false
}

// structuralCandidate returns a structural predicate joining r to the
// current prefix that the merge join can run, plus the cross conditions
// left as residual per-pair filters. Requirements: the prefix stream must
// be sorted by the partner alias's in-label (true exactly when that alias
// leads orderSeq), the predicate's conditions must still be unapplied,
// and adopting an r whose output would lead with r's document order —
// the descendant side under descendant emission, the ancestor side under
// ancestor emission — must leave the plan finalizable (a final sort can
// repair it, or the vartuple relations happen to lead with r).
func (p *Planner) structuralCandidate(info *psxInfo, b *built, r string, cross []tpm.Cmp, ancEmit bool) (*tpm.StructuralPred, []tpm.Cmp) {
	if !p.cfg.UseStructural || b.orderSeq == nil {
		return nil, nil
	}
	inCross := map[string]bool{}
	for _, c := range cross {
		inCross[c.String()] = true
	}
	for i := range info.structural {
		sp := &info.structural[i]
		var other string
		switch {
		case sp.Anc == r && b.present[sp.Desc]:
			other = sp.Desc
		case sp.Desc == r && b.present[sp.Anc]:
			other = sp.Anc
		default:
			continue
		}
		if b.orderSeq[0] != other {
			continue
		}
		subsumed := true
		for _, c := range sp.Conds {
			if !inCross[c.String()] {
				subsumed = false
				break
			}
		}
		if !subsumed {
			continue
		}
		rLeads := (sp.Desc == r) != ancEmit
		if rLeads && !p.cfg.allow(OrderSort) {
			seq := append([]string{r}, b.orderSeq...)
			if !isPrefix(info.bindRels, seq) {
				continue
			}
		}
		sub := map[string]bool{}
		for _, c := range sp.Conds {
			sub[c.String()] = true
		}
		var resid []tpm.Cmp
		for _, c := range cross {
			if !sub[c.String()] {
				resid = append(resid, c)
			}
		}
		return sp, resid
	}
	return nil, nil
}

// twigStreams builds one best-access, document-ordered scan per twig node
// with local selections pushed down, accumulating the stream costs — the
// construction shared by the full and partial twig candidates.
func (p *Planner) twigStreams(info *psxInfo, tw *tpm.Twig) (streams []exec.PlanNode, streamCost, streamRows, rowsProduct float64) {
	streams = make([]exec.PlanNode, len(tw.Nodes))
	rowsProduct = 1.0
	for i, n := range tw.Nodes {
		ac := p.bestAccess(n.Alias, info.local[n.Alias], nil)
		rows := info.filteredRows[n.Alias]
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
func residualConds(tw *tpm.Twig, cross []tpm.Cmp) []tpm.Cmp {
	subsumed := make(map[string]bool, len(tw.Conds))
	for _, c := range tw.Conds {
		subsumed[c.String()] = true
	}
	var resid []tpm.Cmp
	for _, c := range cross {
		if !subsumed[c.String()] {
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
	join := exec.NewTwigJoin(streams, *tw, residualConds(tw, info.cross), info.bindRels)
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
// operator; conditions reaching an uncovered relation stay unapplied for
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
	covered := make(map[string]bool, len(tw.Nodes))
	for _, n := range tw.Nodes {
		covered[n.Alias] = true
	}
	streams, streamCost, streamRows, rowsProduct := p.twigStreams(info, tw)
	applied := map[string]bool{}
	for _, n := range tw.Nodes {
		for _, c := range info.local[n.Alias] {
			applied[c.String()] = true
		}
	}
	// Cross conditions entirely inside the covered set: subsumed by the
	// twig edges, or residual per-row filters on the operator.
	var intra []tpm.Cmp
	for _, c := range info.cross {
		rels := c.Rels()
		if len(rels) == 2 && covered[rels[0]] && covered[rels[1]] {
			intra = append(intra, c)
		}
	}
	outRows := rowsProduct * p.crossSelectivity(info, intra)
	if outRows < 0.01 {
		outRows = 0.01
	}
	for _, c := range intra {
		applied[c.String()] = true
	}
	// The emission order: covered vartuple relations in vartuple order —
	// the prefix the finalize contract needs.
	var outOrder []string
	outSet := map[string]bool{}
	for _, r := range info.bindRels {
		if covered[r] {
			outOrder = append(outOrder, r)
			outSet[r] = true
		}
	}
	join := exec.NewTwigJoin(streams, *tw, residualConds(tw, intra), outOrder)
	cost := TwigJoinCost(streamCost, streamRows, outRows, outRows) +
		SpillSurcharge(outRows, spoolBytesPerRow*float64(len(tw.Nodes)), p.spoolBudget())
	join.Est_ = exec.Est{Rows: outRows, Cost: cost}
	b := &built{
		node:       join,
		orderSeq:   outOrder, // nil when no vartuple relation is covered
		present:    covered,
		rows:       outRows,
		cost:       cost,
		rowsBefore: map[string]float64{},
		applied:    applied,
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
	stillNeeded := false
	for _, c := range info.cross {
		if applied[c.String()] {
			continue
		}
		for _, r := range c.Rels() {
			if covered[r] && !outSet[r] {
				stillNeeded = true
			}
		}
	}
	if stillNeeded || !p.cfg.allow(OrderSemijoin) {
		b.orderSeq = nil
		return b
	}
	proj := exec.NewProject(join, outOrder, true)
	b.cost += outRows * cpuPerTuple
	proj.Est_ = exec.Est{Rows: outRows, Cost: b.cost}
	b.node = proj
	b.usedEager = true
	return b
}

// remainder lists, in rels order, the relations a seed does not cover.
func remainder(rels []string, seed *built) []string {
	var out []string
	for _, r := range rels {
		if !seed.present[r] {
			out = append(out, r)
		}
	}
	return out
}

// buildOnSeed joins the given relations on top of a cloned seed in order
// and finalizes the plan. The remainder joins keep interval-bounded INL
// candidates even when UseINL is off: uncovered relations (value-join
// tails, disconnected components) that a parameterized access path can
// serve must not degrade the forced-twig family to full-scan NL inners.
// Unparameterized inners are unaffected, and so is every join below or
// inside the twig.
func (p *Planner) buildOnSeed(psx *tpm.PSX, info *psxInfo, seed *built, order []string, t joinToggles) (exec.PlanNode, float64, error) {
	t.remainderINL = true
	b := seed.clone()
	for _, r := range order {
		if err := p.joinNext(info, b, r, t); err != nil {
			return nil, 0, err
		}
		p.eagerProject(info, b)
	}
	return p.finalize(psx, info, b)
}

// enumerateRemainder yields the join orders for the uncovered relations
// above a partial-twig seed. Vartuple relations keep their relative
// vartuple order unless OrderSort can repair arbitrary orders (the
// covered vartuple relations already emit in order from the twig; finalize
// rejects any combination whose overall order is still invalid).
func (p *Planner) enumerateRemainder(info *psxInfo, rels []string) [][]string {
	if len(rels) == 0 {
		return [][]string{nil}
	}
	bindPos := map[string]int{}
	for i, r := range info.bindRels {
		bindPos[r] = i
	}
	freeOrder := p.cfg.allow(OrderSort)
	var out [][]string
	used := make([]bool, len(rels))
	cur := make([]string, 0, len(rels))
	var rec func(lastBind int)
	rec = func(lastBind int) {
		if len(cur) == len(rels) {
			out = append(out, append([]string(nil), cur...))
			return
		}
		for i, r := range rels {
			if used[i] {
				continue
			}
			lb := lastBind
			if pos, isBind := bindPos[r]; isBind {
				if !freeOrder && pos < lastBind {
					continue // relative vartuple order violated
				}
				lb = pos
			}
			used[i] = true
			cur = append(cur, r)
			rec(lb)
			cur = cur[:len(cur)-1]
			used[i] = false
		}
	}
	rec(-1)
	return out
}

// joinNext extends the plan with relation r.
func (p *Planner) joinNext(info *psxInfo, b *built, r string, t joinToggles) error {
	useBNL := t.bnl
	cross := applicableCross(info, b, r)
	joinSel := p.crossSelectivity(info, cross)
	innerRows := info.filteredRows[r]
	outRows := b.rows * innerRows * joinSel
	if outRows < 0.01 {
		outRows = 0.01
	}

	prefixSet := map[string]bool{}
	for _, a := range b.node.Schema().Aliases {
		prefixSet[a] = true
	}

	b.rowsBefore[r] = b.rows

	// Candidate A: index nested-loops with a parameterized inner access.
	// remainderINL re-admits the candidate for joins above a partial-twig
	// seed when the forced family has UseINL off (the parameterization
	// requirement below keeps it to genuinely interval-bounded inners).
	var inlChoice *accessChoice
	if p.cfg.UseINL || t.remainderINL {
		all := append(append([]tpm.Cmp(nil), info.local[r]...), cross...)
		choices := p.planAccess(r, all, prefixSet)
		for i := range choices {
			if !accessUsesPrefix(choices[i].access, prefixSet) {
				continue
			}
			if inlChoice == nil || choices[i].cost < inlChoice.cost {
				inlChoice = &choices[i]
			}
		}
	}
	inlCost := math.Inf(1)
	if inlChoice != nil {
		inlCost = b.cost + b.rows*(p.est.ProbeCost()+inlChoice.cost) + outRows*cpuPerTuple
	}

	// Candidate B: (block) nested loops with a materialized inner scan.
	// Inners that fit in the operator memory budget replay at CPU cost;
	// spilled inners are re-read from disk per outer row.
	nlAccess := p.bestAccess(r, info.local[r], nil)
	innerScanCost := nlAccess.cost
	budget := p.spoolBudget()
	rescan := Pages(innerRows)
	if innerRows*spoolBytesPerRow <= budget {
		rescan = innerRows * cpuPerTuple
	}
	nlCost := b.cost + innerScanCost + b.rows*rescan + b.rows*innerRows*cpuPerTuple
	blockRows := 1024.0
	bnlCost := b.cost + innerScanCost + math.Ceil(b.rows/blockRows)*Pages(innerRows) + b.rows*innerRows*cpuPerTuple

	// Candidate C: stack-based structural merge join — both inputs read
	// once in document order, no probes, no rescans. The toggle's
	// emission order decides the output order AND the extra cost term:
	// descendant emission streams but may force a repair sort at
	// finalize; ancestor emission buffers the non-bottom share of the
	// output in per-stack-entry lists.
	var structPred *tpm.StructuralPred
	var structResid []tpm.Cmp
	structCost := math.Inf(1)
	if t.structural {
		// Child-axis candidates compete directly with the index-probe
		// path: with the probe charge calibrated against the live buffer
		// pool hit rate (ProbeCost), the estimates arbitrate instead of a
		// blanket gate.
		structPred, structResid = p.structuralCandidate(info, b, r, cross, t.structAnc)
		if structPred != nil {
			if t.structAnc {
				// Expected stack depth = ancestor-stream rows per distinct
				// ancestor (prefix rows duplicate their ancestor once per
				// earlier join partner — duplicates stack together) times
				// one plus the label's interval nesting. Only the bottom
				// entry's pairs stream; the rest buffer.
				label, haveLabel := p.aliasLabel(info, structPred.Anc)
				dup := 1.0
				if structPred.Anc != r {
					if ancRows := info.filteredRows[structPred.Anc]; ancRows > 0 && b.rows > ancRows {
						dup = b.rows / ancRows
					}
				}
				above := dup*(1+p.est.AncNesting(label, haveLabel)) - 1
				if above < 0 {
					above = 0
				}
				bufRows := outRows * above / (1 + above)
				structCost = StructuralJoinAncCost(b.cost, innerScanCost, b.rows, innerRows, outRows, bufRows) +
					SpillSurcharge(bufRows, spoolBytesPerRow, p.spoolBudget())
			} else {
				structCost = StructuralJoinCost(b.cost, innerScanCost, b.rows, innerRows, outRows)
			}
		}
	}

	mark := func(conds []tpm.Cmp) {
		for _, c := range conds {
			b.applied[c.String()] = true
		}
	}

	switch {
	case structPred != nil && structCost <= inlCost && structCost <= nlCost &&
		!(useBNL && bnlCost < structCost):
		inner := exec.NewScan(r, nlAccess.access, nlAccess.residual)
		inner.Est_ = exec.Est{Rows: innerRows, Cost: innerScanCost}
		join := exec.NewStructuralJoin(b.node, inner, *structPred, structResid)
		join.AncOrder = t.structAnc
		join.Est_ = exec.Est{Rows: outRows, Cost: structCost}
		b.node = join
		// The side whose document order leads the output depends on the
		// emission: descendant emission leads with the descendant stream,
		// ancestor emission with the ancestor stream; the other side's
		// arrival order breaks ties. When the leading side is the prefix,
		// the join is order-preserving and r's order is appended.
		if (structPred.Desc == r) != t.structAnc {
			b.orderSeq = append([]string{r}, b.orderSeq...)
		} else {
			b.orderSeq = append(b.orderSeq, r)
		}
		b.cost = structCost
	case useBNL && bnlCost < nlCost && bnlCost < inlCost:
		inner := exec.NewScan(r, nlAccess.access, nlAccess.residual)
		inner.Est_ = exec.Est{Rows: innerRows, Cost: innerScanCost}
		join := exec.NewBNLJoin(b.node, inner, cross, int(blockRows))
		join.Est_ = exec.Est{Rows: outRows, Cost: bnlCost}
		b.node = join
		b.orderSeq = nil // BNL destroys document order
		b.cost = bnlCost
	case inlCost <= nlCost && inlChoice != nil:
		// Residual single-relation conds stay in the inner scan; cross
		// conds not subsumed by the access go to the join.
		var scanConds, joinConds []tpm.Cmp
		for _, c := range inlChoice.residual {
			if len(c.Rels()) == 1 {
				scanConds = append(scanConds, c)
			} else {
				joinConds = append(joinConds, c)
			}
		}
		inner := exec.NewScan(r, inlChoice.access, scanConds)
		inner.Est_ = exec.Est{Rows: innerRows * joinSel, Cost: inlChoice.cost}
		join := exec.NewINLJoin(b.node, inner, joinConds)
		join.Est_ = exec.Est{Rows: outRows, Cost: inlCost}
		b.node = join
		if b.orderSeq != nil {
			b.orderSeq = append(b.orderSeq, r)
		}
		b.cost = inlCost
	default:
		inner := exec.NewScan(r, nlAccess.access, nlAccess.residual)
		inner.Est_ = exec.Est{Rows: innerRows, Cost: innerScanCost}
		join := exec.NewNLJoin(b.node, inner, cross)
		join.Est_ = exec.Est{Rows: outRows, Cost: nlCost}
		b.node = join
		if b.orderSeq != nil {
			b.orderSeq = append(b.orderSeq, r)
		}
		b.cost = nlCost
	}
	mark(info.local[r])
	mark(cross)
	b.present[r] = true
	b.rows = outRows
	return nil
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
	bindSet := map[string]bool{}
	for _, r := range info.bindRels {
		bindSet[r] = true
	}
	referenced := map[string]bool{}
	for _, c := range info.cross {
		if b.applied[c.String()] {
			continue
		}
		for _, r := range c.Rels() {
			referenced[r] = true
		}
	}
	cut := len(b.orderSeq)
	for cut > 0 {
		r := b.orderSeq[cut-1]
		if bindSet[r] || referenced[r] {
			break
		}
		cut--
	}
	if cut == len(b.orderSeq) || cut == 0 {
		return
	}
	// A twig-led plan can carry aliases outside orderSeq (non-vartuple
	// twig nodes). The projection drops those too, so it is only valid
	// when none of them is still needed by the vartuple or a pending
	// condition.
	keepSet := map[string]bool{}
	for _, r := range b.orderSeq[:cut] {
		keepSet[r] = true
	}
	for _, a := range b.node.Schema().Aliases {
		if !keepSet[a] && (bindSet[a] || referenced[a]) {
			return
		}
	}
	// Project to the live prefix; estimate the semijoin row reduction.
	rows := b.rows
	for i := len(b.orderSeq) - 1; i >= cut; i-- {
		r := b.orderSeq[i]
		before := b.rowsBefore[r]
		if before > 0 {
			mult := rows / before
			if mult > 1 {
				mult = 1
			}
			rows = before * mult
		}
	}
	keep := append([]string(nil), b.orderSeq[:cut]...)
	proj := exec.NewProject(b.node, keep, true)
	b.cost += b.rows * cpuPerTuple
	b.rows = rows
	proj.Est_ = exec.Est{Rows: b.rows, Cost: b.cost}
	b.node = proj
	b.orderSeq = keep
	b.usedEager = true
}

// finalize adds the order/duplicate handling and the final projection,
// returning nil if the order cannot be made valid under the configured
// strategies.
func (p *Planner) finalize(psx *tpm.PSX, info *psxInfo, b *built) (exec.PlanNode, float64, error) {
	if len(info.bindRels) == 0 {
		// Nullary pass-fail check: no projection or order requirement
		// (the driver stops at the first row).
		return b.node, b.cost, nil
	}
	if b.orderSeq != nil && isPrefix(info.bindRels, b.orderSeq) {
		if b.usedEager && !p.cfg.allow(OrderSemijoin) {
			return nil, 0, nil
		}
		proj := exec.NewProject(b.node, info.bindRels, true)
		cost := b.cost + b.rows*cpuPerTuple
		proj.Est_ = exec.Est{Rows: b.rows, Cost: cost}
		return proj, cost, nil
	}
	if !p.cfg.allow(OrderSort) {
		return nil, 0, nil
	}
	// Strategy (a): restore order with an external sort, dedup while
	// emitting, then project.
	sorted := exec.NewSort(b.node, info.bindRels, true)
	sortCost := b.cost + 2*Pages(b.rows) + b.rows*cpuPerTuple*log2(b.rows+2)
	sorted.Est_ = exec.Est{Rows: b.rows, Cost: sortCost}
	proj := exec.NewProject(sorted, info.bindRels, false)
	cost := sortCost + b.rows*cpuPerTuple
	proj.Est_ = exec.Est{Rows: b.rows, Cost: cost}
	return proj, cost, nil
}

func isPrefix(prefix, seq []string) bool {
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
