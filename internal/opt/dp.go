package opt

import (
	"errors"
	"math"
	"math/bits"

	"xqdb/internal/exec"
	"xqdb/internal/tpm"
)

// relSet is a set of one PSX's relations, by index into psx.Rels.
type relSet uint64

// maxRels is the largest conjunction a relSet can name.
const maxRels = 64

// ErrTooManyRelations rejects a conjunction of more than maxRels relations,
// in every configuration: M3's syntactic order is built from relSets too.
var ErrTooManyRelations = errors.New("opt: too many relations in one conjunction")

// maxSearchJoins bounds the work of one conjunction's join-order search:
// the joinNext calls over all toggle recipes, about 0.2 s and 50 MB for a
// twenty-relation conjunction on a 2-vCPU x86 host. The conjunctions of up
// to eight relations the tests plan stay below half of it; past it the
// planner keeps the syntactic join order.
const maxSearchJoins = 1 << 17

// errSearchBound reports a search stopped at maxSearchJoins.
var errSearchBound = errors.New("opt: join-order search bound reached")

func bit(r int) relSet {
	if r < 0 {
		return 0
	}
	return 1 << uint(r)
}

func (s relSet) has(r int) bool { return s&bit(r) != 0 }

// joinKind is the operator a join step chose.
type joinKind uint8

const (
	joinNL joinKind = iota
	joinBNL
	joinINL
	joinStructural
)

// built is one state of the join-order search: a prefix plan joining the
// relations in set, held as the step that extended prev. The search reads
// only the sets, the order and the estimates; operator nodes are built for
// the winner alone (node).
type built struct {
	prev *built
	rel  int           // relation joined last; -1 for a partial-twig seed
	leaf exec.PlanNode // the seed's operator tree (seed leaves only)
	// The join step from prev: operator, its estimates, and whether the
	// eager projection went on top.
	kind               joinKind
	inl                *accessChoice // joinINL: the parameterized inner access
	sp                 int           // joinStructural: index into psxInfo.structural
	anc                bool          // joinStructural: ancestor-ordered emission
	joinRows, joinCost float64
	projected          bool

	set      relSet // relations joined
	schema   relSet // aliases the stream carries
	orderSeq []int  // relations whose ins the output is sorted by (nil = unordered)
	rows     float64
	cost     float64
	// usedEager records an eager projection anywhere below; seed marks
	// states above the partial-twig seed, whose joins keep INL candidates.
	usedEager, seed bool
	pruned          bool // dropped by search after it was queued
}

// leaf is the state that scans relation r with its best standalone access.
func (p *Planner) leaf(info *psxInfo, r int) *built {
	return &built{rel: r, set: bit(r), schema: bit(r), orderSeq: []int{r},
		rows: info.filteredRows[r], cost: info.access[r].cost}
}

// rowsBefore is the row estimate of the prefix r joined onto, or 0 for a
// relation that led the plan or came with the seed.
func (b *built) rowsBefore(r int) float64 {
	for s := b; s.prev != nil; s = s.prev {
		if s.rel == r {
			return s.prev.rows
		}
	}
	return 0
}

// search is the join-order dynamic program for one toggle recipe: states
// grow bottom-up over relation subsets, one relation at a time, starting
// from every single-relation scan and from the partial-twig seed. It
// returns the cheapest complete state that finalizes, ties going to the
// earlier join order. It stops with errSearchBound once the conjunction's
// joinNext calls pass maxSearchJoins, and with the planner's deadline.
//
// A state is dropped only for one that extends alike (alike: the same
// key — schema, usedEager, seed flag, interesting order — and the same row
// estimates wherever the extensions read them), costs no more, and comes
// earlier in the tie order or is cheaper by more than margin. Two such
// states grow alike — the same operators, orders and row estimates, up to
// operator candidates whose costs tie within rounding — and every step
// adds the same non-negative cost terms to both, so whatever the dropped
// state could become, the other becomes at no greater cost and earlier:
// the search returns the plan that costing every join order would.
func (p *Planner) search(info *psxInfo, t joinToggles, seed *built, margin float64) (best *built, bestCost float64, err error) {
	n := len(info.rels)
	groups := map[relSet][]*built{}
	levels := make([][]*built, n+1)
	add := func(c *built) {
		// States arrive in tie order: each level holds its states in the
		// order of their parents, extended by ascending relation, and
		// seeded and plain states are never alike. So an alike state that
		// costs no more comes earlier and drops c, while c drops an alike
		// state only when cheaper by more than margin.
		g := groups[c.set]
		for _, e := range g {
			if e.cost <= c.cost && alike(info, e, c) {
				return
			}
		}
		kept := g[:0]
		for _, e := range g {
			if e.cost-c.cost > margin && alike(info, e, c) {
				e.pruned = true
			} else {
				kept = append(kept, e)
			}
		}
		groups[c.set] = append(kept, c)
		k := bits.OnesCount64(uint64(c.set))
		levels[k] = append(levels[k], c)
	}
	for r := 0; r < n; r++ {
		if p.canJoin(info, nil, r) {
			add(p.leaf(info, r))
		}
	}
	if seed != nil {
		s := *seed
		add(&s)
	}
	for k := 1; k < n; k++ {
		for _, b := range levels[k] {
			if b.pruned {
				continue
			}
			if info.joins > maxSearchJoins {
				return nil, 0, errSearchBound
			}
			if err := p.Budget.Check(); err != nil {
				return nil, 0, err
			}
			for r := 0; r < n; r++ {
				if !b.set.has(r) && p.canJoin(info, b, r) {
					add(p.joinNext(info, b, r, t))
				}
			}
		}
	}
	for _, b := range groups[info.all] {
		cost, _, valid := p.finish(info, b)
		if valid && (best == nil || cost < bestCost || cost == bestCost && earlier(b, best)) {
			best, bestCost = b, cost
		}
	}
	return best, bestCost, nil
}

// canJoin reports whether r may join b next (b nil: lead the plan).
// Unless OrderSort can repair any order, vartuple relations join in
// vartuple order: over plain relations strictly (the next vartuple
// relation is the one after those joined), above a seed relative to the
// vartuple relations joined on top of it.
func (p *Planner) canJoin(info *psxInfo, b *built, r int) bool {
	pos := info.bindPos[r]
	if pos < 0 || p.cfg.allow(OrderSort) {
		return true
	}
	if b == nil {
		return pos == 0
	}
	if !b.seed {
		return pos == bits.OnesCount64(uint64(b.set&info.bind))
	}
	for s := b; s.prev != nil; s = s.prev {
		if last := info.bindPos[s.rel]; last >= 0 {
			return pos >= last
		}
	}
	return true
}

// alike reports whether two states over the same subset extend alike: the
// same schema, usedEager and seed flag, the same interesting order, the
// same rows, and the same rowsBefore wherever an eager projection could
// still cut. Of the order, the extensions read the leading relation
// (structural candidates), whether the vartuple can still become its
// prefix, and the tail after the last vartuple relation (what an eager
// projection can cut). While the vartuple can still lead, the whole head
// counts; once it cannot, only the leading relation and the tail do.
func alike(info *psxInfo, a, b *built) bool {
	if a.schema != b.schema || a.usedEager != b.usedEager || a.seed != b.seed || a.rows != b.rows {
		return false
	}
	qa, qb := a.orderSeq, b.orderSeq
	if qa == nil || qb == nil {
		return qa == nil && qb == nil
	}
	ha, hb := info.head(qa), info.head(qb)
	va := info.viable(qa[:ha])
	if va != info.viable(qb[:hb]) || va && !equalSeq(qa[:ha], qb[:hb]) || qa[0] != qb[0] {
		return false
	}
	// Each run of the tail leaves the stream whole, and the projection
	// estimates the rows it leaves from the least rowsBefore it cuts.
	ta, tb := qa[ha:], qb[hb:]
	if len(ta) != len(tb) {
		return false
	}
	for i := 0; i < len(ta); {
		j := info.runEnd(a.set, ta, i)
		if info.runEnd(a.set, tb, i) != j || setOf(ta[i:j]) != setOf(tb[i:j]) ||
			minBefore(a, ta[i:j]) != minBefore(b, tb[i:j]) {
			return false
		}
		i = j
	}
	return true
}

// runEnd returns where the run of tail relations starting at i ends: the
// relations that wait for the same partners outside prefix s, so an eager
// projection cuts them together or not at all.
func (info *psxInfo) runEnd(s relSet, tail []int, i int) int {
	wait := info.nbr[tail[i]] &^ s
	j := i + 1
	for j < len(tail) && info.nbr[tail[j]]&^s == wait {
		j++
	}
	return j
}

func setOf(rels []int) relSet {
	var s relSet
	for _, r := range rels {
		s |= bit(r)
	}
	return s
}

// head returns the length of seq up to and including its last vartuple
// relation. Eager projections never cut into it.
func (info *psxInfo) head(seq []int) int {
	for i := len(seq); i > 0; i-- {
		if info.bind.has(seq[i-1]) {
			return i
		}
	}
	return 0
}

// viable reports whether an order with this head can still become one
// the vartuple leads: later joins only prepend or append, and projections
// never cut into the head, so the head must be a run of the vartuple.
func (info *psxInfo) viable(head []int) bool {
	for i := 0; i+len(head) <= len(info.bindIdx); i++ {
		if equalSeq(info.bindIdx[i:i+len(head)], head) {
			return true
		}
	}
	return false
}

func equalSeq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// minBefore is the least rowsBefore b recorded for rels (+Inf if none).
func minBefore(b *built, rels []int) float64 {
	m := math.Inf(1)
	for _, r := range rels {
		if before := b.rowsBefore(r); before > 0 && before < m {
			m = before
		}
	}
	return m
}

// earlier reports whether a comes before b in the auction's tie order:
// plans without the seed first, then by join order, relation by
// relation in psx.Rels index order.
func earlier(a, b *built) bool {
	if a.seed != b.seed {
		return !a.seed
	}
	return compareOrder(a, b) < 0
}

// compareOrder compares the join orders of two states of the same length.
func compareOrder(a, b *built) int {
	if a == b {
		return 0
	}
	if a.prev != nil && b.prev != nil {
		if c := compareOrder(a.prev, b.prev); c != 0 {
			return c
		}
	}
	return a.rel - b.rel
}

// node builds the operator tree of state b.
func (p *Planner) node(info *psxInfo, b *built) exec.PlanNode {
	if b.prev == nil {
		if b.leaf != nil {
			return b.leaf
		}
		ac := info.access[b.rel]
		scan := exec.NewScan(info.rels[b.rel], ac.access, ac.residual)
		scan.Est_ = exec.Est{Rows: b.rows, Cost: b.cost}
		return scan
	}
	outer := p.node(info, b.prev)
	r := b.rel
	cross := applicableCross(info, b.prev.set, r)
	innerRows := info.filteredRows[r]
	nl := info.access[r]
	scan := func() *exec.Scan {
		inner := exec.NewScan(info.rels[r], nl.access, nl.residual)
		inner.Est_ = exec.Est{Rows: innerRows, Cost: nl.cost}
		return inner
	}
	var n exec.PlanNode
	switch b.kind {
	case joinStructural:
		sp := info.structural[b.sp]
		sub := info.condSet(sp.Conds)
		var resid []tpm.Cmp
		for _, c := range cross {
			if !sub.has(info.ids[c]) {
				resid = append(resid, c)
			}
		}
		join := exec.NewStructuralJoin(outer, scan(), sp, resid)
		join.AncOrder = b.anc
		join.Est_ = exec.Est{Rows: b.joinRows, Cost: b.joinCost}
		n = join
	case joinBNL:
		join := exec.NewBNLJoin(outer, scan(), cross, int(blockRows))
		join.Est_ = exec.Est{Rows: b.joinRows, Cost: b.joinCost}
		n = join
	case joinINL:
		// Residual single-relation conds stay in the inner scan; cross
		// conds not subsumed by the access go to the join.
		var scanConds, joinConds []tpm.Cmp
		for _, c := range b.inl.residual {
			if len(c.Rels()) == 1 {
				scanConds = append(scanConds, c)
			} else {
				joinConds = append(joinConds, c)
			}
		}
		inner := exec.NewScan(info.rels[r], b.inl.access, scanConds)
		inner.Est_ = exec.Est{Rows: innerRows * p.joinSelectivity(info, b.prev.set, r), Cost: b.inl.cost}
		join := exec.NewINLJoin(outer, inner, joinConds)
		join.Est_ = exec.Est{Rows: b.joinRows, Cost: b.joinCost}
		n = join
	default:
		join := exec.NewNLJoin(outer, scan(), cross)
		join.Est_ = exec.Est{Rows: b.joinRows, Cost: b.joinCost}
		n = join
	}
	if b.projected {
		keep := make([]string, len(b.orderSeq))
		for i, r := range b.orderSeq {
			keep[i] = info.rels[r]
		}
		proj := exec.NewProject(n, keep, true)
		proj.Est_ = exec.Est{Rows: b.rows, Cost: b.cost}
		n = proj
	}
	return n
}
