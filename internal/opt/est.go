package opt

import (
	"math"

	"xqdb/internal/store"
	"xqdb/internal/tpm"
	"xqdb/internal/xasr"
)

// Cost model constants. Costs are in page-I/O units with a small CPU
// surcharge per tuple, following the lecture-style model the paper has
// students calibrate ("take running times to see how rankings by their
// cost function actually matched reality").
const (
	tuplesPerPage = 100  // XASR tuples per 4 KiB page (≈40 bytes/tuple)
	cpuPerTuple   = 0.01 // CPU cost of producing one tuple, in page units
	probeBase     = 1.0  // B+-tree descent cost per index probe

	// cpuBatchedTuple is the per-tuple CPU charge on batch-at-a-time paths:
	// scans fill batches straight from leaf cursors and the structural/twig
	// merges consume and emit them in runs, so the per-row virtual call,
	// budget poll, and copy amortize over ~DefaultBatchSize rows. What
	// remains is the real per-row work (predicate evaluation, column
	// appends), calibrated at a quarter of cpuPerTuple. Per-pair and
	// per-record machinery — index probes, nested-loops inner passes,
	// sorts, spool replay — keeps the full cpuPerTuple.
	cpuBatchedTuple = cpuPerTuple / 4
)

// Estimator derives cardinality and selectivity estimates from the stored
// document statistics, degraded according to the configured StatsMode.
type Estimator struct {
	mode  StatsMode
	stats *xasr.Stats // raw statistics for accurate label lookups

	nodes     float64
	elems     float64
	texts     float64
	labels    float64 // number of distinct element labels
	avgDepth  float64
	avgFanout float64
	height    float64 // primary tree height
	probe     float64 // calibrated per-probe descent cost (see ProbeCost)
}

// NewEstimator builds an estimator over a loaded store.
func NewEstimator(st *store.Store, mode StatsMode) *Estimator {
	e := &Estimator{mode: mode, nodes: 1000, elems: 600, texts: 300, labels: 10, avgDepth: 5, avgFanout: 5, height: 2}
	s := st.Stats()
	if s == nil || mode == StatsNone {
		e.calibrateProbe(st)
		return e
	}
	e.nodes = float64(s.Nodes)
	e.elems = float64(s.Elems)
	e.texts = float64(s.Texts)
	e.labels = float64(len(s.LabelCount))
	if e.labels < 1 {
		e.labels = 1
	}
	e.avgDepth = s.AvgDepth()
	if e.avgDepth < 1 {
		e.avgDepth = 1
	}
	if s.Elems > 0 {
		e.avgFanout = float64(s.Nodes-1) / float64(s.Elems)
	}
	e.height = float64(st.PrimaryHeight())
	if e.height < 1 {
		e.height = 1
	}
	e.stats = s
	e.calibrateProbe(st)
	return e
}

// calibrateProbe scales the per-probe page charge by the buffer pool's
// live miss rate: probeBase models a cold B+-tree descent, but on a warm
// pool most descents touch only cached pages, so charging a full page per
// probe overstates index nested-loops plans (the reason the child-axis
// structural candidate used to be gated off outright). The floor is the
// CPU of walking a fully cached descent.
func (e *Estimator) calibrateProbe(st *store.Store) {
	e.probe = probeBase
	ps := st.PagerStats()
	if total := ps.CacheHits + ps.CacheMisses; total > 0 {
		e.probe = probeBase * float64(ps.CacheMisses) / float64(total)
	}
	if floor := e.height * cpuPerTuple; e.probe < floor {
		e.probe = floor
	}
}

// ProbeCost returns the estimated cost of one index probe (a B+-tree
// descent), calibrated against the buffer pool hit rate at planning time.
func (e *Estimator) ProbeCost() float64 { return e.probe }

func (e *Estimator) labelCard(label string) float64 {
	switch e.mode {
	case StatsAccurate:
		if e.stats != nil {
			return float64(e.stats.Card(label))
		}
		return e.elems / e.labels
	case StatsUniform:
		// Engine 2's assumption: all labels equally frequent — including
		// labels that do not occur at all.
		return e.elems / e.labels
	default:
		return e.nodes * 0.1
	}
}

// Relation returns the estimated XASR cardinality.
func (e *Estimator) Relation() float64 { return e.nodes }

// Pages converts a row estimate to page reads.
func Pages(rows float64) float64 {
	p := rows / tuplesPerPage
	if p < 1 {
		p = 1
	}
	return p
}

// Height returns the estimated B+-tree height.
func (e *Estimator) Height() float64 { return e.height }

// AvgSubtree returns the average number of proper descendants of a node
// (total ancestor-descendant pairs is ΣdepthN, so the mean is avgDepth).
func (e *Estimator) AvgSubtree() float64 { return e.avgDepth }

// AvgFanout returns the average number of children of an element node.
func (e *Estimator) AvgFanout() float64 { return e.avgFanout }

// DescendantPairSel estimates the selectivity of a canonical descendant
// interval pair (d.in > a.in AND d.out < a.out) between an ancestor
// relation filtered to ancLabel and any descendant relation. With
// accurate statistics the expected pair count is exact in the ancestor
// dimension: every element with ancLabel contributes its proper-subtree
// size (collected at load time as LabelSubtreeSum), and descendants of
// any label are assumed uniformly spread, so
//
//	pairs ≈ SubtreeSum[ancLabel] · C_desc / N
//	sel   =  pairs / (C_anc · C_desc) = SubtreeSum[ancLabel] / (C_anc · N).
//
// This is what keeps sort-needing merge-join plans honest: the gross
// avgDepth/N fallback underestimates pair counts by orders of magnitude
// on deep documents, making the order-repair sort look free. Without a
// usable per-label sum the fallback is that gross measure.
func (e *Estimator) DescendantPairSel(ancLabel string, haveLabel bool) float64 {
	gross := clamp01(e.avgDepth / e.nodes)
	if !haveLabel || e.mode != StatsAccurate || e.stats == nil {
		return gross
	}
	sum, ok := e.stats.SubtreeSum(ancLabel)
	if !ok {
		return gross
	}
	card := float64(e.stats.Card(ancLabel))
	if card <= 0 {
		// Nonexistent ancestor label: no pairs.
		return 0
	}
	return clamp01(float64(sum) / (card * e.nodes))
}

// StructuralJoinCost is the cost of a stack-based structural merge join:
// both inputs are read once (their page costs live in outerCost and
// innerCost), every input tuple passes the stack machinery once, and each
// output pair costs one (batch-amortized) tuple's CPU — the merge consumes
// descendant runs batch-at-a-time and emits by column appends. There is no
// probe cost and no inner rescan — the defining advantage over the
// nested-loops family.
func StructuralJoinCost(outerCost, innerCost, outerRows, innerRows, outRows float64) float64 {
	return outerCost + innerCost + (outerRows+innerRows)*cpuBatchedTuple + outRows*cpuBatchedTuple
}

// StructuralJoinAncCost is the cost of the ancestor-ordered
// (Stack-Tree-Anc) variant: the same single-pass merge, plus the buffered
// share of the output — pairs whose ancestor is not the current stack
// bottom are materialized into per-stack-entry output lists and cascade
// down as entries pop, so each such pair pays an extra copy/append on top
// of the plain emission CPU. bufRows is the estimated peak size of those
// lists (the planner derives it from the expected stack depth: ancestor
// duplication in the prefix stream × interval nesting of the ancestor
// label); it is what lets the finalize-level comparison trade the
// descendant variant's repair sort against the anc variant's buffering on
// deeply nested or heavily duplicated ancestors.
func StructuralJoinAncCost(outerCost, innerCost, outerRows, innerRows, outRows, bufRows float64) float64 {
	return StructuralJoinCost(outerCost, innerCost, outerRows, innerRows, outRows) +
		bufRows*cpuPerTuple
}

// AncNesting estimates the expected number of ancestor-label elements
// enclosing a random node — the interval-nesting depth of the ancestor
// stream itself. With accurate statistics this is SubtreeSum[anc]/N under
// the uniform spread assumption (the DescendantPairSel machinery applied
// to the ancestor label); grossly avgDepth without a usable label. It is
// one factor of the anc-ordered structural join's expected stack depth:
// DBLP-ish flat labels barely nest (the anc variant buffers almost
// nothing), recursive treebank labels stack deeply and pay for it.
func (e *Estimator) AncNesting(ancLabel string, haveLabel bool) float64 {
	if haveLabel && e.mode == StatsAccurate && e.stats != nil {
		if sum, ok := e.stats.SubtreeSum(ancLabel); ok {
			if float64(e.stats.Card(ancLabel)) <= 0 {
				return 0 // nonexistent ancestor label: no pairs at all
			}
			return float64(sum) / e.nodes
		}
	}
	return e.avgDepth
}

// TwigJoinCost is the cost of a holistic twig join over k document-ordered
// streams: every stream is read once (streamCost carries their page
// costs), every input tuple passes the chained-stack machinery once, each
// buffered path solution and each merged output row costs tuple CPU, and
// the merge phase sorts the output into the required vartuple order in
// memory. There are no probes, no rescans and — unlike a chain of binary
// structural joins — no per-step intermediate results beyond the path
// solutions themselves.
func TwigJoinCost(streamCost, streamRows, pathSols, outRows float64) float64 {
	// Stream consumption is batch-amortized (the k streams arrive through
	// batch buffers); path enumeration and the merge sort stay row-wise.
	return streamCost + streamRows*cpuBatchedTuple + pathSols*cpuPerTuple +
		outRows*cpuPerTuple*(1+math.Log2(outRows+2))
}

// SpillSurcharge prices the disk share of a buffering operator: bufRows
// rows of bytesPerRow each are held by the operator at peak; the share
// beyond the memory budget spills to a temp run file and is read back once,
// so it pays a write+read page round trip. Within budget the surcharge is
// zero — buffered plans stay exactly as priced before resource governance.
func SpillSurcharge(bufRows, bytesPerRow, budget float64) float64 {
	if budget <= 0 || bytesPerRow <= 0 {
		return 0
	}
	bytes := bufRows * bytesPerRow
	if bytes <= budget {
		return 0
	}
	excessRows := (bytes - budget) / bytesPerRow
	return 2 * Pages(excessRows)
}

// TextEquiJoinSel estimates a text-value equi-join between two text
// relations whose parent element labels are known: the classic equi-join
// formula 1/max(V_l, V_r), with V the number of distinct text values
// observed as direct children of the label (xasr.Stats.LabelDistinctTexts,
// collected at load time). This replaces the near-unique 1/texts guess,
// which wildly underestimates dense value domains (author names, years)
// and makes value-anchored plans look better than they run. Labels whose
// ok flag is false, stores predating the statistic, and degraded stats
// modes all fall back to the old guess.
func (e *Estimator) TextEquiJoinSel(lLabel string, lOK bool, rLabel string, rOK bool) float64 {
	fallback := 1 / maxf(e.texts, 1)
	if e.mode != StatsAccurate || e.stats == nil {
		return fallback
	}
	distinct := func(label string, ok bool) (float64, bool) {
		if !ok {
			return 0, false
		}
		n, have := e.stats.DistinctTexts(label)
		if !have {
			return 0, false
		}
		return float64(n), true
	}
	vl, okl := distinct(lLabel, lOK)
	vr, okr := distinct(rLabel, rOK)
	// A label with zero direct text children cannot produce a match at
	// all (the (0, true) contract of Stats.DistinctTexts).
	if (okl && vl == 0) || (okr && vr == 0) {
		return 0
	}
	switch {
	case okl && okr:
		return clamp01(1 / maxf(vl, vr))
	case okl:
		return clamp01(1 / vl)
	case okr:
		return clamp01(1 / vr)
	}
	return fallback
}

// condSelectivity estimates the fraction of the cross product satisfying
// one atomic condition. External-variable bounds are treated like
// constants of their kind.
func (e *Estimator) condSelectivity(c tpm.Cmp) float64 {
	l, r := c.Left, c.Right
	// Normalize: attribute on the left.
	if l.Kind != tpm.OpAttr && r.Kind == tpm.OpAttr {
		l, r = r, l
		// flip comparison direction for asymmetric operators
		switch c.Op {
		case tpm.CmpLt:
			c.Op = tpm.CmpGt
		case tpm.CmpGt:
			c.Op = tpm.CmpLt
		}
	}
	if l.Kind != tpm.OpAttr {
		return 1
	}
	switch l.Attr.Col {
	case tpm.ColType:
		if r.Kind == tpm.OpConstType {
			switch r.Type {
			case xasr.TypeElem:
				return clamp01(e.elems / e.nodes)
			case xasr.TypeText:
				return clamp01(e.texts / e.nodes)
			default:
				return 1 / e.nodes
			}
		}
		return 0.5
	case tpm.ColValue:
		if r.Kind == tpm.OpConstStr {
			// Without a type cond we cannot tell labels from text values;
			// the planner estimates (type, value) pairs via PairCard, so a
			// lone value predicate uses the label estimate.
			return clamp01(e.labelCard(r.Str) / e.nodes)
		}
		if r.Kind == tpm.OpAttr && r.Attr.Col == tpm.ColValue {
			// Text-value equi-join with no label context: assume
			// near-unique text values. The planner routes joins whose
			// parent labels it can recover through TextEquiJoinSel.
			return 1 / maxf(e.texts, 1)
		}
		return 0.1
	case tpm.ColParentIn:
		// parent_in = X: X's children.
		return clamp01(e.avgFanout / e.nodes)
	case tpm.ColIn, tpm.ColOut:
		switch c.Op {
		case tpm.CmpEq:
			return 1 / e.nodes
		default:
			if r.Kind == tpm.OpVarIn || r.Kind == tpm.OpVarOut || r.Kind == tpm.OpAttr {
				// One side of a descendant interval: the pair contributes
				// sqrt of the full descendant selectivity so that the
				// canonical (in >, out <) pair multiplies out to
				// avgDepth/N, the paper's gross measure.
				return clamp01(math.Sqrt(e.avgDepth / e.nodes))
			}
			// in > 1 (descendants of the root): everything.
			return 1
		}
	}
	return 0.5
}

// PairSelectivity estimates a conjunction, recognizing (type, value) label
// pairs so that accurate statistics use exact per-label cardinalities.
func (e *Estimator) PairSelectivity(conds []tpm.Cmp) float64 {
	sel := 1.0
	var typeOf *tpm.Cmp
	var valueOf *tpm.Cmp
	for i := range conds {
		c := conds[i]
		if c.Op == tpm.CmpEq && c.Left.Kind == tpm.OpAttr {
			switch {
			case c.Left.Attr.Col == tpm.ColType && c.Right.Kind == tpm.OpConstType:
				typeOf = &conds[i]
				continue
			case c.Left.Attr.Col == tpm.ColValue && c.Right.Kind == tpm.OpConstStr:
				valueOf = &conds[i]
				continue
			}
		}
		sel *= e.condSelectivity(c)
	}
	switch {
	case typeOf != nil && valueOf != nil && typeOf.Right.Type == xasr.TypeElem:
		sel *= clamp01(e.labelCard(valueOf.Right.Str) / e.nodes)
	case typeOf != nil && valueOf != nil && typeOf.Right.Type == xasr.TypeText:
		sel *= clamp01(e.texts/e.nodes) * (1 / maxf(e.texts, 1)) * 10
	default:
		if typeOf != nil {
			sel *= e.condSelectivity(*typeOf)
		}
		if valueOf != nil {
			sel *= e.condSelectivity(*valueOf)
		}
	}
	return clamp01(sel)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
