// Package opt is the query optimizer: milestone 3's heuristic algebraic
// optimization (selection pushdown into scans, join creation from
// products, order-preserving join orders) and milestone 4's cost-based
// optimization (statistics-driven cardinality estimation, join-order
// enumeration, index-based access paths and index nested-loops joins, and
// the semijoin-style projection pushing of Example 6 / plan QP2).
package opt

// Strategy is a bit set of the paper's three answers to the ordering
// problem of Section 2 (milestone 3, "The Role of Order").
type Strategy uint8

// Order strategies.
const (
	// OrderPreserve is approach (c): order-preserving physical operators
	// with the join order constrained so the projection attributes form a
	// sorted prefix; duplicates are removed during projection in one pass.
	OrderPreserve Strategy = 1 << iota
	// OrderSemijoin is approach (b): projections are pushed below joins
	// (semijoin-style, plan QP2 of Example 6), which lets condition
	// relations join early and still keeps the prefix sorted.
	OrderSemijoin
	// OrderSort is approach (a): evaluate in any order (even with
	// non-order-preserving operators) and restore document order with an
	// external sort before the final projection.
	OrderSort
)

// StructEmit selects which emission orders the planner may choose for the
// stack-based structural merge join. The operator implements two: the
// descendant-ordered Stack-Tree-Desc merge (streaming, but ancestor-first
// vartuples need an external repair sort above it) and the
// ancestor-ordered Stack-Tree-Anc merge (order-preserving for
// ancestor-first vartuples, at the price of buffering the non-bottom
// share of the output in per-stack-entry lists).
type StructEmit uint8

// Structural emission modes.
const (
	// EmitAny enumerates both emission orders as separate candidates and
	// lets the finalize-level costs (repair sort vs peak output list)
	// arbitrate. The zero value, and the M4 default.
	EmitAny StructEmit = iota
	// EmitDesc restricts the planner to the descendant-ordered variant
	// (the pre-Stack-Tree-Anc behavior; the sort-repaired baseline of
	// the ablation benchmarks).
	EmitDesc
	// EmitAnc restricts the planner to the ancestor-ordered variant.
	EmitAnc
)

// StatsMode selects the quality of the statistics the cost model sees.
type StatsMode uint8

// Statistics modes.
const (
	// StatsAccurate uses the per-label cardinalities and average depth
	// collected at load time.
	StatsAccurate StatsMode = iota
	// StatsUniform assumes every label is equally frequent (total element
	// count divided by the number of distinct labels) — the "unlucky
	// estimates" that sent the paper's engine 2 into a 2400-second
	// timeout on efficiency test 5.
	StatsUniform
	// StatsNone uses fixed default selectivities (no statistics at all).
	StatsNone
)

// Config controls which optimizations the planner may use; the presets
// below correspond to the course milestones and the engine configurations
// compared in Figure 7.
type Config struct {
	// CostBased enables join-order enumeration by estimated cost
	// (milestone 4). When false, the syntactic order is kept: vartuple
	// relations first, in order, then condition relations.
	CostBased bool
	// Strategies is the set of permitted order strategies.
	Strategies Strategy
	// UseLabelIndex / UseParentIndex enable the milestone 4 secondary
	// indexes as access paths.
	UseLabelIndex  bool
	UseParentIndex bool
	// UseINL enables index nested-loops joins.
	UseINL bool
	// UseBNL enables block nested-loops joins (only useful together with
	// OrderSort, since BNL destroys document order).
	UseBNL bool
	// UseStructural enables the stack-based structural merge join for
	// descendant and child predicates (one O(n+m) pass over two
	// document-ordered streams instead of nested loops or per-row index
	// probes). Off for the milestone presets that predate it; disable on
	// M4 for ablation.
	UseStructural bool
	// StructuralEmit restricts which structural-join emission orders the
	// planner may enumerate (meaningful only with UseStructural).
	StructuralEmit StructEmit
	// UseTwig enables the holistic twig join: when the structural
	// predicates of a conjunction assemble into one connected twig over
	// three or more relations, the whole path pattern is evaluated in a
	// single multi-stream TwigStack pass instead of a chain of binary
	// joins, bounding intermediates by the twig's path solutions. Off for
	// the milestone presets that predate it; disable on M4 for ablation.
	UseTwig bool
	// UsePartialTwig lets the planner adopt a twig covering a *subset* of
	// a conjunction's relations as a leading sub-plan: the maximal
	// connected subtwig runs as one holistic TwigJoin "base relation" and
	// the uncovered relations (value equi-joins, disconnected components)
	// join on top via the ordinary operator families. Only meaningful
	// together with UseTwig; off for ablation (the all-or-nothing twig of
	// the original M4).
	UsePartialTwig bool
	// Stats selects the statistics quality for the cost model.
	Stats StatsMode
	// MaxEnumRels caps exhaustive join-order enumeration; beyond it the
	// planner falls back to the syntactic order (guards against
	// pathological queries; 8! = 40320 orders is the default cap).
	MaxEnumRels int
	// SpoolBudget is the operator memory budget in bytes the cost model
	// assumes for materialized join inners: inners that fit are re-read
	// at CPU cost, spilled inners at page cost. 0 uses the recfile
	// default (4 MiB).
	SpoolBudget int
}

// M3 returns the milestone 3 configuration: heuristic optimization only —
// selections pushed into primary-tree scans, products turned into
// order-preserving nested-loops joins in syntactic order, one-pass
// duplicate-eliminating projection. No secondary indexes, no statistics.
func M3() Config {
	return Config{
		CostBased:  false,
		Strategies: OrderPreserve,
		Stats:      StatsNone,
	}
}

// M4 returns the milestone 4 configuration: cost-based join ordering with
// accurate statistics, all index access paths, INL joins, and all three
// order strategies to choose from.
func M4() Config {
	return Config{
		CostBased:      true,
		Strategies:     OrderPreserve | OrderSemijoin | OrderSort,
		UseLabelIndex:  true,
		UseParentIndex: true,
		UseINL:         true,
		UseBNL:         true,
		UseStructural:  true,
		StructuralEmit: EmitAny,
		UseTwig:        true,
		UsePartialTwig: true,
		Stats:          StatsAccurate,
		MaxEnumRels:    8,
	}
}

// M4BadStats returns the model of the paper's engine 2: a milestone 4
// engine that — like "most of the engines" in the course — generates
// order-preserving plans, and whose uniform-label statistics are the
// "unlucky estimates" of Section 4. With every label estimated equally
// frequent, the estimates hide the payoff of breaking the syntactic join
// order (the sort-based reordering full M4 takes), so the very
// unselective join stays at the bottom of the plan on efficiency test 5
// while every other test still produces excellent plans.
func M4BadStats() Config {
	cfg := M4()
	cfg.Stats = StatsUniform
	cfg.Strategies = OrderPreserve | OrderSemijoin
	cfg.UseBNL = false
	// Engine 2 predates the structural merge and twig joins; keeping them
	// off also keeps the Figure 7 gap attributable to statistics quality.
	cfg.UseStructural = false
	cfg.UseTwig = false
	cfg.UsePartialTwig = false
	return cfg
}

// NaiveTPM returns the "mirror the query structure" configuration (the
// QP0 shape of Example 6): no merging benefit is taken from indexes or
// reordering — full scans and nested loops in syntactic order.
func NaiveTPM() Config {
	return Config{
		CostBased:  false,
		Strategies: OrderPreserve,
		Stats:      StatsNone,
	}
}

// ForceJoin returns the M4 configuration restricted to one join operator
// family — the shared recipe behind the ablation benchmark, the xqbench
// -join flag and the equivalence suite:
//
//	twig            holistic twig join forced: every binary competitor
//	                off, so any conjunction whose predicates assemble
//	                into a twig runs TwigJoin; with partial-twig adoption
//	                (UsePartialTwig, inherited on) a conjunction whose
//	                predicates cover only a subset runs the subtwig with
//	                the remainder joined on top — interval-bounded INL
//	                where a parameterized access exists, plain NL
//	                otherwise
//	structural      binary merge join forced (twig and loop competitors
//	                off), restricted to the descendant-ordered
//	                Stack-Tree-Desc emission — ancestor-first vartuples
//	                pay the repair sort, making this the baseline the
//	                anc-ordered variant is measured against
//	structural-anc  binary merge join forced, restricted to the
//	                ancestor-ordered Stack-Tree-Anc emission
//	inl             structural and twig off; index nested-loops take over
//	nl              loop joins only, no blocks, no indexes into the join
//	bnl             loop joins with block nesting allowed (the planner
//	                may still pick plain NL for joins where it is
//	                cheaper)
//
// ok is false for unknown names (including "auto").
func ForceJoin(family string) (cfg Config, ok bool) {
	cfg = M4()
	switch family {
	case "twig":
		cfg.UseStructural = false
		cfg.UseINL = false
		cfg.UseBNL = false
	case "structural":
		cfg.UseTwig = false
		cfg.UseINL = false
		cfg.UseBNL = false
		cfg.StructuralEmit = EmitDesc
	case "structural-anc":
		cfg.UseTwig = false
		cfg.UseINL = false
		cfg.UseBNL = false
		cfg.StructuralEmit = EmitAnc
	case "inl":
		cfg.UseTwig = false
		cfg.UseStructural = false
	case "nl":
		cfg.UseTwig = false
		cfg.UseStructural = false
		cfg.UseINL = false
		cfg.UseBNL = false
	case "bnl":
		cfg.UseTwig = false
		cfg.UseStructural = false
		cfg.UseINL = false
	default:
		return cfg, false
	}
	return cfg, true
}

func (c Config) allow(s Strategy) bool { return c.Strategies&s != 0 }
