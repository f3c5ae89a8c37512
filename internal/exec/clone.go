package exec

import "fmt"

// ClonePlan returns a deep copy of an executable plan with all runtime
// state (per-operator stats, compiled conjunctions) reset, sharing only
// the immutable compile-time parts: schemas, condition slices, twig
// shapes, and cost estimates.
//
// Plan nodes accumulate OpStats and compile their conjunctions lazily at
// open, so a PlanNode tree executes exactly once. The plan cache keeps one
// pristine compiled tree per (document, epoch, query, config) and hands
// every execution — including the first — its own clone, which makes
// concurrent executions of one cached plan race-free by construction.
func ClonePlan(p XPlan) XPlan {
	switch p := p.(type) {
	case XEmpty:
		return p
	case *XText, *XEmit:
		// Immutable leaves: share them.
		return p
	case *XConstr:
		return &XConstr{Label: p.Label, Body: ClonePlan(p.Body)}
	case *XSeq:
		items := make([]XPlan, len(p.Items))
		for i, it := range p.Items {
			items[i] = ClonePlan(it)
		}
		return &XSeq{Items: items}
	case *XRelFor:
		return &XRelFor{Vars: p.Vars, Root: cloneNode(p.Root), Body: ClonePlan(p.Body)}
	case *XIf:
		return &XIf{Cond: p.Cond, Then: ClonePlan(p.Then)}
	default:
		panic(fmt.Sprintf("exec: ClonePlan: unknown plan %T", p))
	}
}

// cloneNode deep-copies a physical operator tree. Each case copies the
// node's compile-time fields (shared where immutable) and leaves the
// zero-valued runtime fields (stats, cc) fresh.
func cloneNode(n PlanNode) PlanNode {
	switch n := n.(type) {
	case *Scan:
		return cloneScan(n)
	case *Filter:
		return &Filter{Child: cloneNode(n.Child), Conds: n.Conds, Est_: n.Est_}
	case *NLJoin:
		return &NLJoin{Left: cloneNode(n.Left), Right: cloneNode(n.Right),
			Conds: n.Conds, BlockRows: n.BlockRows, Est_: n.Est_, schema: n.schema}
	case *INLJoin:
		return &INLJoin{Left: cloneNode(n.Left), Inner: cloneScan(n.Inner),
			Conds: n.Conds, Est_: n.Est_, schema: n.schema}
	case *Project:
		return &Project{Child: cloneNode(n.Child), Keep: n.Keep, Dedup: n.Dedup,
			Est_: n.Est_, schema: n.schema, slots: n.slots}
	case *Sort:
		return &Sort{Child: cloneNode(n.Child), By: n.By, Dedup: n.Dedup,
			Est_: n.Est_, keySlots: n.keySlots}
	case *StructuralJoin:
		return &StructuralJoin{Left: cloneNode(n.Left), Right: cloneNode(n.Right),
			Pred: n.Pred, Conds: n.Conds, AncOrder: n.AncOrder, Est_: n.Est_,
			schema: n.schema, ancLeft: n.ancLeft, ancSlot: n.ancSlot, descSlot: n.descSlot}
	case *TwigJoin:
		streams := make([]PlanNode, len(n.Streams))
		for i, s := range n.Streams {
			streams[i] = cloneNode(s)
		}
		return &TwigJoin{Streams: streams, Twig: n.Twig, Conds: n.Conds,
			OutOrder: n.OutOrder, Est_: n.Est_, schema: n.schema,
			children: n.children, leafPath: n.leafPath, paths: n.paths, outSlots: n.outSlots}
	default:
		panic(fmt.Sprintf("exec: cloneNode: unknown operator %T", n))
	}
}

// cloneScan copies a leaf scan, preserving its typed identity (INL inners
// hold *Scan, not PlanNode).
func cloneScan(s *Scan) *Scan {
	return &Scan{Alias: s.Alias, Access: s.Access, Conds: s.Conds,
		Est_: s.Est_, schema: s.schema}
}
