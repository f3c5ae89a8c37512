package exec

import (
	"fmt"
	"strings"
)

// Explain renders an executable plan, including the physical operator
// trees inside each relfor with the optimizer's row and cost estimates —
// the output of `xqdb explain` and the plan snapshots in EXPERIMENTS.md.
func Explain(p XPlan) string {
	var b strings.Builder
	explainX(&b, p, 0, nil)
	return b.String()
}

func pad(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

// explainX renders p; a non-nil run adds its per-operator tallies.
func explainX(b *strings.Builder, p XPlan, depth int, run *Ctx) {
	pad(b, depth)
	switch p := p.(type) {
	case XEmpty:
		b.WriteString("()\n")
	case *XText:
		fmt.Fprintf(b, "text(%q)\n", p.Content)
	case *XEmit:
		fmt.Fprintf(b, "emit($%s)\n", p.Var)
	case *XConstr:
		fmt.Fprintf(b, "constr(%s)\n", p.Label)
		explainX(b, p.Body, depth+1, run)
	case *XSeq:
		b.WriteString("seq\n")
		for _, it := range p.Items {
			explainX(b, it, depth+1, run)
		}
	case *XIf:
		fmt.Fprintf(b, "if[runtime] %s\n", p.Cond)
		explainX(b, p.Then, depth+1, run)
	case *XRelFor:
		vars := make([]string, len(p.Vars))
		for i, v := range p.Vars {
			vars[i] = "$" + v
		}
		fmt.Fprintf(b, "relfor (%s)\n", strings.Join(vars, ", "))
		explainNode(b, p.Root, depth+1, run)
		pad(b, depth+1)
		b.WriteString("return\n")
		explainX(b, p.Body, depth+2, run)
	default:
		fmt.Fprintf(b, "?%T\n", p)
	}
}

// ExplainNode renders one physical operator subtree.
func ExplainNode(b *strings.Builder, n PlanNode, depth int) {
	explainNode(b, n, depth, nil)
}

func explainNode(b *strings.Builder, n PlanNode, depth int, run *Ctx) {
	indent := strings.Repeat("  ", depth)
	explainNodePrefixed(b, n, indent, indent, run)
}

// explainNodePrefixed renders a node line and its children with tree
// glyphs. head is written before the node's description; rest prefixes
// every following line of the subtree — so k-ary operators (the twig
// join's per-stream inputs) indent correctly, with ├─/└─ branches and │
// continuation rails for all children beyond the first two.
func explainNodePrefixed(b *strings.Builder, n PlanNode, head, rest string, run *Ctx) {
	b.WriteString(head)
	est := n.Estimate()
	if est.Rows != 0 || est.Cost != 0 {
		fmt.Fprintf(b, "%s  (rows≈%.0f cost≈%.0f)", n.Describe(), est.Rows, est.Cost)
	} else {
		fmt.Fprintf(b, "%s", n.Describe())
	}
	if run != nil {
		st := run.Stats(n)
		fmt.Fprintf(b, "  (actual rows=%d opens=%d", st.Rows, st.Opens)
		if st.Batches > 0 {
			fmt.Fprintf(b, " batches=%d", st.Batches)
		}
		if st.SelRows > 0 {
			// Selectivity of the operator's residual predicate: rows kept
			// over rows the predicate saw.
			fmt.Fprintf(b, " sel=%.2f", float64(st.Rows)/float64(st.SelRows))
		}
		if st.StackMax > 0 {
			fmt.Fprintf(b, " stack=%d", st.StackMax)
		}
		if st.ListMax > 0 {
			fmt.Fprintf(b, " list=%d", st.ListMax)
		}
		if st.SpilledBytes > 0 || st.SpillRuns > 0 {
			fmt.Fprintf(b, " spilled=%dB runs=%d", st.SpilledBytes, st.SpillRuns)
		}
		b.WriteString(")")
	}
	b.WriteString("\n")
	children := n.Children()
	for i, ch := range children {
		glyph, cont := "├─ ", "│  "
		if i == len(children)-1 {
			glyph, cont = "└─ ", "   "
		}
		explainNodePrefixed(b, ch, rest+glyph, rest+cont, run)
	}
}

// ExplainAnalyze renders one executed run of a plan: the operator tree
// with the optimizer estimates AND the per-operator tallies the run ctx
// collected, followed by the run's query-wide counters.
func ExplainAnalyze(p XPlan, run *Ctx) string {
	var b strings.Builder
	explainX(&b, p, 0, run)
	c := run.Counters
	fmt.Fprintf(&b, "\ncounters: scanned=%d joined=%d structural=%d twig=%d emitted=%d\n",
		c.RowsScanned, c.RowsJoined, c.RowsStructural, c.RowsTwig, c.RowsEmitted)
	fmt.Fprintf(&b, "          probes=%d rescans=%d sorted=%d spilled=%d stack-max=%d list-max=%d path-solutions=%d\n",
		c.IndexProbes, c.InnerRescans, c.SortedRows, c.SpilledTuples, c.StructStackMax, c.StructListMax, c.TwigPathSolutions)
	fmt.Fprintf(&b, "          spill-bytes=%d spill-runs=%d batches=%d\n",
		c.SpilledBytes, c.SpillRuns, c.Batches)
	return b.String()
}

// PlanCost sums the estimated cost over the physical trees of a plan.
func PlanCost(p XPlan) float64 {
	total := 0.0
	var walkX func(XPlan)
	walkX = func(p XPlan) {
		switch p := p.(type) {
		case *XConstr:
			walkX(p.Body)
		case *XSeq:
			for _, it := range p.Items {
				walkX(it)
			}
		case *XIf:
			walkX(p.Then)
		case *XRelFor:
			total += p.Root.Estimate().Cost
			walkX(p.Body)
		}
	}
	walkX(p)
	return total
}
