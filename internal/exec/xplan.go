package exec

import (
	"fmt"

	"xqdb/internal/naive"
	"xqdb/internal/xasr"
	"xqdb/internal/xmltok"
	"xqdb/internal/xq"
)

// XPlan is the executable form of a TPM plan: the structural operators
// stay (construction, sequence, output), while every relfor carries a
// physical operator tree chosen by the optimizer.
type XPlan interface {
	isXPlan()
}

// XEmpty produces nothing.
type XEmpty struct{}

// XText emits a literal text node.
type XText struct {
	Content string
}

// XEmit serializes the subtree currently bound to Var.
type XEmit struct {
	Var string
}

// XConstr wraps Body's output in an element.
type XConstr struct {
	Label string
	Body  XPlan
}

// XSeq concatenates its items' output.
type XSeq struct {
	Items []XPlan
}

// XRelFor executes the physical Root plan; each result row binds Vars (the
// row's slots correspond 1:1 to Vars) and evaluates Body. With no Vars it
// implements the nullary pass-fail check: Body runs once if the algebra
// result is nonempty, and the root is asked for one row only (an early-out
// the relational semantics licenses).
type XRelFor struct {
	Vars []string
	Root PlanNode
	Body XPlan
}

// XIf evaluates a non-TPM-able condition per binding using the milestone 2
// machinery, then runs Then.
type XIf struct {
	Cond xq.Cond
	Then XPlan
}

func (XEmpty) isXPlan()   {}
func (*XText) isXPlan()   {}
func (*XEmit) isXPlan()   {}
func (*XConstr) isXPlan() {}
func (*XSeq) isXPlan()    {}
func (*XRelFor) isXPlan() {}
func (*XIf) isXPlan()     {}

// Run executes an XPlan and returns the serialized XML result.
func Run(ctx *Ctx, p XPlan) ([]byte, error) {
	if ctx.Env == nil {
		ctx.Env = Env{}
	}
	return run(ctx, p, nil)
}

func run(ctx *Ctx, p XPlan, out []byte) ([]byte, error) {
	if err := ctx.check(); err != nil {
		return out, err
	}
	switch p := p.(type) {
	case XEmpty:
		return out, nil
	case *XText:
		return xmltok.AppendEscaped(out, p.Content), nil
	case *XEmit:
		b, ok := ctx.Env[p.Var]
		if !ok {
			return out, fmt.Errorf("exec: unbound variable $%s", p.Var)
		}
		ctx.Counters.RowsEmitted++
		return ctx.Store.AppendSubtree(out, b.In)
	case *XConstr:
		inner, err := run(ctx, p.Body, nil)
		if err != nil {
			return out, err
		}
		if len(inner) == 0 {
			out = append(out, '<')
			out = append(out, p.Label...)
			return append(out, '/', '>'), nil
		}
		out = append(out, '<')
		out = append(out, p.Label...)
		out = append(out, '>')
		out = append(out, inner...)
		out = append(out, '<', '/')
		out = append(out, p.Label...)
		return append(out, '>'), nil
	case *XSeq:
		var err error
		for _, item := range p.Items {
			out, err = run(ctx, item, out)
			if err != nil {
				return out, err
			}
		}
		return out, nil
	case *XRelFor:
		return runRelFor(ctx, p, out)
	case *XIf:
		ok, err := evalRuntimeCond(ctx, p.Cond)
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		return run(ctx, p.Then, out)
	default:
		return out, fmt.Errorf("exec: unknown plan %T", p)
	}
}

func runRelFor(ctx *Ctx, p *XRelFor, out []byte) ([]byte, error) {
	it, err := p.Root.open(ctx, nil, nil)
	if err != nil {
		return out, err
	}
	defer it.Close()

	if len(p.Vars) == 0 {
		// Nullary pass-fail: nonempty result means "true", so ask the root
		// for a single row — the early-out stops every producer after it.
		b := Batch{limit: 1}
		n, err := it.NextBatch(&b)
		if err != nil || n == 0 {
			return out, err
		}
		return run(ctx, p.Body, out)
	}

	// The operator pipeline moves batches; only this binding loop walks
	// rows.
	rows := rowView{src: it}

	// Save shadowed bindings so nested relfors over the same names (from
	// separate query branches) restore correctly.
	saved := make([]Binding, len(p.Vars))
	had := make([]bool, len(p.Vars))
	for i, v := range p.Vars {
		saved[i], had[i] = ctx.Env[v]
	}
	defer func() {
		for i, v := range p.Vars {
			if had[i] {
				ctx.Env[v] = saved[i]
			} else {
				delete(ctx.Env, v)
			}
		}
	}()

	for {
		row, ok, err := rows.next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		if len(row) < len(p.Vars) {
			return out, fmt.Errorf("exec: relfor row has %d slots for %d vars", len(row), len(p.Vars))
		}
		for i, v := range p.Vars {
			ctx.Env[v] = Binding{In: row[i].In, Out: row[i].Out}
		}
		out, err = run(ctx, p.Body, out)
		if err != nil {
			return out, err
		}
	}
}

// evalRuntimeCond evaluates a non-TPM condition by materializing the free
// variables' tuples and delegating to the milestone 2 evaluator.
func evalRuntimeCond(ctx *Ctx, c xq.Cond) (bool, error) {
	bindings := map[string]xasr.Tuple{}
	for v := range xq.FreeVarsCond(c) {
		b, ok := ctx.Env[v]
		if !ok {
			return false, fmt.Errorf("exec: unbound variable $%s in condition", v)
		}
		t, found, err := ctx.Store.Lookup(b.In)
		if err != nil {
			return false, err
		}
		if !found {
			return false, fmt.Errorf("exec: dangling binding $%s -> in=%d", v, b.In)
		}
		bindings[v] = t
	}
	root, err := ctx.Store.Root()
	if err != nil {
		return false, err
	}
	bindings[xq.RootVar] = root
	ev := naive.New(ctx.Store)
	ev.Deadline = ctx.Budget.Deadline()
	return ev.CondHolds(c, bindings)
}
