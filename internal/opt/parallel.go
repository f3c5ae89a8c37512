// Intra-query parallelism as a physical choice. After the join-order
// auction picks a plan, a post-pass walks it and wraps each eligible leaf
// scan in an exchange when the divided scan/filter CPU beats the worker
// startup and batch-transfer overhead at the configured DOP. The pass runs
// below every order-sensitive operator unchanged: the exchange's ordered
// gather reproduces the serial scan's document-ordered stream, so the
// structural, twig, and projection order invariants are untouched.

package opt

import "xqdb/internal/exec"

// parallelize applies the DOP post-pass to a chosen plan; with DOP < 2 it
// is the identity.
func (p *Planner) parallelize(n exec.PlanNode) exec.PlanNode {
	if p.cfg.DOP < 2 || n == nil {
		return n
	}
	return p.parallelizeNode(n)
}

func (p *Planner) parallelizeNode(n exec.PlanNode) exec.PlanNode {
	switch t := n.(type) {
	case *exec.Scan:
		return p.maybeExchange(t)
	case *exec.Filter:
		t.Child = p.parallelizeNode(t.Child)
	case *exec.Project:
		t.Child = p.parallelizeNode(t.Child)
	case *exec.Sort:
		t.Child = p.parallelizeNode(t.Child)
	case *exec.NLJoin:
		t.Left = p.parallelizeNode(t.Left)
		t.Right = p.parallelizeNode(t.Right)
	case *exec.INLJoin:
		// The inner re-resolves its access bounds per outer row; only the
		// outer side can run under an exchange.
		t.Left = p.parallelizeNode(t.Left)
	case *exec.StructuralJoin:
		t.Left = p.parallelizeNode(t.Left)
		t.Right = p.parallelizeNode(t.Right)
	case *exec.TwigJoin:
		for i, s := range t.Streams {
			t.Streams[i] = p.parallelizeNode(s)
		}
	}
	return n
}

// maybeExchange wraps an eligible scan when parallel execution is
// estimated cheaper than serial (or unconditionally under ExchangeAll,
// with tiny morsels, for the fuzz/robustness harnesses).
func (p *Planner) maybeExchange(s *exec.Scan) exec.PlanNode {
	if !exec.ExchangeEligible(s) {
		return s
	}
	ex := exec.NewExchange(s, p.cfg.DOP)
	if p.cfg.ExchangeAll {
		ex.MorselRows = 1
		ex.Est_ = s.Est_
		return ex
	}
	parallel := p.est.ExchangeCost(s.Est_.Cost, s.Est_.Rows, p.cfg.DOP)
	if parallel >= s.Est_.Cost {
		return s
	}
	ex.Est_ = exec.Est{Rows: s.Est_.Rows, Cost: parallel}
	return ex
}
