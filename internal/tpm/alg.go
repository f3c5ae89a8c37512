// Package tpm implements the TPM algebra of milestone 3: projections,
// selections, cross products and joins over XASR relations, plus the
// "super-for-loop" operator relfor, together with the rewriting of XQ
// queries into TPM and the relfor merging rule.
//
// Relational subexpressions are kept in project-select-product normal form
// (PSX in the paper):
//
//	π(A1..Am) σ(φ1 ∧ … ∧ φk) (R1 × … × Rn)
//
// with atomic conditions comparing attributes, constants and the values of
// externally bound variables. Following the paper's own improvement, relfor
// vartuples carry both the in- and out-values of each binding, so
// descendant steps from an outer variable need no extra self-join to
// recover the out-value.
package tpm

import (
	"fmt"
	"strings"

	"xqdb/internal/xasr"
)

// Col names a column of the XASR Node relation.
type Col uint8

// XASR columns.
const (
	ColIn Col = iota
	ColOut
	ColParentIn
	ColType
	ColValue
)

// String returns the schema name of the column.
func (c Col) String() string {
	switch c {
	case ColIn:
		return "in"
	case ColOut:
		return "out"
	case ColParentIn:
		return "parent_in"
	case ColType:
		return "type"
	case ColValue:
		return "value"
	}
	return fmt.Sprintf("col(%d)", uint8(c))
}

// Attr is a column of a named relation instance, e.g. J.in.
type Attr struct {
	Rel string
	Col Col
}

// String formats the attribute as Rel.col.
func (a Attr) String() string { return a.Rel + "." + a.Col.String() }

// OperandKind discriminates comparison operands.
type OperandKind uint8

// Operand kinds: an attribute, a string constant (for value), a node-type
// constant, an in-label constant (the root's in = 1), and the in/out
// components of an externally bound variable.
const (
	OpAttr OperandKind = iota
	OpConstStr
	OpConstType
	OpConstIn
	OpVarIn
	OpVarOut
)

// Operand is one side of an atomic comparison.
type Operand struct {
	Kind OperandKind
	Attr Attr          // OpAttr
	Str  string        // OpConstStr
	Type xasr.NodeType // OpConstType
	In   uint32        // OpConstIn
	Var  string        // OpVarIn / OpVarOut
}

// String renders the operand in the paper's notation.
func (o Operand) String() string {
	switch o.Kind {
	case OpAttr:
		return o.Attr.String()
	case OpConstStr:
		return o.Str
	case OpConstType:
		return o.Type.String()
	case OpConstIn:
		return fmt.Sprintf("%d", o.In)
	case OpVarIn:
		return "$" + o.Var
	case OpVarOut:
		return "$" + o.Var + ".out"
	}
	return "?"
}

// AttrOp returns an attribute operand.
func AttrOp(rel string, col Col) Operand {
	return Operand{Kind: OpAttr, Attr: Attr{Rel: rel, Col: col}}
}

// StrOp returns a string-constant operand.
func StrOp(s string) Operand { return Operand{Kind: OpConstStr, Str: s} }

// TypeOp returns a node-type constant operand.
func TypeOp(t xasr.NodeType) Operand { return Operand{Kind: OpConstType, Type: t} }

// InOp returns an in-label constant operand.
func InOp(in uint32) Operand { return Operand{Kind: OpConstIn, In: in} }

// VarInOp returns the in-value of an external variable binding.
func VarInOp(v string) Operand { return Operand{Kind: OpVarIn, Var: v} }

// VarOutOp returns the out-value of an external variable binding.
func VarOutOp(v string) Operand { return Operand{Kind: OpVarOut, Var: v} }

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators of TPM conditions.
const (
	CmpEq CmpOp = iota
	CmpLt
	CmpGt
)

// String renders the operator.
func (o CmpOp) String() string {
	switch o {
	case CmpEq:
		return "="
	case CmpLt:
		return "<"
	case CmpGt:
		return ">"
	}
	return "?"
}

// Cmp is an atomic condition Left op Right.
type Cmp struct {
	Op    CmpOp
	Left  Operand
	Right Operand
}

// String renders the condition, e.g. "J.parent_in = 1".
func (c Cmp) String() string {
	return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Right)
}

// Eq builds an equality condition.
func Eq(l, r Operand) Cmp { return Cmp{Op: CmpEq, Left: l, Right: r} }

// Lt builds a less-than condition.
func Lt(l, r Operand) Cmp { return Cmp{Op: CmpLt, Left: l, Right: r} }

// Gt builds a greater-than condition.
func Gt(l, r Operand) Cmp { return Cmp{Op: CmpGt, Left: l, Right: r} }

// Rels returns the relation aliases the condition touches (0, 1 or 2).
func (c Cmp) Rels() []string {
	var rels []string
	if c.Left.Kind == OpAttr {
		rels = append(rels, c.Left.Attr.Rel)
	}
	if c.Right.Kind == OpAttr && (len(rels) == 0 || rels[0] != c.Right.Attr.Rel) {
		rels = append(rels, c.Right.Attr.Rel)
	}
	return rels
}

// VarBinding records that a relfor variable is bound to the (in, out) of
// one relation instance of the PSX expression.
type VarBinding struct {
	Var string
	Rel string
}

// PSX is a relational algebra expression in project-select-product normal
// form over XASR relation instances.
type PSX struct {
	// Bind is the vartuple: each entry projects (Rel.in, Rel.out) and
	// binds them to Var. An empty Bind is the nullary projection π(),
	// used for pass-fail condition checks.
	Bind []VarBinding
	// Conds is the conjunction of atomic conditions.
	Conds []Cmp
	// Rels lists the XASR relation instances (aliases) in syntactic
	// order; physical join order is chosen by the optimizer.
	Rels []string
}

// Clone returns a deep copy.
func (p *PSX) Clone() *PSX {
	q := &PSX{
		Bind:  append([]VarBinding(nil), p.Bind...),
		Conds: append([]Cmp(nil), p.Conds...),
		Rels:  append([]string(nil), p.Rels...),
	}
	return q
}

// BindingRel returns the relation alias a variable is bound to, or "".
func (p *PSX) BindingRel(v string) string {
	for _, b := range p.Bind {
		if b.Var == v {
			return b.Rel
		}
	}
	return ""
}

// ExternalVars returns the external variables referenced by conditions.
func (p *PSX) ExternalVars() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range p.Conds {
		for _, op := range []Operand{c.Left, c.Right} {
			if (op.Kind == OpVarIn || op.Kind == OpVarOut) && !seen[op.Var] {
				seen[op.Var] = true
				out = append(out, op.Var)
			}
		}
	}
	return out
}

// String renders the PSX in the paper's abbreviation
// PSX((attrs), conds, (rels)).
func (p *PSX) String() string {
	var attrs []string
	for _, b := range p.Bind {
		attrs = append(attrs, b.Rel+".in")
	}
	var conds []string
	for _, c := range p.Conds {
		conds = append(conds, c.String())
	}
	var rels []string
	for _, r := range p.Rels {
		rels = append(rels, "XASR["+r+"]")
	}
	return fmt.Sprintf("PSX((%s), %s, (%s))",
		strings.Join(attrs, ", "),
		strings.Join(conds, " ∧ "),
		strings.Join(rels, ", "))
}
