// Package exec implements the physical operators of milestones 3 and 4 in
// the iterator model: scans (full, primary-range, label-index, parent-
// index), selections, order-preserving nested-loops joins, block
// nested-loops joins, index nested-loops joins, structural merge and
// holistic twig joins, one-pass duplicate-eliminating projections,
// external sort, and the relfor driver that evaluates the structural part
// of a TPM plan against a store. Every operator pulls its inputs through
// one contract, NextBatch (see batch.go).
//
// Intermediate rows bind one XASR tuple per relation alias. Milestone 3's
// allowance to "write each intermediate result to disk and re-read it" is
// the materialized inner of the nested-loops join (a recfile spool).
package exec

import (
	"encoding/binary"
	"fmt"

	"xqdb/internal/limit"
	"xqdb/internal/recfile"
	"xqdb/internal/store"
	"xqdb/internal/tpm"
	"xqdb/internal/xasr"
)

// Row is one intermediate tuple: an XASR tuple per relation slot. The slot
// order is given by the producing node's Schema.
type Row []xasr.Tuple

// Schema maps relation aliases to row slots.
type Schema struct {
	Aliases []string
	slots   map[string]int
}

// NewSchema builds a schema over the given aliases in slot order.
func NewSchema(aliases ...string) *Schema {
	s := &Schema{Aliases: append([]string(nil), aliases...), slots: make(map[string]int, len(aliases))}
	for i, a := range s.Aliases {
		s.slots[a] = i
	}
	return s
}

// Slot returns the slot index of an alias, or -1.
func (s *Schema) Slot(alias string) int {
	if i, ok := s.slots[alias]; ok {
		return i
	}
	return -1
}

// Concat returns a schema with other's aliases appended.
func (s *Schema) Concat(other *Schema) *Schema {
	return NewSchema(append(append([]string(nil), s.Aliases...), other.Aliases...)...)
}

// Project returns a schema keeping only the named aliases, in their order.
func (s *Schema) Project(keep []string) *Schema { return NewSchema(keep...) }

// Binding is the runtime value of a relfor variable: the in/out pair of
// the bound node (the paper's improved vartuple entries).
type Binding struct {
	In, Out uint32
}

// Env carries the current bindings of outer relfor variables.
type Env map[string]Binding

// Ctx is the execution context shared by all operators of one query.
type Ctx struct {
	Store   *store.Store
	TempDir string
	// Budget is the per-query resource governor: deadline, cancellation,
	// and the memory quota every buffering operator draws from. Nil means
	// no limits.
	Budget *limit.Budget
	Env    Env
	// SortBudget bounds operator memory for external sorts and spools.
	SortBudget int
	// FaultHook, when set, is consulted before temp-file writes (spools,
	// sort runs, spilled operator buffers); the fault-injection harness
	// uses it to fail the Nth write deterministically.
	FaultHook func(op string) error
	// BatchSize caps the rows per operator batch (0 means
	// DefaultBatchSize). Awkward sizes (1, 7) are exercised by the fuzz
	// harness to shake out batch-boundary bugs.
	BatchSize int
	// Counters accumulates runtime statistics for EXPLAIN ANALYZE-style
	// reporting and tests.
	Counters Counters
}

// check polls the query's budget (cancellation + deadline); operators call
// it once per NextBatch, probe, or merge step.
func (c *Ctx) check() error { return c.Budget.Check() }

// checkN polls the query's budget once for a batch of n rows; batched
// operators call it per batch instead of per row.
func (c *Ctx) checkN(n int) error { return c.Budget.CheckN(n) }

// produced tallies one output batch of n rows against the producing
// operator's stats and the query counters, and returns n; an empty batch
// (end of stream) counts nothing.
func (c *Ctx) produced(st *OpStats, n int) int {
	if n > 0 {
		st.Rows += int64(n)
		st.Batches++
		c.Counters.Batches++
	}
	return n
}

// batchCap returns the row capacity batched operators size their batches
// to.
func (c *Ctx) batchCap() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return DefaultBatchSize
}

// softBudget returns the per-operator buffering budget in bytes.
func (c *Ctx) softBudget() int {
	if c.SortBudget > 0 {
		return c.SortBudget
	}
	return recfile.DefaultSortBudget
}

// Counters tallies operator activity during one query. RowsJoined counts
// pairs produced by the loop-based joins (NL, BNL, INL); RowsStructural
// counts pairs produced by the stack-based structural merge join, so the
// two together measure how much join work ran on which operator family.
type Counters struct {
	RowsScanned   int64
	RowsJoined    int64
	RowsEmitted   int64
	InnerRescans  int64
	IndexProbes   int64
	SortedRows    int64
	SpilledTuples int64
	// RowsStructural counts pairs emitted by structural merge joins.
	RowsStructural int64
	// StructStackMax is the ancestor-stack high-water mark over all
	// structural merge joins (binary and holistic) of the query.
	StructStackMax int64
	// StructListMax is the output-list high-water mark over all
	// anc-ordered structural merge joins of the query: the most joined
	// rows any Stack-Tree-Anc operator held in its per-stack-entry
	// self/inherit output lists at once — the memory the
	// ancestor-ordered emission pays for skipping the repair sort.
	StructListMax int64
	// RowsTwig counts full twig matches emitted by holistic twig joins.
	RowsTwig int64
	// TwigPathSolutions counts root-to-leaf path solutions buffered by
	// holistic twig joins — the operator's only intermediate result, to
	// compare against the RowsJoined/RowsStructural intermediates of the
	// binary pipelines.
	TwigPathSolutions int64
	// SpilledBytes counts bytes written to temp files by buffering
	// operators (spools, sort runs, twig solution buffers, anc output
	// lists) when they overflow their memory budget.
	SpilledBytes int64
	// SpillRuns counts temp run files those operators created.
	SpillRuns int64
	// Batches counts the non-empty row batches operators produced.
	Batches int64
}

// OpStats tallies one operator instance's runtime activity while a plan
// executes; EXPLAIN ANALYZE prints them next to the optimizer estimates.
// Plans are compiled per query execution, so the tallies belong to exactly
// one run (re-running a hand-built plan accumulates).
type OpStats struct {
	// Opens counts iterator openings (per outer row for INL inners).
	Opens int64
	// Rows counts rows the operator returned.
	Rows int64
	// StackMax is the ancestor-stack high-water mark (structural join).
	StackMax int64
	// ListMax is the buffered output-list high-water mark (anc-ordered
	// structural join).
	ListMax int64
	// SpilledBytes counts bytes this operator wrote to temp files.
	SpilledBytes int64
	// SpillRuns counts temp run files this operator created.
	SpillRuns int64
	// Batches counts the non-empty row batches this operator produced.
	Batches int64
	// SelRows counts candidate rows examined by this operator's residual
	// predicate; Rows/SelRows is the observed selectivity EXPLAIN ANALYZE
	// prints as sel=.
	SelRows int64
}

// resolveIn resolves an in/out-valued operand against the environment and
// an optional outer row (for index nested-loops inners).
func resolveIn(op tpm.Operand, outer Row, outerSchema *Schema, env Env) (uint32, error) {
	switch op.Kind {
	case tpm.OpConstIn:
		return op.In, nil
	case tpm.OpVarIn:
		b, ok := env[op.Var]
		if !ok {
			return 0, fmt.Errorf("exec: unbound variable $%s", op.Var)
		}
		return b.In, nil
	case tpm.OpVarOut:
		b, ok := env[op.Var]
		if !ok {
			return 0, fmt.Errorf("exec: unbound variable $%s", op.Var)
		}
		return b.Out, nil
	case tpm.OpAttr:
		if outerSchema == nil {
			return 0, fmt.Errorf("exec: attribute %s used without outer row", op.Attr)
		}
		slot := outerSchema.Slot(op.Attr.Rel)
		if slot < 0 {
			return 0, fmt.Errorf("exec: attribute %s not in outer schema", op.Attr)
		}
		t := outer[slot]
		switch op.Attr.Col {
		case tpm.ColIn:
			return t.In, nil
		case tpm.ColOut:
			return t.Out, nil
		case tpm.ColParentIn:
			return t.ParentIn, nil
		default:
			return 0, fmt.Errorf("exec: attribute %s is not numeric", op.Attr)
		}
	default:
		return 0, fmt.Errorf("exec: operand %v is not an in-value", op)
	}
}

// operandOn evaluates an operand against a row, returning either a numeric
// or a string value.
func operandOn(op tpm.Operand, row Row, schema *Schema, env Env) (num uint32, str string, isStr bool, err error) {
	slot := -1
	if op.Kind == tpm.OpAttr {
		if slot = schema.Slot(op.Attr.Rel); slot < 0 {
			return 0, "", false, fmt.Errorf("exec: attribute %s not in schema %v", op.Attr, schema.Aliases)
		}
	}
	return operandSlot(op, slot, row, env)
}

// operandSlot is operandOn with the attribute slot already resolved —
// the per-row path of compiled conjunctions, which does no map lookups.
func operandSlot(op tpm.Operand, slot int, row Row, env Env) (num uint32, str string, isStr bool, err error) {
	switch op.Kind {
	case tpm.OpConstStr:
		return 0, op.Str, true, nil
	case tpm.OpConstType:
		return uint32(op.Type), "", false, nil
	case tpm.OpConstIn:
		return op.In, "", false, nil
	case tpm.OpVarIn, tpm.OpVarOut:
		n, err := resolveIn(op, nil, nil, env)
		return n, "", false, err
	case tpm.OpAttr:
		t := row[slot]
		switch op.Attr.Col {
		case tpm.ColIn:
			return t.In, "", false, nil
		case tpm.ColOut:
			return t.Out, "", false, nil
		case tpm.ColParentIn:
			return t.ParentIn, "", false, nil
		case tpm.ColType:
			return uint32(t.Type), "", false, nil
		case tpm.ColValue:
			return 0, t.Value, true, nil
		}
	}
	return 0, "", false, fmt.Errorf("exec: bad operand %v", op)
}

// evalConds evaluates a conjunction against a row.
func evalConds(conds []tpm.Cmp, row Row, schema *Schema, env Env) (bool, error) {
	for _, c := range conds {
		ok, err := evalCond(c, row, schema, env)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// compiledConds is a conjunction whose attribute operands were resolved
// to row slots once, at operator open. Per-row evaluation then indexes
// the row directly instead of hashing alias strings through the schema
// map for every condition of every row — the dominant cost of predicate
// evaluation in tight join loops.
type compiledConds struct {
	conds []tpm.Cmp
	slots [][2]int // per condition: left/right OpAttr slot, -1 for non-attrs
}

// compile resolves conds' attribute slots against schema, once per plan
// node: the first open compiles, later opens (INL probes reopen their
// inner scan per outer row) reuse the slots. Unknown attributes surface
// at open time instead of on the first row.
func (cc *compiledConds) compile(conds []tpm.Cmp, schema *Schema) error {
	if cc.slots != nil || len(conds) == 0 {
		return nil
	}
	cc.conds = conds
	cc.slots = make([][2]int, len(conds))
	for i, c := range conds {
		for side, op := range [2]tpm.Operand{c.Left, c.Right} {
			slot := -1
			if op.Kind == tpm.OpAttr {
				if slot = schema.Slot(op.Attr.Rel); slot < 0 {
					return fmt.Errorf("exec: attribute %s not in schema %v", op.Attr, schema.Aliases)
				}
			}
			cc.slots[i][side] = slot
		}
	}
	return nil
}

// eval evaluates the compiled conjunction against row. A zero-value
// compiledConds (no conditions) passes everything.
func (cc *compiledConds) eval(row Row, env Env) (bool, error) {
	for i, c := range cc.conds {
		ok, err := evalCondSlots(c, cc.slots[i], row, env)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

func evalCondSlots(c tpm.Cmp, slots [2]int, row Row, env Env) (bool, error) {
	ln, ls, lStr, err := operandSlot(c.Left, slots[0], row, env)
	if err != nil {
		return false, err
	}
	rn, rs, rStr, err := operandSlot(c.Right, slots[1], row, env)
	if err != nil {
		return false, err
	}
	return cmpValues(c, ln, ls, lStr, rn, rs, rStr)
}

func evalCond(c tpm.Cmp, row Row, schema *Schema, env Env) (bool, error) {
	ln, ls, lStr, err := operandOn(c.Left, row, schema, env)
	if err != nil {
		return false, err
	}
	rn, rs, rStr, err := operandOn(c.Right, row, schema, env)
	if err != nil {
		return false, err
	}
	return cmpValues(c, ln, ls, lStr, rn, rs, rStr)
}

func cmpValues(c tpm.Cmp, ln uint32, ls string, lStr bool, rn uint32, rs string, rStr bool) (bool, error) {
	if lStr != rStr {
		return false, fmt.Errorf("exec: type mismatch in condition %s", c)
	}
	if lStr {
		switch c.Op {
		case tpm.CmpEq:
			return ls == rs, nil
		case tpm.CmpLt:
			return ls < rs, nil
		case tpm.CmpGt:
			return ls > rs, nil
		}
	}
	switch c.Op {
	case tpm.CmpEq:
		return ln == rn, nil
	case tpm.CmpLt:
		return ln < rn, nil
	case tpm.CmpGt:
		return ln > rn, nil
	}
	return false, fmt.Errorf("exec: bad comparison operator in %s", c)
}

// appendRow encodes a row for spooling: per slot in, out, parent_in, type,
// value-length, value.
func appendRow(dst []byte, row Row) []byte {
	for _, t := range row {
		var b [13]byte
		binary.BigEndian.PutUint32(b[0:], t.In)
		binary.BigEndian.PutUint32(b[4:], t.Out)
		binary.BigEndian.PutUint32(b[8:], t.ParentIn)
		b[12] = byte(t.Type)
		dst = append(dst, b[:]...)
		var lb [binary.MaxVarintLen32]byte
		n := binary.PutUvarint(lb[:], uint64(len(t.Value)))
		dst = append(dst, lb[:n]...)
		dst = append(dst, t.Value...)
	}
	return dst
}

// decodeRowInto decodes a spooled row into row (whose length gives the
// slot count). One string conversion is shared by all slot values, so
// decoding costs a single allocation per row regardless of arity.
func decodeRowInto(row Row, rec []byte) error {
	_, err := decodeRowAt(row, rec, string(rec), 0)
	return err
}

// decodeRowAt decodes one appendRow-encoded row from rec starting at off,
// returning the offset past it. shared must be the string conversion of
// rec: slot values are sliced out of it, so batch-framed records (many
// rows per record) pay a single string allocation for the whole batch.
func decodeRowAt(row Row, rec []byte, shared string, off int) (int, error) {
	for i := range row {
		if len(rec)-off < 13 {
			return 0, fmt.Errorf("exec: corrupt spooled row")
		}
		t := xasr.Tuple{
			In:       binary.BigEndian.Uint32(rec[off:]),
			Out:      binary.BigEndian.Uint32(rec[off+4:]),
			ParentIn: binary.BigEndian.Uint32(rec[off+8:]),
			Type:     xasr.NodeType(rec[off+12]),
		}
		off += 13
		vlen, n := binary.Uvarint(rec[off:])
		if n <= 0 || uint64(len(rec)-off-n) < vlen {
			return 0, fmt.Errorf("exec: corrupt spooled row value")
		}
		t.Value = shared[off+n : off+n+int(vlen)]
		off += n + int(vlen)
		row[i] = t
	}
	return off, nil
}
