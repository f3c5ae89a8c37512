package exec

import (
	"fmt"

	"xqdb/internal/recfile"
	"xqdb/internal/tpm"
)

// StructuralJoin is the stack-based structural merge join: both inputs
// arrive in document (in) order, and one merge pass pairs ancestors with
// their descendants (or parents with their children) by maintaining a
// stack of the ancestors whose intervals enclose the current merge
// position. Every input tuple is read exactly once, so the join costs
// O(left + right + output) with no index probes and no inner rescans —
// the interval containment that nested-loops operators re-check per pair
// is answered by the stack invariant.
//
// The operator implements both emission orders of the structural-join
// family. With AncOrder false (Stack-Tree-Desc, the default) output
// follows the descendant side's document order: per descendant row,
// matching ancestors emit bottom-up (outermost first), which is their
// arrival order. Hence
//
//	right side = descendant: output sorted by (right, left-order...)
//	right side = ancestor:   output sorted by (left-order..., right) —
//	                         order-preserving in the planner's sense.
//
// With AncOrder true (Stack-Tree-Anc) output follows the ancestor side's
// arrival order instead: every stack entry buffers its pairs in a self
// output list, adopts the lists of entries popped above it into an
// inherit list, and flushes self-then-inherit when it pops — pairs whose
// ancestor is the stack bottom stream through immediately. That makes
// the operator order-preserving for ancestor-first vartuples
// (the `for $a in //X for $d in $a//Y` shape) at the price of buffering
// up to the non-bottom share of the output; the planner prices that via
// the peak-list term and tracks both orders through built.orderSeq.
type StructuralJoin struct {
	Left, Right PlanNode
	// Pred is the structural predicate joining one Left alias with one
	// Right alias.
	Pred tpm.StructuralPred
	// Conds are residual cross conditions evaluated per emitted row.
	Conds []tpm.Cmp
	// AncOrder selects the Stack-Tree-Anc emission order (see above).
	AncOrder bool
	Est_     Est

	schema   *Schema
	compiled compiledConds
	ancLeft  bool // the ancestor side is Left
	ancSlot  int  // slot of Pred.Anc within its side's schema
	descSlot int  // slot of Pred.Desc within its side's schema
}

// NewStructuralJoin builds a structural merge join of left and right. The
// predicate must relate one alias of each side; which side is the
// ancestor is derived from the schemas.
func NewStructuralJoin(left, right PlanNode, pred tpm.StructuralPred, conds []tpm.Cmp) *StructuralJoin {
	j := &StructuralJoin{Left: left, Right: right, Pred: pred, Conds: conds,
		schema: left.Schema().Concat(right.Schema())}
	j.compiled = compileConds(conds, j.schema)
	j.ancLeft = left.Schema().Slot(pred.Anc) >= 0
	if j.ancLeft {
		j.ancSlot = left.Schema().Slot(pred.Anc)
		j.descSlot = right.Schema().Slot(pred.Desc)
	} else {
		j.ancSlot = right.Schema().Slot(pred.Anc)
		j.descSlot = left.Schema().Slot(pred.Desc)
	}
	return j
}

// Schema implements PlanNode.
func (j *StructuralJoin) Schema() *Schema { return j.schema }

// Children implements PlanNode.
func (j *StructuralJoin) Children() []PlanNode { return []PlanNode{j.Left, j.Right} }

// Estimate implements PlanNode.
func (j *StructuralJoin) Estimate() Est { return j.Est_ }

// Describe implements PlanNode.
func (j *StructuralJoin) Describe() string {
	order := ""
	if j.AncOrder {
		order = ", anc-ordered"
	}
	d := fmt.Sprintf("structural-join %s [stack merge, %s axis%s]", j.Pred, j.Pred.Axis, order)
	if len(j.Conds) > 0 {
		d += fmt.Sprintf(" σ(%s)", condsString(j.Conds))
	}
	return d
}

func (j *StructuralJoin) open(ctx *Ctx, outer Row, outerSchema *Schema) (batchIter, error) {
	if outer != nil {
		return nil, fmt.Errorf("exec: structural join cannot be an INL inner")
	}
	if j.compiled.err != nil {
		return nil, j.compiled.err
	}
	left, err := j.Left.open(ctx, nil, nil)
	if err != nil {
		return nil, err
	}
	right, err := j.Right.open(ctx, nil, nil)
	if err != nil {
		left.Close()
		return nil, err
	}
	st := &ctx.record(j).OpStats
	st.Opens++
	anc, desc := left, right
	if !j.ancLeft {
		anc, desc = right, left
	}
	ds := newBatchStream(desc, j.descSlot)
	if j.AncOrder {
		return &structAncIter{ctx: ctx, j: j, st: st, left: left, right: right, anc: rowView{src: anc}, ds: ds}, nil
	}
	return &structJoinIter{ctx: ctx, j: j, st: st, left: left, right: right, anc: rowView{src: anc}, ds: ds}, nil
}

// structJoinIter runs the merge batch-at-a-time. Both streams are
// consumed in document order; stack holds copies of ancestor-side rows
// whose intervals enclose the current descendant position, bottom =
// outermost. The descendant side arrives through a batchStream, and the
// merge emits whole runs: every descendant row up to
// min(stack-top out, next ancestor in) sees the identical stack, so the
// per-row stack maintenance — and on the descendant axis the per-pair
// containment check itself — is hoisted out of the emission loop, which
// degenerates to column appends.
type structJoinIter struct {
	ctx         *Ctx
	j           *StructuralJoin
	st          *OpStats
	left, right batchIter
	anc         rowView      // ancestor side, walked row by row
	ds          *batchStream // descendant side, batch-buffered

	ancRow  Row // head of the ancestor stream (valid until anc.next)
	haveAnc bool
	ancEOF  bool
	done    bool

	// stack entries are copies (children reuse their row buffers); popped
	// slots keep their backing arrays for reuse by later pushes.
	stack []Row

	// Run emission state: descendant rows ds.pos..runEnd of the current
	// batch all see the identical stack; emitS is the next stack index for
	// the current descendant. Emission resumes mid-run across NextBatch
	// calls when the output batch fills.
	runEnd   int
	emitS    int
	emitting bool

	joined Row // scratch row for residual-condition evaluation
}

// pairMatches evaluates the structural predicate between an ancestor-side
// row and a descendant-side row. The stack invariant already guarantees
// containment for the descendant axis; the explicit check also rejects
// the self-pair (equal in) and decides the child axis.
func (j *StructuralJoin) pairMatches(anc, desc Row) bool {
	a := anc[j.ancSlot]
	d := desc[j.descSlot]
	if j.Pred.Axis == tpm.AxisChild {
		return d.ParentIn == a.In
	}
	return a.In < d.In && d.Out < a.Out
}

// push copies row onto the stack, reusing the backing array of a
// previously popped slot when possible.
func (it *structJoinIter) push(row Row) {
	it.stack = appendRowCopy(it.stack, row)
	depth := int64(len(it.stack))
	if depth > it.st.StackMax {
		it.st.StackMax = depth
	}
	if depth > it.ctx.Counters.StructStackMax {
		it.ctx.Counters.StructStackMax = depth
	}
}

// popBelow pops stack entries whose intervals end before pos: they can
// contain no tuple at or after the current merge position.
func (it *structJoinIter) popBelow(pos uint32) {
	for n := len(it.stack); n > 0; n-- {
		if it.stack[n-1][it.j.ancSlot].Out >= pos {
			break
		}
		it.stack = it.stack[:n-1]
	}
}

// emitRun appends (descendant, stack entry) pairs of the current run to
// out until the output batch fills or the run is exhausted, clearing
// emitting in the latter case. Pairs emit per descendant, stack
// bottom-up. fast skips the per-pair predicate:
// within a run on the descendant axis every stack entry strictly
// contains every descendant row (labels are drawn from one counter, so
// interval endpoints never collide and self-pairs cannot arise).
func (it *structJoinIter) emitRun(out *Batch, capRows int, fast bool) error {
	stack := it.stack
	dcols := it.ds.b.Cols
	descW := len(dcols)
	ancW := len(stack[0])
	var ancOff, descOff int
	if it.j.ancLeft {
		descOff = ancW
	} else {
		ancOff = descW
	}
	for {
		if out.n >= capRows {
			return nil
		}
		if it.emitS >= len(stack) {
			it.emitS = 0
			it.ds.pos++
			if it.ds.pos >= it.runEnd {
				it.emitting = false
				return nil
			}
		}
		entry := stack[it.emitS]
		it.emitS++
		p := it.ds.b.rowIdx(it.ds.pos)
		if !fast {
			descRow := it.ds.row(it.ds.pos)
			if !it.j.pairMatches(entry, descRow) {
				continue
			}
			if len(it.j.Conds) > 0 {
				if it.j.ancLeft {
					it.joined = append(append(it.joined[:0], entry...), descRow...)
				} else {
					it.joined = append(append(it.joined[:0], descRow...), entry...)
				}
				pass, err := it.j.compiled.eval(it.joined, it.ctx.Env)
				if err != nil {
					return err
				}
				if !pass {
					continue
				}
			}
		}
		for c := 0; c < ancW; c++ {
			out.Cols[ancOff+c] = append(out.Cols[ancOff+c], entry[c])
		}
		for c := 0; c < descW; c++ {
			out.Cols[descOff+c] = append(out.Cols[descOff+c], dcols[c][p])
		}
		out.n++
	}
}

func (it *structJoinIter) NextBatch(out *Batch) (int, error) {
	capRows := out.reset(it.ctx, len(it.j.schema.Aliases))
	if err := it.ctx.check(); err != nil {
		return 0, err
	}
	fast := it.j.Pred.Axis != tpm.AxisChild && len(it.j.Conds) == 0
	for out.n < capRows {
		if it.emitting {
			if err := it.emitRun(out, capRows, fast); err != nil {
				return 0, err
			}
			continue
		}
		if it.done {
			break
		}
		ok, err := it.ds.ensure()
		if err != nil {
			return 0, err
		}
		if !ok {
			// No more descendants: pending ancestors cannot produce
			// output.
			it.done = true
			break
		}
		dIn := it.ds.in(it.ds.pos)

		// Pull and stack every ancestor starting before the current
		// descendant; later ones cannot contain it.
		for !it.ancEOF {
			if !it.haveAnc {
				row, ok, err := it.anc.next()
				if err != nil {
					return 0, err
				}
				if !ok {
					it.ancEOF = true
					break
				}
				it.ancRow = row
				it.haveAnc = true
			}
			aIn := it.ancRow[it.j.ancSlot].In
			if aIn >= dIn {
				break
			}
			it.popBelow(aIn)
			it.push(it.ancRow)
			it.haveAnc = false
		}

		it.popBelow(dIn)
		if len(it.stack) == 0 {
			if it.ancEOF {
				it.done = true
				break
			}
			// No enclosing ancestor: nothing before the next ancestor's
			// subtree can match, so leap the descendant stream forward.
			// The pull loop above only leaves an unconsumed head when
			// aIn >= dIn, so the target always makes forward progress.
			if _, err := it.ds.seekInGE(it.ancRow[it.j.ancSlot].In + 1); err != nil {
				return 0, err
			}
			continue
		}

		// Run detection: every buffered descendant whose in label is at
		// most min(stack-top out, next ancestor in) sees this exact stack
		// — no pops (the top has the smallest out) and no pushes (the
		// pending ancestor starts after the run) can intervene.
		runMax := it.stack[len(it.stack)-1][it.j.ancSlot].Out
		if !it.ancEOF {
			if aIn := it.ancRow[it.j.ancSlot].In; aIn < runMax {
				runMax = aIn
			}
		}
		end := it.ds.pos + 1
		for n := it.ds.b.Len(); end < n && it.ds.in(end) <= runMax; end++ {
		}
		it.runEnd = end
		it.emitS = 0
		it.emitting = true
	}
	it.ctx.Counters.RowsStructural += int64(out.n)
	if err := it.ctx.checkN(out.n); err != nil {
		return 0, err
	}
	return it.ctx.produced(it.st, out.n), nil
}

func (it *structJoinIter) Close() error {
	err := it.left.Close()
	if rerr := it.right.Close(); err == nil {
		err = rerr
	}
	return err
}

// ancSeg is one segment of a Stack-Tree-Anc output list: either a run of
// in-memory rows (mem non-nil) or a run of n encoded rows starting at byte
// off of the iterator's shared spill file. Lists are chains of segments in
// insertion order; spilling converts mem segments to disk segments in
// place, so order survives arbitrary interleavings of buffering and
// spilling. res tracks the governor bytes the segment still holds (released
// when it spills or drains).
type ancSeg struct {
	mem   []Row
	bytes int   // in-memory size of mem (0 once spilled)
	res   int   // governor bytes reserved for mem
	off   int64 // spill-file offset of the first record (disk segments)
	n     int   // record count (disk segments)
}

// rows returns the number of buffered rows in the segment.
func (s *ancSeg) rows() int {
	if s.mem != nil {
		return len(s.mem)
	}
	return s.n
}

// ancEntry is one stack slot of the Stack-Tree-Anc merge: a copy of the
// ancestor-side input row plus the two output lists of the algorithm.
// self holds the pairs whose ancestor is this entry; inherit holds the
// pairs adopted from entries popped above it. An entry flushes
// self-then-inherit when it pops — to the entry below it, or straight to
// the output queue when it is the stack bottom.
type ancEntry struct {
	row     Row
	self    []ancSeg
	inherit []ancSeg
}

// ancSpillChunk is the minimum buffered-list size worth spilling; below it
// an over-quota list stays in memory rather than paying a write per row.
const ancSpillChunk = 4 << 10

// structAncIter runs the ancestor-ordered merge (Stack-Tree-Anc). The
// stream handling is identical to structJoinIter — both inputs in
// document order, a stack of enclosing ancestor-side rows, descendant
// skip-ahead — but emission differs: pairs whose ancestor is the stack
// bottom are appended to the output queue immediately (nothing earlier in
// ancestor order can still arrive), while pairs with stacked ancestors
// buffer in per-entry output lists that cascade downward on pop. The
// result streams in ancestor order: sorted by the ancestor stream's
// arrival order, descendants in document order within one ancestor row.
//
// Output rows are materialized (the lists outlive the input rows'
// buffers); rows copied into an output batch return to a free pool, and
// the buffered-row
// high-water mark is tracked as the operator's list mark. List memory is
// drawn from the query budget; when a reservation is refused (or the soft
// budget is exceeded) every buffered list spills to one shared temp file
// and the lists continue as disk segments, so the non-bottom share of the
// output degrades to disk instead of growing without bound.
type structAncIter struct {
	ctx         *Ctx
	j           *StructuralJoin
	st          *OpStats
	left, right batchIter
	anc         rowView      // ancestor side, walked row by row
	ds          *batchStream // descendant side, batch-buffered

	ancRow  Row // head of the ancestor stream (valid until anc.next)
	haveAnc bool
	ancEOF  bool

	descRow Row // descendant row being paired (view into ds's batch)
	done    bool

	stack []ancEntry

	// out is the emission queue: immediately-emitted bottom pairs and
	// flushed lists, in ancestor order, as a segment chain. outSeg/outPos
	// walk it; drained queues reset and reuse the backing array.
	out    []ancSeg
	outSeg int
	outPos int

	free     []Row // recycled row buffers
	buffered int64 // rows currently held in self/inherit lists

	// spill machinery: one lazily created run file shared by every spilled
	// segment, a seekable reader for emission, and the accounting the
	// governor and counters need.
	spillW    *recfile.Writer
	spillPath string
	segR      *recfile.SegReader
	scratch   []byte
	decbuf    Row   // reused decode buffer for disk-segment emission
	listMem   int   // bytes currently held by mem segments in stack lists
	reserved  int   // governor bytes held across all live segments
	spilled   int64 // SpilledBytes already folded into counters
}

// newPair materializes the joined row for (anc, current descendant) from
// the free pool and evaluates the residual conditions, returning nil for
// pairs the conditions reject (they are never buffered).
func (it *structAncIter) newPair(anc Row) (Row, error) {
	var buf Row
	if n := len(it.free); n > 0 {
		buf = it.free[n-1][:0]
		it.free = it.free[:n-1]
	}
	if it.j.ancLeft {
		buf = append(append(buf, anc...), it.descRow...)
	} else {
		buf = append(append(buf, it.descRow...), anc...)
	}
	pass, err := it.j.compiled.eval(buf, it.ctx.Env)
	if err != nil {
		return nil, err
	}
	if !pass {
		it.free = append(it.free, buf)
		return nil, nil
	}
	return buf, nil
}

// bufAdd tallies one row entering a self/inherit list, tracking the
// output-list high-water mark on the operator and the query counters.
func (it *structAncIter) bufAdd() {
	it.buffered++
	if it.buffered > it.st.ListMax {
		it.st.ListMax = it.buffered
	}
	if it.buffered > it.ctx.Counters.StructListMax {
		it.ctx.Counters.StructListMax = it.buffered
	}
}

// rowMem is the in-memory cost charged to the budget for one buffered row.
func rowMem(row Row) int {
	n := 24
	for _, t := range row {
		n += 16 + len(t.Value)
	}
	return n
}

// listAppend adds a materialized pair to a segment chain, charging the
// budget, and reports whether the lists should spill: the governor refused
// the reservation or the lists outgrew the soft budget, and there is
// enough buffered to be worth writing.
func (it *structAncIter) listAppend(list *[]ancSeg, row Row) (spill bool) {
	need := rowMem(row)
	granted := it.ctx.Budget.Reserve(need)
	segs := *list
	if n := len(segs); n > 0 && segs[n-1].mem != nil {
		seg := &segs[n-1]
		seg.mem = append(seg.mem, row)
		seg.bytes += need
		if granted {
			seg.res += need
		}
	} else {
		seg := ancSeg{mem: []Row{row}, bytes: need}
		if granted {
			seg.res = need
		}
		*list = append(segs, seg)
	}
	if granted {
		it.reserved += need
	}
	it.listMem += need
	it.bufAdd()
	return (!granted || it.listMem > it.ctx.softBudget()) && it.listMem >= ancSpillChunk
}

// spillLists converts every in-memory list segment of every stack entry to
// a disk segment of the shared spill file, recycling the spilled rows and
// releasing their reservations. Segments convert in place, so each list
// stays a correctly ordered chain.
func (it *structAncIter) spillLists() error {
	if it.spillW == nil {
		it.spillPath = recfile.TempPath(it.ctx.TempDir, "anclist")
		w, err := recfile.CreateWriter(it.spillPath)
		if err != nil {
			return err
		}
		w.Hook = it.ctx.FaultHook
		it.spillW = w
		it.ctx.Counters.SpillRuns++
		it.st.SpillRuns++
	}
	for i := range it.stack {
		e := &it.stack[i]
		for _, list := range [][]ancSeg{e.self, e.inherit} {
			for si := range list {
				if err := it.spillSeg(&list[si]); err != nil {
					return err
				}
			}
		}
	}
	if err := it.spillW.Flush(); err != nil {
		return err
	}
	delta := it.spillW.Bytes() - it.spilled
	it.spilled = it.spillW.Bytes()
	it.ctx.Counters.SpilledBytes += delta
	it.st.SpilledBytes += delta
	return nil
}

// spillSeg writes one in-memory segment to the spill file and converts it
// to a disk segment, returning its rows to the free pool.
func (it *structAncIter) spillSeg(seg *ancSeg) error {
	if seg.mem == nil {
		return nil
	}
	off := it.spillW.Offset()
	for _, row := range seg.mem {
		it.scratch = appendRow(it.scratch[:0], row)
		if err := it.spillW.Append(it.scratch); err != nil {
			return err
		}
	}
	it.ctx.Counters.SpilledTuples += int64(len(seg.mem))
	for _, row := range seg.mem {
		it.free = append(it.free, row)
	}
	it.ctx.Budget.Release(seg.res)
	it.reserved -= seg.res
	it.listMem -= seg.bytes
	*seg = ancSeg{off: off, n: len(seg.mem)}
	return nil
}

// push copies row onto the stack with fresh (capacity-reusing) lists.
func (it *structAncIter) push(row Row) {
	n := len(it.stack)
	if n < cap(it.stack) {
		it.stack = it.stack[:n+1]
	} else {
		it.stack = append(it.stack, ancEntry{})
	}
	e := &it.stack[n]
	e.row = append(e.row[:0], row...)
	e.self = e.self[:0]
	e.inherit = e.inherit[:0]
	depth := int64(len(it.stack))
	if depth > it.st.StackMax {
		it.st.StackMax = depth
	}
	if depth > it.ctx.Counters.StructStackMax {
		it.ctx.Counters.StructStackMax = depth
	}
}

// popOne pops the top entry and routes its output lists: self before
// inherit, onto the entry below — or onto the output queue when the
// popped entry was the stack bottom (its immediate pairs are already out;
// only adopted lists remain). Moving segments to the output queue leaves
// the buffered-list accounting: the rows are now queued for emission, not
// buffered against future pops.
func (it *structAncIter) popOne() {
	n := len(it.stack)
	top := &it.stack[n-1]
	it.stack = it.stack[:n-1]
	if n-1 == 0 {
		for _, list := range [][]ancSeg{top.self, top.inherit} {
			for si := range list {
				seg := list[si]
				it.buffered -= int64(seg.rows())
				it.listMem -= seg.bytes
				it.out = append(it.out, seg)
			}
		}
	} else {
		below := &it.stack[n-2]
		below.inherit = append(below.inherit, top.self...)
		below.inherit = append(below.inherit, top.inherit...)
	}
	top.self = top.self[:0]
	top.inherit = top.inherit[:0]
}

// popBelow pops stack entries whose intervals end before pos.
func (it *structAncIter) popBelow(pos uint32) {
	for len(it.stack) > 0 && it.stack[len(it.stack)-1].row[it.j.ancSlot].Out < pos {
		it.popOne()
	}
}

// pairDesc pairs the current descendant row with every matching stack
// entry: the bottom's pair goes straight to the output queue, the rest
// buffer in their entry's self list (spilling the lists past the budget).
// matchAll skips the per-pair predicate; the caller asserts every stack
// entry matches (descendant-axis runs, see structJoinIter.emitRun).
func (it *structAncIter) pairDesc(matchAll bool) error {
	spill := false
	for i := range it.stack {
		e := &it.stack[i]
		if !matchAll && !it.j.pairMatches(e.row, it.descRow) {
			continue
		}
		pr, err := it.newPair(e.row)
		if err != nil {
			return err
		}
		if pr == nil {
			continue
		}
		if i == 0 {
			// Bottom pairs drain promptly through NextBatch; queue them as
			// unaccounted mem segments (coalescing with a mem tail).
			if n := len(it.out); n > 0 && it.out[n-1].mem != nil && n-1 >= it.outSeg {
				it.out[n-1].mem = append(it.out[n-1].mem, pr)
			} else {
				it.out = append(it.out, ancSeg{mem: []Row{pr}})
			}
		} else if it.listAppend(&e.self, pr) {
			spill = true
		}
	}
	if spill {
		return it.spillLists()
	}
	return nil
}

// advance runs merge steps until the output queue is non-empty or the
// join is done, consuming the descendant side a run at a time.
func (it *structAncIter) advance() error {
	for {
		if err := it.ctx.check(); err != nil {
			return err
		}
		ok, err := it.ds.ensure()
		if err != nil {
			return err
		}
		if !ok {
			// No more descendants: no further pairs, flush every
			// buffered list in pop order.
			for len(it.stack) > 0 {
				it.popOne()
			}
			it.done = true
			return nil
		}
		dIn := it.ds.in(it.ds.pos)

		// Pull and stack every ancestor starting before the current
		// descendant; later ones cannot contain it.
		for !it.ancEOF {
			if !it.haveAnc {
				row, ok, err := it.anc.next()
				if err != nil {
					return err
				}
				if !ok {
					it.ancEOF = true
					break
				}
				it.ancRow = row
				it.haveAnc = true
			}
			aIn := it.ancRow[it.j.ancSlot].In
			if aIn >= dIn {
				break
			}
			it.popBelow(aIn)
			it.push(it.ancRow)
			it.haveAnc = false
		}

		it.popBelow(dIn)
		if len(it.stack) == 0 {
			if it.ancEOF {
				it.done = true
				return nil
			}
			// No enclosing ancestor: leap the descendant stream to the
			// next ancestor's subtree (see structJoinIter).
			if _, err := it.ds.seekInGE(it.ancRow[it.j.ancSlot].In + 1); err != nil {
				return err
			}
			if len(it.out) > 0 {
				return nil // the pops above flushed a finished epoch
			}
			continue
		}

		// Pair the whole run of buffered descendants that see this exact
		// stack (see structJoinIter.NextBatch for the run bound); on the
		// descendant axis the per-pair predicate is skipped wholesale.
		runMax := it.stack[len(it.stack)-1].row[it.j.ancSlot].Out
		if !it.ancEOF {
			if aIn := it.ancRow[it.j.ancSlot].In; aIn < runMax {
				runMax = aIn
			}
		}
		end := it.ds.pos + 1
		for n := it.ds.b.Len(); end < n && it.ds.in(end) <= runMax; end++ {
		}
		matchAll := it.j.Pred.Axis != tpm.AxisChild
		run := end - it.ds.pos
		for it.ds.pos < end {
			it.descRow = it.ds.row(it.ds.pos)
			if err := it.pairDesc(matchAll); err != nil {
				return err
			}
			it.ds.pos++
		}
		if err := it.ctx.checkN(run); err != nil {
			return err
		}
		if len(it.out) > 0 {
			return nil
		}
	}
}

// drain moves queued rows into b until it holds capRows rows or the queue
// is empty: in-memory rows are copied and their buffers recycled, disk rows
// decode through a reused buffer via the seekable segment reader.
func (it *structAncIter) drain(b *Batch, capRows int) error {
	for ; it.outSeg < len(it.out); it.outSeg, it.outPos = it.outSeg+1, 0 {
		seg := &it.out[it.outSeg]
		for it.outPos < seg.rows() {
			if b.n >= capRows {
				return nil
			}
			if seg.mem != nil {
				r := seg.mem[it.outPos]
				seg.mem[it.outPos] = nil
				b.appendRow(r)
				it.free = append(it.free, r)
				it.outPos++
				continue
			}
			if it.outPos == 0 {
				if it.segR == nil {
					r, err := recfile.OpenSegReader(it.spillPath)
					if err != nil {
						return err
					}
					it.segR = r
				}
				if err := it.segR.SeekTo(seg.off); err != nil {
					return err
				}
			}
			rec, err := it.segR.Next()
			if err != nil {
				return err
			}
			if it.decbuf == nil {
				it.decbuf = make(Row, len(it.j.schema.Aliases))
			}
			if err := decodeRowInto(it.decbuf, rec); err != nil {
				return err
			}
			b.appendRow(it.decbuf)
			it.outPos++
		}
		// Segment drained: return its budget reservation.
		it.ctx.Budget.Release(seg.res)
		it.reserved -= seg.res
		seg.res = 0
	}
	it.out = it.out[:0]
	it.outSeg = 0
	return nil
}

func (it *structAncIter) NextBatch(b *Batch) (int, error) {
	capRows := b.reset(it.ctx, len(it.j.schema.Aliases))
	for {
		if err := it.ctx.check(); err != nil {
			return 0, err
		}
		if err := it.drain(b, capRows); err != nil {
			return 0, err
		}
		if b.n >= capRows || it.done {
			break
		}
		if err := it.advance(); err != nil {
			return 0, err
		}
	}
	it.ctx.Counters.RowsStructural += int64(b.n)
	return it.ctx.produced(it.st, b.n), nil
}

// Close releases the iterator's resources at any point mid-stream: the
// input iterators, every outstanding budget reservation, and the spill
// file (removed).
func (it *structAncIter) Close() error {
	err := it.left.Close()
	if rerr := it.right.Close(); err == nil {
		err = rerr
	}
	it.ctx.Budget.Release(it.reserved)
	it.reserved = 0
	if it.segR != nil {
		it.segR.Close()
		it.segR = nil
	}
	if it.spillW != nil {
		it.spillW.Abort()
		it.spillW = nil
	}
	return err
}
