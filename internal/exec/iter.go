package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"xqdb/internal/recfile"
	"xqdb/internal/store"
	"xqdb/internal/tpm"
	"xqdb/internal/xasr"
)

// PlanNode is a physical operator in the plan tree.
type PlanNode interface {
	// Schema lists the relation aliases present in output rows.
	Schema() *Schema
	// Children returns the child operators (for EXPLAIN).
	Children() []PlanNode
	// Describe returns a one-line operator description (for EXPLAIN).
	Describe() string
	// Estimate returns the optimizer's row/cost estimates (may be zero).
	Estimate() Est
	// Stats returns the operator's runtime tallies (EXPLAIN ANALYZE).
	Stats() *OpStats
	// open returns the operator's batch iterator; outer/outerSchema are
	// non-nil only for the parameterized inner side of an index
	// nested-loops join.
	open(ctx *Ctx, outer Row, outerSchema *Schema) (batchIter, error)
}

// Est holds optimizer estimates, attached to nodes for EXPLAIN output.
type Est struct {
	Rows float64
	Cost float64
}

// ---------------------------------------------------------------- access

// AccessKind selects the access path of a Scan.
type AccessKind uint8

// Access paths of milestone 4: the full scan and primary range scan use
// the clustered tree from milestone 2; the label- and parent-index paths
// are the "index-based selection" students added in milestone 4.
const (
	AccessFull AccessKind = iota
	AccessRange
	AccessLabel
	AccessParent
)

// Access describes how a Scan fetches tuples.
type Access struct {
	Kind AccessKind
	// Type/Value select the label-index prefix (AccessLabel).
	Type  xasr.NodeType
	Value string
	// Bounded restricts AccessRange and AccessLabel to an in-interval:
	// resolve(Lo)+LoAdd <= in < resolve(Hi)+HiAdd. Hi of kind OpConstIn
	// with In=0 and HiAdd=0 means unbounded above.
	Bounded      bool
	Lo, Hi       tpm.Operand
	LoAdd, HiAdd uint32
	// Parent is the parent_in source for AccessParent.
	Parent tpm.Operand
}

// String renders the access path for EXPLAIN.
func (a Access) String() string {
	switch a.Kind {
	case AccessFull:
		return "full scan"
	case AccessRange:
		if a.Bounded {
			return fmt.Sprintf("range scan in ∈ [%s, %s)", boundStr(a.Lo, a.LoAdd), boundStr(a.Hi, a.HiAdd))
		}
		return "range scan"
	case AccessLabel:
		if a.Bounded {
			return fmt.Sprintf("label index (%s, %q) in ∈ [%s, %s)", a.Type, a.Value, boundStr(a.Lo, a.LoAdd), boundStr(a.Hi, a.HiAdd))
		}
		return fmt.Sprintf("label index (%s, %q)", a.Type, a.Value)
	case AccessParent:
		return fmt.Sprintf("parent index (parent_in = %s)", a.Parent)
	}
	return "?"
}

// boundStr renders an access bound operand with its additive offset.
func boundStr(op tpm.Operand, add uint32) string {
	if add == 0 {
		return op.String()
	}
	return fmt.Sprintf("%s+%d", op, add)
}

// Scan is the leaf operator: one XASR relation instance with pushed-down
// selections. As the inner of an index nested-loops join its bounds may
// reference attributes of the outer row.
type Scan struct {
	Alias  string
	Access Access
	// Conds are residual single-relation selections evaluated per tuple
	// (conditions subsumed by the access path are omitted by the planner).
	Conds []tpm.Cmp
	Est_  Est

	schema *Schema
	stats  OpStats
	cc     compiledConds
	// lbuf is the label-entry scratch a label scan expands into tuples;
	// like cc it lives on the node so an INL inner, reopened per outer row,
	// allocates it once.
	lbuf []store.LabelEntry
}

// NewScan builds a scan node.
func NewScan(alias string, access Access, conds []tpm.Cmp) *Scan {
	return &Scan{Alias: alias, Access: access, Conds: conds, schema: NewSchema(alias)}
}

// Schema implements PlanNode.
func (s *Scan) Schema() *Schema { return s.schema }

// Children implements PlanNode.
func (s *Scan) Children() []PlanNode { return nil }

// Estimate implements PlanNode.
func (s *Scan) Estimate() Est { return s.Est_ }

// Stats implements PlanNode.
func (s *Scan) Stats() *OpStats { return &s.stats }

// Describe implements PlanNode.
func (s *Scan) Describe() string {
	d := fmt.Sprintf("scan %s: %s", s.Alias, s.Access)
	if len(s.Conds) > 0 {
		d += fmt.Sprintf(" σ(%s)", condsString(s.Conds))
	}
	return d
}

func condsString(conds []tpm.Cmp) string {
	var b bytes.Buffer
	for i, c := range conds {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(c.String())
	}
	return b.String()
}

func (s *Scan) open(ctx *Ctx, outer Row, outerSchema *Schema) (batchIter, error) {
	var lo, hi uint32
	if s.Access.Bounded {
		v, err := resolveIn(s.Access.Lo, outer, outerSchema, ctx.Env)
		if err != nil {
			return nil, err
		}
		lo = v + s.Access.LoAdd
		hv, err := resolveIn(s.Access.Hi, outer, outerSchema, ctx.Env)
		if err != nil {
			return nil, err
		}
		if hv != 0 || s.Access.HiAdd != 0 {
			hi = hv + s.Access.HiAdd
		}
	}
	s.stats.Opens++
	if err := s.cc.compile(s.Conds, s.schema); err != nil {
		return nil, err
	}
	it := &scanIter{ctx: ctx, scan: s}
	switch s.Access.Kind {
	case AccessFull:
		c, err := ctx.Store.OpenRange(0, 0)
		if err != nil {
			return nil, err
		}
		it.prim = c
	case AccessRange:
		if s.Access.Bounded && hi != 0 && lo >= hi {
			return emptyIter{}, nil
		}
		c, err := ctx.Store.OpenRange(lo, hi)
		if err != nil {
			return nil, err
		}
		it.prim = c
	case AccessLabel:
		if s.Access.Bounded && hi != 0 && lo >= hi {
			return emptyIter{}, nil
		}
		c, err := ctx.Store.OpenLabelRange(s.Access.Type, s.Access.Value, lo, hi)
		if err != nil {
			return nil, err
		}
		it.label = c
	case AccessParent:
		p, err := resolveIn(s.Access.Parent, outer, outerSchema, ctx.Env)
		if err != nil {
			return nil, err
		}
		c, err := ctx.Store.OpenChildren(p)
		if err != nil {
			return nil, err
		}
		it.child = c
	default:
		return nil, fmt.Errorf("exec: unknown access kind %d", s.Access.Kind)
	}
	return it, nil
}

type emptyIter struct{}

func (emptyIter) NextBatch(*Batch) (int, error) { return 0, nil }
func (emptyIter) Close() error                  { return nil }

type scanIter struct {
	ctx   *Ctx
	scan  *Scan
	prim  *store.TupleCursor
	label *store.LabelRangeCursor
	child *store.ChildCursor
	// fill is the row count the last NextBatch asked the cursor for.
	fill int
}

// scanFirstFill is the size of a scan's first batch. Fills double from
// there up to the batch capacity: most scans under an index probe or a
// selective label return a handful of rows and should not pay for
// full-capacity columns, while a long scan reaches capacity within a few
// calls.
const scanFirstFill = 64

// NextBatch fills b straight from the store's leaf-at-a-time cursors: one
// bulk copy per leaf, no per-row materialization, and one budget poll per
// batch. Residual conditions compact the column in place, and the loop
// keeps pulling until at least one row qualifies, so a zero return always
// means the range is exhausted.
func (it *scanIter) NextBatch(b *Batch) (int, error) {
	capRows := b.reset(it.ctx, 1)
	it.fill = min(max(2*it.fill, scanFirstFill), capRows)
	capRows = it.fill
	if cap(b.Cols[0]) < capRows {
		b.Cols[0] = make([]xasr.Tuple, capRows)
	}
	conds := it.scan.Conds
	for {
		col := b.Cols[0][:capRows]
		var n int
		var err error
		switch {
		case it.prim != nil:
			n, err = it.prim.NextBatch(col)
		case it.label != nil:
			if cap(it.scan.lbuf) < capRows {
				it.scan.lbuf = make([]store.LabelEntry, capRows)
			}
			lb := it.scan.lbuf[:capRows]
			n, err = it.label.NextBatch(lb)
			for i := 0; i < n; i++ {
				e := lb[i]
				col[i] = xasr.Tuple{In: e.In, Out: e.Out, ParentIn: e.ParentIn,
					Type: it.scan.Access.Type, Value: it.scan.Access.Value}
			}
		case it.child != nil:
			n, err = it.child.NextBatch(col)
		}
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, nil
		}
		if err := it.ctx.checkN(n); err != nil {
			return 0, err
		}
		it.ctx.Counters.RowsScanned += int64(n)
		kept := n
		if len(conds) > 0 {
			it.scan.stats.SelRows += int64(n)
			kept = 0
			for i := 0; i < n; i++ {
				pass, err := it.scan.cc.eval(col[i:i+1], it.ctx.Env)
				if err != nil {
					return 0, err
				}
				if pass {
					col[kept] = col[i]
					kept++
				}
			}
			if kept == 0 {
				continue
			}
		}
		b.Cols[0] = col[:kept]
		b.n = kept
		return it.ctx.produced(&it.scan.stats, kept), nil
	}
}

func (it *scanIter) Close() error {
	switch {
	case it.prim != nil:
		it.prim.Close()
	case it.label != nil:
		it.label.Close()
	case it.child != nil:
		it.child.Close()
	}
	return nil
}

// inSeeker is implemented by iterators that can skip forward to the first
// row whose tuple has in >= target (document order). The structural merge
// join uses it to leap over descendant runs that cannot match any pending
// ancestor. Returning ok=false means the iterator cannot seek and the
// caller must advance row by row.
type inSeeker interface {
	seekInGE(target uint32) (ok bool, err error)
}

func (it *scanIter) seekInGE(target uint32) (bool, error) {
	switch {
	case it.prim != nil:
		return true, it.prim.SeekGE(target)
	case it.label != nil:
		return true, it.label.SeekGE(target)
	}
	// Child cursors cover one parent's few children; skipping buys nothing.
	return false, nil
}

// ---------------------------------------------------------------- filter

// Filter applies residual conditions.
type Filter struct {
	Child PlanNode
	Conds []tpm.Cmp
	Est_  Est

	stats OpStats
	cc    compiledConds
}

// Schema implements PlanNode.
func (f *Filter) Schema() *Schema { return f.Child.Schema() }

// Children implements PlanNode.
func (f *Filter) Children() []PlanNode { return []PlanNode{f.Child} }

// Estimate implements PlanNode.
func (f *Filter) Estimate() Est { return f.Est_ }

// Stats implements PlanNode.
func (f *Filter) Stats() *OpStats { return &f.stats }

// Describe implements PlanNode.
func (f *Filter) Describe() string { return fmt.Sprintf("filter σ(%s)", condsString(f.Conds)) }

func (f *Filter) open(ctx *Ctx, outer Row, outerSchema *Schema) (batchIter, error) {
	child, err := f.Child.open(ctx, outer, outerSchema)
	if err != nil {
		return nil, err
	}
	f.stats.Opens++
	if err := f.cc.compile(f.Conds, f.Schema()); err != nil {
		child.Close()
		return nil, err
	}
	return &filterIter{ctx: ctx, f: f, child: child}, nil
}

type filterIter struct {
	ctx    *Ctx
	f      *Filter
	child  batchIter
	selbuf []int32
	rbuf   Row
}

// NextBatch evaluates the residual conjunction over a whole child batch
// and publishes the qualifying rows as a selection vector — no row is
// copied or moved. It keeps pulling until a batch with at least one
// qualifying row arrives or the child ends.
func (it *filterIter) NextBatch(b *Batch) (int, error) {
	for {
		n, err := it.child.NextBatch(b)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, nil
		}
		it.f.stats.SelRows += int64(n)
		sel := it.selbuf[:0]
		for i := 0; i < n; i++ {
			row := b.row(i, it.rbuf)
			if len(b.Cols) > 1 {
				it.rbuf = row
			}
			pass, err := it.f.cc.eval(row, it.ctx.Env)
			if err != nil {
				return 0, err
			}
			if pass {
				sel = append(sel, int32(b.rowIdx(i)))
			}
		}
		it.selbuf = sel
		if len(sel) == 0 {
			continue
		}
		b.Sel = sel
		return it.ctx.produced(&it.f.stats, len(sel)), nil
	}
}

func (it *filterIter) Close() error { return it.child.Close() }

// ---------------------------------------------------------------- spool

// spool materializes rows behind a recfile.BoundedBuf: in memory up to the
// budget (drawing on the query's limit.Budget), spilling to a temp record
// file beyond it. It supports repeated sequential replay — milestone 3's
// "write each intermediate result to disk, re-read it whenever necessary".
//
// Records are batch-framed: uvarint row count, then that many appendRow
// encodings. Spill granularity is therefore batch-sized, and replay
// decodes a whole frame against one shared string instead of allocating
// per row.
type spool struct {
	slots   int
	rows    int64
	buf     *recfile.BoundedBuf
	scratch []byte
}

func newSpool(ctx *Ctx, slots int) *spool {
	buf := recfile.NewBoundedBuf(ctx.TempDir, "spool", ctx.softBudget(), ctx.Budget)
	buf.SetHook(ctx.FaultHook)
	return &spool{slots: slots, buf: buf}
}

// addBatch appends a whole batch as one frame. rbuf is the caller-owned
// row-gather scratch.
func (sp *spool) addBatch(b *Batch, rbuf *Row) error {
	n := b.Len()
	if n == 0 {
		return nil
	}
	sp.scratch = binary.AppendUvarint(sp.scratch[:0], uint64(n))
	for i := 0; i < n; i++ {
		row := b.row(i, *rbuf)
		if len(b.Cols) > 1 {
			*rbuf = row
		}
		sp.scratch = appendRow(sp.scratch, row)
	}
	sp.rows += int64(n)
	return sp.buf.Append(sp.scratch)
}

// finish freezes the spool and folds its spill activity into the query
// counters and the owning operator's stats. Once a BoundedBuf spills it
// moves its entire contents to the run file, so the spilled-tuple count is
// all rows or none.
func (sp *spool) finish(ctx *Ctx, stats *OpStats) error {
	if sp.buf.Spilled() {
		ctx.Counters.SpilledTuples += sp.rows
	}
	ctx.Counters.SpilledBytes += sp.buf.SpilledBytes()
	ctx.Counters.SpillRuns += int64(sp.buf.SpillRuns())
	if stats != nil {
		stats.SpilledBytes += sp.buf.SpilledBytes()
		stats.SpillRuns += int64(sp.buf.SpillRuns())
	}
	return nil
}

// replay returns an iterator over the spooled rows.
func (sp *spool) replay(ctx *Ctx) (*spoolIter, error) {
	it, err := sp.buf.Iter()
	if err != nil {
		return nil, err
	}
	return &spoolIter{ctx: ctx, it: it, rowbuf: make(Row, sp.slots)}, nil
}

// remove discards the spool's temp file (if any) and releases its memory
// reservations. Safe at any point, including after a failed materialize.
func (sp *spool) remove() {
	sp.buf.Close()
}

type spoolIter struct {
	ctx    *Ctx
	it     *recfile.BoundedIter
	rowbuf Row // decode scratch, one slot per spooled column
	// Current frame: raw record, its shared string conversion, decode
	// offset, and rows left. One string allocation covers every row of
	// the frame — the NL-join replay path decodes each inner row once
	// per outer block, so this is the difference between one allocation
	// per batch and one per joined pair.
	rec       []byte
	shared    string
	off       int
	remaining int
}

func (it *spoolIter) NextBatch(b *Batch) (int, error) {
	capRows := b.reset(it.ctx, len(it.rowbuf))
	for b.n < capRows {
		if it.remaining == 0 {
			rec, err := it.it.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, err
			}
			cnt, n := binary.Uvarint(rec)
			if n <= 0 {
				return 0, fmt.Errorf("exec: corrupt spool frame")
			}
			it.rec = rec
			it.shared = string(rec)
			it.off = n
			it.remaining = int(cnt)
			continue
		}
		off, err := decodeRowAt(it.rowbuf, it.rec, it.shared, it.off)
		if err != nil {
			return 0, err
		}
		it.off = off
		it.remaining--
		b.appendRow(it.rowbuf)
	}
	return b.n, nil
}

func (it *spoolIter) Close() error { return it.it.Close() }

// ---------------------------------------------------------------- NL join

// NLJoin is the nested-loops join over a materialized inner: outer rows
// are read in blocks and the spooled inner is replayed once per block.
//
// With BlockRows 0 it is the order-preserving tuple nested-loops join — a
// block of one, so output order is the lexicographic (outer, inner) order
// the relfor semantics requires. With BlockRows > 0 it is the block
// nested-loops join, which is NOT order-preserving (within a block, output
// order follows the inner) — exactly why the paper's order-conscious plans
// avoid it; it exists for order strategy (a), where a final sort restores
// order.
type NLJoin struct {
	Left, Right PlanNode
	Conds       []tpm.Cmp
	BlockRows   int
	Est_        Est

	schema *Schema
	stats  OpStats
	cc     compiledConds
}

// NewNLJoin builds a tuple nested-loops join node.
func NewNLJoin(left, right PlanNode, conds []tpm.Cmp) *NLJoin {
	return &NLJoin{Left: left, Right: right, Conds: conds,
		schema: left.Schema().Concat(right.Schema())}
}

// NewBNLJoin builds a block nested-loops join node.
func NewBNLJoin(left, right PlanNode, conds []tpm.Cmp, blockRows int) *NLJoin {
	if blockRows <= 0 {
		blockRows = 1024
	}
	j := NewNLJoin(left, right, conds)
	j.BlockRows = blockRows
	return j
}

// Schema implements PlanNode.
func (j *NLJoin) Schema() *Schema { return j.schema }

// Children implements PlanNode.
func (j *NLJoin) Children() []PlanNode { return []PlanNode{j.Left, j.Right} }

// Estimate implements PlanNode.
func (j *NLJoin) Estimate() Est { return j.Est_ }

// Stats implements PlanNode.
func (j *NLJoin) Stats() *OpStats { return &j.stats }

// Describe implements PlanNode.
func (j *NLJoin) Describe() string {
	if j.BlockRows == 0 {
		return fmt.Sprintf("nl-join(%s) [materialized inner]", condsString(j.Conds))
	}
	return fmt.Sprintf("bnl-join(%s) [block %d, not order-preserving]", condsString(j.Conds), j.BlockRows)
}

func (j *NLJoin) open(ctx *Ctx, outer Row, outerSchema *Schema) (batchIter, error) {
	left, err := j.Left.open(ctx, outer, outerSchema)
	if err != nil {
		return nil, err
	}
	// The inner is materialized lazily, on the first outer row: an empty
	// outer (e.g. a scan for a non-existent label) must cost nothing.
	j.stats.Opens++
	if err := j.cc.compile(j.Conds, j.schema); err != nil {
		left.Close()
		return nil, err
	}
	return &nlJoinIter{ctx: ctx, j: j, left: rowView{src: left}, outer: outer, outerSchema: outerSchema}, nil
}

// materializeInner spools the full inner input once. On error the spool's
// temp file is removed and its reservations released before returning.
func materializeInner(ctx *Ctx, inner PlanNode, outer Row, outerSchema *Schema, stats *OpStats) (*spool, error) {
	src, err := inner.open(ctx, outer, outerSchema)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	sp := newSpool(ctx, len(inner.Schema().Aliases))
	var in Batch
	var rbuf Row
	for {
		n, err := src.NextBatch(&in)
		if err != nil {
			sp.remove()
			return nil, err
		}
		if n == 0 {
			break
		}
		if err := ctx.checkN(n); err != nil {
			sp.remove()
			return nil, err
		}
		if err := sp.addBatch(&in, &rbuf); err != nil {
			sp.remove()
			return nil, err
		}
	}
	if err := sp.finish(ctx, stats); err != nil {
		sp.remove()
		return nil, err
	}
	return sp, nil
}

// nlJoinIter pairs one block of outer rows with every row of the spooled
// inner: inner rows drive the outer loop, block rows the inner one, and
// emission resumes mid-block when the output batch fills.
type nlJoinIter struct {
	ctx         *Ctx
	j           *NLJoin
	left        rowView
	outer       Row
	outerSchema *Schema
	sp          *spool
	// block holds copies of the current outer rows (the view reuses its
	// buffers); the slots keep their backing arrays across blocks.
	block []Row
	// inner replays the spool for the current block (nil between blocks);
	// in is its current batch of nIn rows, rPos the inner row being paired
	// and bIdx the next block row to pair it with.
	inner  *spoolIter
	in     Batch
	nIn    int
	rPos   int
	bIdx   int
	rbuf   Row
	joined Row
}

func (it *nlJoinIter) fillBlock() error {
	want := max(it.j.BlockRows, 1)
	it.block = it.block[:0]
	for len(it.block) < want {
		row, ok, err := it.left.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		it.block = appendRowCopy(it.block, row)
	}
	return nil
}

func (it *nlJoinIter) NextBatch(out *Batch) (int, error) {
	capRows := out.reset(it.ctx, len(it.j.schema.Aliases))
	if err := it.ctx.check(); err != nil {
		return 0, err
	}
	for out.n < capRows {
		if it.inner == nil {
			if err := it.fillBlock(); err != nil {
				return 0, err
			}
			if len(it.block) == 0 {
				break
			}
			if it.sp == nil {
				sp, err := materializeInner(it.ctx, it.j.Right, it.outer, it.outerSchema, &it.j.stats)
				if err != nil {
					return 0, err
				}
				it.sp = sp
			}
			inner, err := it.sp.replay(it.ctx)
			if err != nil {
				return 0, err
			}
			it.inner = inner
			it.ctx.Counters.InnerRescans++
		}
		if it.rPos >= it.nIn {
			n, err := it.inner.NextBatch(&it.in)
			if err != nil {
				return 0, err
			}
			it.nIn, it.rPos, it.bIdx = n, 0, 0
			if n == 0 {
				it.inner.Close()
				it.inner = nil
				continue
			}
			if err := it.ctx.checkN(n * len(it.block)); err != nil {
				return 0, err
			}
		}
		rRow := it.in.row(it.rPos, it.rbuf)
		if len(it.in.Cols) > 1 {
			it.rbuf = rRow
		}
		for it.bIdx < len(it.block) && out.n < capRows {
			it.joined = append(append(it.joined[:0], it.block[it.bIdx]...), rRow...)
			it.bIdx++
			pass, err := it.j.cc.eval(it.joined, it.ctx.Env)
			if err != nil {
				return 0, err
			}
			if pass {
				out.appendRow(it.joined)
			}
		}
		if it.bIdx == len(it.block) {
			it.rPos++
			it.bIdx = 0
		}
	}
	it.ctx.Counters.RowsJoined += int64(out.n)
	return it.ctx.produced(&it.j.stats, out.n), nil
}

func (it *nlJoinIter) Close() error {
	if it.inner != nil {
		it.inner.Close()
	}
	if it.sp != nil {
		it.sp.remove()
	}
	return it.left.src.Close()
}

// ---------------------------------------------------------------- INL join

// INLJoin is the index nested-loops join of milestone 4: for every outer
// row the inner Scan is (re)opened with access-path bounds taken from the
// outer row's attributes. Output order is (outer, inner-index) order,
// which is order-preserving for hierarchical document order.
type INLJoin struct {
	Left  PlanNode
	Inner *Scan
	// Conds are residual conditions not subsumed by the inner access path.
	Conds []tpm.Cmp
	Est_  Est

	schema *Schema
	stats  OpStats
	cc     compiledConds
}

// NewINLJoin builds an index nested-loops join node.
func NewINLJoin(left PlanNode, inner *Scan, conds []tpm.Cmp) *INLJoin {
	return &INLJoin{Left: left, Inner: inner, Conds: conds,
		schema: left.Schema().Concat(inner.Schema())}
}

// Schema implements PlanNode.
func (j *INLJoin) Schema() *Schema { return j.schema }

// Children implements PlanNode.
func (j *INLJoin) Children() []PlanNode { return []PlanNode{j.Left, j.Inner} }

// Estimate implements PlanNode.
func (j *INLJoin) Estimate() Est { return j.Est_ }

// Stats implements PlanNode.
func (j *INLJoin) Stats() *OpStats { return &j.stats }

// Describe implements PlanNode.
func (j *INLJoin) Describe() string {
	d := fmt.Sprintf("inl-join → %s", j.Inner.Describe())
	if len(j.Conds) > 0 {
		d += fmt.Sprintf(" σ(%s)", condsString(j.Conds))
	}
	return d
}

func (j *INLJoin) open(ctx *Ctx, outer Row, outerSchema *Schema) (batchIter, error) {
	if outer != nil {
		// Nested INL: compose schemas so inner bounds can reference both.
		return nil, fmt.Errorf("exec: INL join cannot itself be an INL inner")
	}
	left, err := j.Left.open(ctx, nil, nil)
	if err != nil {
		return nil, err
	}
	j.stats.Opens++
	if err := j.cc.compile(j.Conds, j.schema); err != nil {
		left.Close()
		return nil, err
	}
	return &inlJoinIter{ctx: ctx, j: j, left: rowView{src: left}}, nil
}

type inlJoinIter struct {
	ctx  *Ctx
	j    *INLJoin
	left rowView
	lRow Row // current outer row (valid until the next left.next)
	// inner is the open probe for lRow (nil between outer rows); in is its
	// current batch of nIn rows, consumed up to rPos.
	inner  batchIter
	in     Batch
	nIn    int
	rPos   int
	joined Row
}

// NextBatch probes outer row by outer row, but only as far as the output
// batch has room: each probe's batch is bounded by the rows still wanted,
// so a consumer asking for one row pays for one probe row, not for a
// batch of probes.
func (it *inlJoinIter) NextBatch(out *Batch) (int, error) {
	capRows := out.reset(it.ctx, len(it.j.schema.Aliases))
	for out.n < capRows {
		if it.inner == nil {
			if err := it.ctx.check(); err != nil {
				return 0, err
			}
			row, ok, err := it.left.next()
			if err != nil {
				return 0, err
			}
			if !ok {
				break
			}
			it.lRow = row
			inner, err := it.j.Inner.open(it.ctx, row, it.j.Left.Schema())
			if err != nil {
				return 0, err
			}
			it.inner = inner
			it.ctx.Counters.IndexProbes++
		}
		if it.rPos >= it.nIn {
			it.in.limit = capRows - out.n
			n, err := it.inner.NextBatch(&it.in)
			if err != nil {
				return 0, err
			}
			it.nIn, it.rPos = n, 0
			if n == 0 {
				it.inner.Close()
				it.inner = nil
				continue
			}
		}
		for it.rPos < it.nIn && out.n < capRows {
			it.joined = append(append(it.joined[:0], it.lRow...), it.in.Cols[0][it.in.rowIdx(it.rPos)])
			it.rPos++
			pass, err := it.j.cc.eval(it.joined, it.ctx.Env)
			if err != nil {
				return 0, err
			}
			if pass {
				out.appendRow(it.joined)
			}
		}
	}
	it.ctx.Counters.RowsJoined += int64(out.n)
	return it.ctx.produced(&it.j.stats, out.n), nil
}

func (it *inlJoinIter) Close() error {
	if it.inner != nil {
		it.inner.Close()
	}
	return it.left.src.Close()
}

// ---------------------------------------------------------------- project

// Project narrows rows to the vartuple relations. With Dedup set it also
// removes duplicates in one pass, which is valid exactly when the input is
// hierarchically sorted on the kept attributes — the order invariant the
// paper's milestone 3 strategies are about.
type Project struct {
	Child PlanNode
	Keep  []string
	Dedup bool
	Est_  Est

	schema *Schema
	slots  []int
	stats  OpStats
}

// NewProject builds a projection node keeping the given aliases in order.
func NewProject(child PlanNode, keep []string, dedup bool) *Project {
	p := &Project{Child: child, Keep: append([]string(nil), keep...), Dedup: dedup,
		schema: NewSchema(keep...)}
	for _, alias := range p.Keep {
		p.slots = append(p.slots, child.Schema().Slot(alias))
	}
	return p
}

// Schema implements PlanNode.
func (p *Project) Schema() *Schema { return p.schema }

// Children implements PlanNode.
func (p *Project) Children() []PlanNode { return []PlanNode{p.Child} }

// Estimate implements PlanNode.
func (p *Project) Estimate() Est { return p.Est_ }

// Stats implements PlanNode.
func (p *Project) Stats() *OpStats { return &p.stats }

// Describe implements PlanNode.
func (p *Project) Describe() string {
	var b bytes.Buffer
	for i, a := range p.Keep {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a)
		b.WriteString(".in")
	}
	if p.Dedup {
		return fmt.Sprintf("project π(%s) [one-pass dedup]", b.String())
	}
	return fmt.Sprintf("project π(%s)", b.String())
}

func (p *Project) open(ctx *Ctx, outer Row, outerSchema *Schema) (batchIter, error) {
	child, err := p.Child.open(ctx, outer, outerSchema)
	if err != nil {
		return nil, err
	}
	p.stats.Opens++
	return &projectIter{ctx: ctx, p: p, child: child}, nil
}

type projectIter struct {
	ctx   *Ctx
	p     *Project
	child batchIter
	// in is the child batch whose columns the output batch repoints;
	// selbuf is the dedup selection scratch; prevIns holds the previously
	// emitted keys once have is set (carried across batches).
	in      Batch
	selbuf  []int32
	prevIns []uint32
	have    bool
}

// NextBatch repoints the output batch at the kept input columns — a
// projection moves no rows at all. Dedup rebuilds the selection vector by
// comparing consecutive logical rows on the kept slots, carrying the last
// emitted keys across batch boundaries.
func (it *projectIter) NextBatch(b *Batch) (int, error) {
	slots := it.p.slots
	for {
		it.in.limit = b.limit
		n, err := it.child.NextBatch(&it.in)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, nil
		}
		if cap(b.Cols) < len(slots) {
			b.Cols = make([][]xasr.Tuple, len(slots))
		} else {
			b.Cols = b.Cols[:len(slots)]
		}
		for i, s := range slots {
			b.Cols[i] = it.in.Cols[s]
		}
		b.n = it.in.n
		b.Sel = it.in.Sel
		out := n
		if it.p.Dedup {
			if cap(it.prevIns) < len(slots) {
				it.prevIns = make([]uint32, len(slots))
			}
			prev := it.prevIns[:len(slots)]
			sel := it.selbuf[:0]
			for i := 0; i < n; i++ {
				phys := it.in.rowIdx(i)
				same := it.have
				for c := range slots {
					if b.Cols[c][phys].In != prev[c] {
						same = false
						break
					}
				}
				if same {
					continue
				}
				for c := range slots {
					prev[c] = b.Cols[c][phys].In
				}
				it.have = true
				sel = append(sel, int32(phys))
			}
			it.prevIns = prev
			it.selbuf = sel
			if len(sel) == 0 {
				continue
			}
			b.Sel = sel
			out = len(sel)
		}
		return it.ctx.produced(&it.p.stats, out), nil
	}
}

func (it *projectIter) Close() error { return it.child.Close() }

// ---------------------------------------------------------------- sort

// Sort restores hierarchical document order by externally sorting rows on
// the in-labels of the given aliases — order strategy (a) of the paper.
// With Dedup set, duplicate bindings are dropped while emitting.
type Sort struct {
	Child PlanNode
	By    []string
	Dedup bool
	Est_  Est

	keySlots []int
	stats    OpStats
}

// NewSort builds a sort node ordering by the in-labels of the given
// aliases.
func NewSort(child PlanNode, by []string, dedup bool) *Sort {
	s := &Sort{Child: child, By: append([]string(nil), by...), Dedup: dedup}
	for _, alias := range s.By {
		s.keySlots = append(s.keySlots, child.Schema().Slot(alias))
	}
	return s
}

// Schema implements PlanNode.
func (s *Sort) Schema() *Schema { return s.Child.Schema() }

// Children implements PlanNode.
func (s *Sort) Children() []PlanNode { return []PlanNode{s.Child} }

// Estimate implements PlanNode.
func (s *Sort) Estimate() Est { return s.Est_ }

// Stats implements PlanNode.
func (s *Sort) Stats() *OpStats { return &s.stats }

// Describe implements PlanNode.
func (s *Sort) Describe() string {
	var b bytes.Buffer
	for i, a := range s.By {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a)
		b.WriteString(".in")
	}
	if s.Dedup {
		return fmt.Sprintf("sort [external, by %s, dedup]", b.String())
	}
	return fmt.Sprintf("sort [external, by %s]", b.String())
}

func (s *Sort) open(ctx *Ctx, outer Row, outerSchema *Schema) (batchIter, error) {
	child, err := s.Child.open(ctx, outer, outerSchema)
	if err != nil {
		return nil, err
	}
	defer child.Close()
	keyLen := 4 * len(s.keySlots)
	sorter := recfile.NewSorter(ctx.TempDir, func(a, b []byte) int {
		return bytes.Compare(a[:keyLen], b[:keyLen])
	}, ctx.SortBudget)
	sorter.SetGovernor(ctx.Budget)
	sorter.SetHook(ctx.FaultHook)
	var in Batch
	var rbuf Row
	var rec []byte
	for {
		n, err := child.NextBatch(&in)
		if err != nil {
			sorter.Abort()
			return nil, err
		}
		if n == 0 {
			break
		}
		if err := ctx.checkN(n); err != nil {
			sorter.Abort()
			return nil, err
		}
		for i := 0; i < n; i++ {
			row := in.row(i, rbuf)
			if len(in.Cols) > 1 {
				rbuf = row
			}
			rec = rec[:0]
			for _, slot := range s.keySlots {
				var kb [4]byte
				kb[0] = byte(row[slot].In >> 24)
				kb[1] = byte(row[slot].In >> 16)
				kb[2] = byte(row[slot].In >> 8)
				kb[3] = byte(row[slot].In)
				rec = append(rec, kb[:]...)
			}
			rec = appendRow(rec, row)
			// A failed Add has already removed the sorter's run files.
			if err := sorter.Add(rec); err != nil {
				return nil, err
			}
		}
		ctx.Counters.SortedRows += int64(n)
	}
	it, err := sorter.Sort()
	if err != nil {
		return nil, err
	}
	st := sorter.Stats()
	ctx.Counters.SpilledBytes += st.Spilled
	ctx.Counters.SpillRuns += int64(st.Runs)
	s.stats.SpilledBytes += st.Spilled
	s.stats.SpillRuns += int64(st.Runs)
	s.stats.Opens++
	return &sortIter{ctx: ctx, s: s, it: it, keyLen: keyLen, rowbuf: make(Row, len(s.Schema().Aliases))}, nil
}

type sortIter struct {
	ctx     *Ctx
	s       *Sort
	it      *recfile.Iterator
	keyLen  int
	prevKey []byte
	have    bool
	rowbuf  Row // decode scratch
}

func (it *sortIter) NextBatch(b *Batch) (int, error) {
	capRows := b.reset(it.ctx, len(it.rowbuf))
	for b.n < capRows {
		rec, err := it.it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		key := rec[:it.keyLen]
		if it.s.Dedup && it.have && bytes.Equal(key, it.prevKey) {
			continue
		}
		it.prevKey = append(it.prevKey[:0], key...)
		it.have = true
		if err := decodeRowInto(it.rowbuf, rec[it.keyLen:]); err != nil {
			return 0, err
		}
		b.appendRow(it.rowbuf)
	}
	return it.ctx.produced(&it.s.stats, b.n), nil
}

func (it *sortIter) Close() error { return it.it.Close() }
