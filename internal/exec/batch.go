// Batch-at-a-time execution. NextBatch is the one contract between
// operators: every iterator fills row batches — columnar slabs of up to
// ~1k vartuple slots — so the per-row virtual call, budget poll, and row
// copy stay out of the hot loops. Consumers that want single rows (the
// relfor binding loop, the outer side of a loop join) walk batches through
// a rowView.

package exec

import "xqdb/internal/xasr"

// DefaultBatchSize is the row capacity of operator batches.
const DefaultBatchSize = 1024

// Batch is a block of intermediate rows in columnar layout: one column of
// XASR tuples per row slot, all columns the same length. A producer may
// repoint Cols at its internal storage, so a batch's contents are only
// valid until the next NextBatch or Close on its producer; consumers that
// retain rows copy them.
type Batch struct {
	// Cols holds one column per row slot; every column has n entries.
	Cols [][]xasr.Tuple
	// Sel, when non-nil, is a selection vector: the physical row indices
	// (into Cols) that survived a filter, in order. nil selects all n
	// rows. Filtering sets Sel instead of compacting, so no rows move.
	Sel []int32
	// limit, when positive, is the consumer's bound on the rows it wants
	// from the next NextBatch: an existence check asks for one row, an
	// index probe for what still fits its own output. Operators that fill
	// the batch themselves honor it through reset.
	limit int
	// n is the physical row count.
	n int
}

// reset empties b for refilling with rows of the given slot count, keeping
// the columns' backing arrays, and returns the row capacity the producer
// may fill: the context's batch capacity, lowered to the consumer's limit.
func (b *Batch) reset(ctx *Ctx, slots int) int {
	if cap(b.Cols) < slots {
		b.Cols = make([][]xasr.Tuple, slots)
	} else {
		b.Cols = b.Cols[:slots]
	}
	for i := range b.Cols {
		b.Cols[i] = b.Cols[i][:0]
	}
	b.Sel = nil
	b.n = 0
	capRows := ctx.batchCap()
	if b.limit > 0 && b.limit < capRows {
		capRows = b.limit
	}
	return capRows
}

// Len returns the logical row count: the selected rows when a selection
// vector is present, all physical rows otherwise.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.n
}

// rowIdx maps a logical row index to its physical index.
func (b *Batch) rowIdx(i int) int {
	if b.Sel != nil {
		return int(b.Sel[i])
	}
	return i
}

// row gathers logical row i as a Row. Single-slot batches return a
// zero-copy sub-slice of the column; wider batches gather into buf, whose
// (possibly grown) backing the caller should keep for reuse.
func (b *Batch) row(i int, buf Row) Row {
	p := b.rowIdx(i)
	if len(b.Cols) == 1 {
		return b.Cols[0][p : p+1 : p+1]
	}
	buf = buf[:0]
	for _, col := range b.Cols {
		buf = append(buf, col[p])
	}
	return buf
}

// appendRow copies row into the batch as a new physical row.
func (b *Batch) appendRow(row Row) {
	for i, t := range row {
		b.Cols[i] = append(b.Cols[i], t)
	}
	b.n++
}

// appendRowCopy appends a copy of row to rows, reusing the backing array a
// previously truncated slot left behind — for the operators that retain
// rows across batches (join blocks, ancestor stacks).
func appendRowCopy(rows []Row, row Row) []Row {
	n := len(rows)
	if n < cap(rows) {
		rows = rows[:n+1]
	} else {
		rows = append(rows, nil)
	}
	rows[n] = append(rows[n][:0], row...)
	return rows
}

// batchIter is the pull contract between operators. NextBatch fills b with
// up to the capacity b.reset reports and returns the logical row count; 0
// means the stream is exhausted (producers with residual predicates keep
// pulling until at least one row qualifies or their input ends, so a zero
// count never merely means "everything in this batch was filtered out"),
// and further calls keep returning 0. The batch's contents are valid until
// the next NextBatch or Close.
type batchIter interface {
	NextBatch(b *Batch) (int, error)
	Close() error
}

// rowView walks a batched producer row by row, for the consumers that bind
// or probe per row: the relfor binding loop, the outer side of the loop
// joins, and the ancestor side of the structural merges. A returned Row is
// valid until the next call.
type rowView struct {
	src batchIter
	b   Batch
	pos int
	buf Row
}

func (v *rowView) next() (Row, bool, error) {
	for v.pos >= v.b.Len() {
		n, err := v.src.NextBatch(&v.b)
		if err != nil {
			return nil, false, err
		}
		if n == 0 {
			return nil, false, nil
		}
		v.pos = 0
	}
	row := v.b.row(v.pos, v.buf)
	if len(v.b.Cols) > 1 {
		v.buf = row
	}
	v.pos++
	return row, true, nil
}

// batchStream is a peekable batched stream over a document-ordered input,
// used by the structural and twig merges for their descendant sides. It
// exposes the rows of the current batch by logical index so the merges can
// emit whole runs without re-materializing rows, and it answers seekInGE
// first from the buffered batch (binary search — in-order streams are
// In-sorted within a batch) and only then from the underlying cursor.
type batchStream struct {
	src    batchIter
	seek   inSeeker
	inSlot int
	b      Batch
	pos    int
	eof    bool
	rbuf   Row
}

func newBatchStream(it batchIter, inSlot int) *batchStream {
	s := &batchStream{src: it, inSlot: inSlot}
	s.seek, _ = it.(inSeeker)
	return s
}

// ensure makes at least one unconsumed row available, reporting false at
// end of stream.
func (s *batchStream) ensure() (bool, error) {
	for !s.eof && s.pos >= s.b.Len() {
		n, err := s.src.NextBatch(&s.b)
		if err != nil {
			return false, err
		}
		if n == 0 {
			s.eof = true
			break
		}
		s.pos = 0
	}
	return !s.eof, nil
}

// in returns the In label of logical row i of the current batch.
func (s *batchStream) in(i int) uint32 {
	return s.b.Cols[s.inSlot][s.b.rowIdx(i)].In
}

// tup returns the join-slot tuple of logical row i of the current batch.
func (s *batchStream) tup(i int) xasr.Tuple {
	return s.b.Cols[s.inSlot][s.b.rowIdx(i)]
}

// row gathers logical row i of the current batch.
func (s *batchStream) row(i int) Row {
	row := s.b.row(i, s.rbuf)
	if len(s.b.Cols) > 1 {
		s.rbuf = row
	}
	return row
}

// seekInGE positions the stream at the first row with In >= target,
// reporting false at end of stream. Rows already buffered below target are
// dropped in-batch (the callers' skip semantics make that always safe);
// only when the buffered batch is exhausted does the underlying cursor
// seek.
func (s *batchStream) seekInGE(target uint32) (bool, error) {
	for {
		lo, hi := s.pos, s.b.Len()
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if s.in(mid) < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		s.pos = lo
		if s.pos < s.b.Len() {
			return true, nil
		}
		if s.eof {
			return false, nil
		}
		if s.seek != nil {
			ok, err := s.seek.seekInGE(target)
			if err != nil {
				return false, err
			}
			if !ok {
				s.eof = true
				return false, nil
			}
		}
		n, err := s.src.NextBatch(&s.b)
		if err != nil {
			return false, err
		}
		if n == 0 {
			s.eof = true
			return false, nil
		}
		s.pos = 0
	}
}
