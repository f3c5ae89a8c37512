package store

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"xqdb/internal/btree"
	"xqdb/internal/xasr"
)

// Lookup fetches the tuple with the given in label from the primary tree.
func (s *Store) Lookup(in uint32) (xasr.Tuple, bool, error) {
	if !s.loaded {
		return xasr.Tuple{}, false, ErrNotLoaded
	}
	val, ok, err := s.primary.Get(xasr.PrimaryKey(in))
	if err != nil || !ok {
		return xasr.Tuple{}, ok, err
	}
	t, err := xasr.DecodePrimary(xasr.PrimaryKey(in), val)
	return t, err == nil, err
}

// Root returns the document root tuple.
func (s *Store) Root() (xasr.Tuple, error) {
	t, ok, err := s.Lookup(RootIn)
	if err != nil {
		return xasr.Tuple{}, err
	}
	if !ok {
		return xasr.Tuple{}, ErrNotLoaded
	}
	return t, nil
}

// ScanAll iterates the full XASR relation in document (in) order.
// fn returning false stops the scan.
func (s *Store) ScanAll(fn func(xasr.Tuple) bool) error {
	return s.ScanRange(0, 0, fn)
}

// ScanRange iterates tuples with lo <= in < hi in document order. hi = 0
// means "to the end of the relation". Like every closure scan it drains
// the matching cursor, so tuples are decoded a leaf at a time.
func (s *Store) ScanRange(lo, hi uint32, fn func(xasr.Tuple) bool) error {
	tc, err := s.OpenRange(lo, hi)
	if err != nil {
		return err
	}
	defer tc.Close()
	return tc.drain(fn)
}

// ScanDescendants iterates the proper descendants of the node (in, out) in
// document order via a primary range scan.
func (s *Store) ScanDescendants(in, out uint32, fn func(xasr.Tuple) bool) error {
	return s.ScanRange(in+1, out, fn)
}

// LabelEntry is an index-only row from the label index: the identity of a
// node with a known (type, value).
type LabelEntry struct {
	In, Out, ParentIn uint32
}

// ScanLabel iterates the label index entries for (typ, value) in document
// order, index-only. Returns ErrNoLabelIndex if the index is absent.
func (s *Store) ScanLabel(typ xasr.NodeType, value string, fn func(LabelEntry) bool) error {
	return s.ScanLabelRange(typ, value, 0, 0, fn)
}

// ErrNoLabelIndex is returned when the label index was disabled at load.
var ErrNoLabelIndex = fmt.Errorf("store: label index not built")

// ErrNoParentIndex is returned when the parent index was disabled at load.
var ErrNoParentIndex = fmt.Errorf("store: parent index not built")

// ScanLabelRange iterates label-index entries for (typ, value) restricted
// to lo <= in < hi (hi = 0 means unbounded). This is the access path for
// index nested-loop descendant joins: the descendants of a node x with a
// given label lie exactly in the in-range (x.in, x.out).
func (s *Store) ScanLabelRange(typ xasr.NodeType, value string, lo, hi uint32, fn func(LabelEntry) bool) error {
	lc, err := s.OpenLabelRange(typ, value, lo, hi)
	if err != nil {
		return err
	}
	defer lc.Close()
	return lc.drain(fn)
}

// ScanChildren iterates the children of parentIn in document order using
// the parent index, yielding full tuples index-only.
func (s *Store) ScanChildren(parentIn uint32, fn func(xasr.Tuple) bool) error {
	cc, err := s.OpenChildren(parentIn)
	if err != nil {
		return err
	}
	defer cc.Close()
	return cc.drain(fn)
}

// leafCursor is the one pull-cursor core behind TupleCursor, ChildCursor
// and LabelRangeCursor: a batch cursor over one key range of a tree, the
// rows of the current leaf decoded into a reusable array, and a sticky
// error. Each buffer-pool round-trip decodes a whole leaf, so Next is an
// array index in the steady state. Only the per-leaf decode (fill)
// differs between the three cursors. Cursors and their buffers are pooled
// per store, so opening one is allocation-free in the steady state —
// important for the index nested-loops join, which opens a cursor per
// outer row.
//
// Every key of the three trees is a fixed prefix followed by be32(in)
// (the primary's prefix is empty), so one scratch buffer holds the seek
// key and SeekGE rewrites its last four bytes.
type leafCursor[R any] struct {
	bc   btree.BatchCursor
	fill func(c *leafCursor[R]) (bool, error) // appends the next leaf's rows; false at the end
	rows []R
	i    int
	done bool
	err  error      // sticky: set on the first decode/read failure
	pool *sync.Pool // home pool while open; nil after Close
	lo   uint32     // opened lower bound; SeekGE never goes below it
	key  []byte     // scratch: the seek key, then the upper bound key
	seek []byte     // the seek key: prefix + be32(in), aliasing key
	// Tuple decode scratch: the leaf's value bytes, concatenated, and the
	// end offset of each row's value in them.
	valbuf []byte
	voffs  []int
}

// pooled returns a cursor from pool, or a new one.
func pooled[C any](pool *sync.Pool) *C {
	if c, ok := pool.Get().(*C); ok {
		return c
	}
	return new(C)
}

// open readies a fresh or pooled cursor for the keys of t from
// prefix+be32(lo) up to prefix+be32(hi), or to the end of the prefix when
// hi is 0. It does no I/O.
func (c *leafCursor[R]) open(pool *sync.Pool, t *btree.Tree, prefix []byte, lo, hi uint32, fill func(*leafCursor[R]) (bool, error)) {
	n := len(prefix) + 4
	c.key = binary.BigEndian.AppendUint32(append(c.key[:0], prefix...), lo)
	var bound []byte
	if hi != 0 {
		c.key = binary.BigEndian.AppendUint32(append(c.key, prefix...), hi)
		bound = c.key[n:]
	} else {
		bound = btree.PrefixSuccessor(prefix)
	}
	c.seek = c.key[:n:n]
	c.fill, c.pool, c.lo = fill, pool, lo
	c.rows, c.i, c.done, c.err = c.rows[:0], 0, false, nil
	t.SeekBatchRangeInto(&c.bc, c.seek, bound)
}

// more reports whether a decoded row is ready, decoding leaves as needed.
// A failed fill leaves the cursor in the error state: retrying keeps
// returning the same error rather than fabricating rows from a corrupt
// leaf.
func (c *leafCursor[R]) more() bool {
	for c.i >= len(c.rows) && !c.done {
		c.rows, c.i = c.rows[:0], 0
		ok, err := c.fill(c)
		if err != nil {
			c.err, c.rows = err, c.rows[:0]
		}
		c.done = !ok || err != nil
	}
	return c.i < len(c.rows)
}

// Next returns the next row, or ok=false at the end of the range. The
// returned row is a value copy and stays valid indefinitely.
func (c *leafCursor[R]) Next() (R, bool, error) {
	if !c.more() {
		var zero R
		return zero, false, c.err
	}
	r := c.rows[c.i]
	c.i++
	return r, true, nil
}

// NextBatch copies up to len(dst) rows into dst, returning how many were
// produced; 0 means the range is exhausted. In the steady state this is
// one memcpy per leaf, with no per-row work at all — it is the fill path
// for the batch-at-a-time executor.
func (c *leafCursor[R]) NextBatch(dst []R) (int, error) {
	n := 0
	for n < len(dst) && c.more() {
		k := copy(dst[n:], c.rows[c.i:])
		n += k
		c.i += k
	}
	if c.err != nil {
		return 0, c.err
	}
	return n, nil
}

// drain feeds the remaining rows to fn until fn returns false: the one
// loop of the closure scans.
func (c *leafCursor[R]) drain(fn func(R) bool) error {
	for c.more() {
		r := c.rows[c.i]
		c.i++
		if !fn(r) {
			return nil
		}
	}
	return c.err
}

// seekGE advances the cursor so the next row returned is the first
// remaining one whose in label (read by in) is >= target. Within the
// already-decoded leaf this is a binary search (no I/O at all); beyond it
// the batch cursor re-seeks, replacing a leaf-by-leaf crawl with one
// fresh descent. The cursor is forward-only: target must not precede a
// row already returned, and both bounds of the opened range keep applying
// (targets below the lower bound are clamped to it).
func (c *leafCursor[R]) seekGE(target uint32, in func(*R) uint32) error {
	if c.err != nil {
		return c.err
	}
	target = max(target, c.lo)
	rest := c.rows[c.i:]
	k := sort.Search(len(rest), func(i int) bool { return in(&rest[i]) >= target })
	c.i += k
	if k < len(rest) || c.done {
		return nil
	}
	binary.BigEndian.PutUint32(c.seek[len(c.seek)-4:], target)
	c.bc.Reseek(c.seek)
	c.rows, c.i = c.rows[:0], 0
	return nil
}

// release returns self, the cursor embedding c, to its home pool. A
// second call is a no-op, not a double pool put.
func (c *leafCursor[R]) release(self any) {
	if pool := c.pool; pool != nil {
		c.pool = nil
		pool.Put(self)
	}
}

// fillTuples decodes the next leaf of XASR tuples with decode. Numeric
// columns are decoded straight off the pinned page; value bytes are
// gathered into one scratch buffer whose single string conversion backs
// every tuple's Value — one allocation per leaf instead of one per tuple.
func fillTuples(c *leafCursor[xasr.Tuple], decode func(k, v []byte) (xasr.Tuple, []byte, error)) (bool, error) {
	c.valbuf, c.voffs = c.valbuf[:0], c.voffs[:0]
	var derr error
	ok, err := c.bc.NextLeaf(func(k, v []byte) {
		if derr != nil {
			return
		}
		t, raw, err := decode(k, v)
		if err != nil {
			derr = err
			return
		}
		c.rows = append(c.rows, t)
		c.valbuf = append(c.valbuf, raw...)
		c.voffs = append(c.voffs, len(c.valbuf))
	})
	if err == nil {
		err = derr
	}
	if !ok || err != nil {
		return false, err
	}
	shared := string(c.valbuf)
	off := 0
	for i, end := range c.voffs {
		c.rows[i].Value = shared[off:end]
		off = end
	}
	return true, nil
}

// fillPrimary and fillChildren decode leaves of the primary tree and of
// the parent index.
func fillPrimary(c *leafCursor[xasr.Tuple]) (bool, error) {
	return fillTuples(c, xasr.DecodePrimaryRaw)
}

func fillChildren(c *leafCursor[xasr.Tuple]) (bool, error) {
	return fillTuples(c, xasr.DecodeParentEntryRaw)
}

// fillLabels decodes the next leaf of label-index entries. They are
// index-only numerics, so this allocates nothing in the steady state.
func fillLabels(c *leafCursor[LabelEntry]) (bool, error) {
	var derr error
	ok, err := c.bc.NextLeaf(func(k, v []byte) {
		if derr != nil {
			return
		}
		in, out, parent, err := xasr.DecodeLabelEntry(k, v)
		if err != nil {
			derr = err
			return
		}
		c.rows = append(c.rows, LabelEntry{In: in, Out: out, ParentIn: parent})
	})
	if err == nil {
		err = derr
	}
	return ok && err == nil, err
}

// TupleCursor is a pull-style cursor over a primary-tree in-range, used by
// the physical scan operators of milestones 3 and 4. Next, NextBatch and
// their contracts come from leafCursor.
type TupleCursor struct{ leafCursor[xasr.Tuple] }

// OpenRange returns a cursor over tuples with lo <= in < hi in document
// order (hi = 0 means unbounded).
func (s *Store) OpenRange(lo, hi uint32) (*TupleCursor, error) {
	if !s.loaded {
		return nil, ErrNotLoaded
	}
	tc := pooled[TupleCursor](&s.tcPool)
	tc.open(&s.tcPool, s.primary, nil, lo, hi, fillPrimary)
	return tc, nil
}

// SeekGE advances the cursor so the next tuple returned is the first
// remaining one with in >= target (see leafCursor.seekGE).
func (tc *TupleCursor) SeekGE(target uint32) error {
	return tc.seekGE(target, func(t *xasr.Tuple) uint32 { return t.In })
}

// Close returns the cursor and its buffers to the store's pool. The
// cursor must not be used afterwards; tuples already returned by Next
// remain valid.
func (tc *TupleCursor) Close() { tc.release(tc) }

// LabelRangeCursor is a pull-style cursor over label-index entries for one
// (type, value), optionally restricted to an in-range. Entries are
// index-only numerics: decoding a leaf allocates nothing at all.
type LabelRangeCursor struct{ leafCursor[LabelEntry] }

// OpenLabelRange returns a cursor over the label-index entries for
// (typ, value) with lo <= in < hi in document order (hi = 0 unbounded).
func (s *Store) OpenLabelRange(typ xasr.NodeType, value string, lo, hi uint32) (*LabelRangeCursor, error) {
	if !s.loaded {
		return nil, ErrNotLoaded
	}
	if s.labelIdx == nil {
		return nil, ErrNoLabelIndex
	}
	lc := pooled[LabelRangeCursor](&s.lcPool)
	lc.open(&s.lcPool, s.labelIdx, xasr.LabelPrefix(typ, value), lo, hi, fillLabels)
	return lc, nil
}

// SeekGE advances the cursor so the next entry returned is the first
// remaining one with In >= target, staying within the (type, value)
// prefix (see leafCursor.seekGE).
func (lc *LabelRangeCursor) SeekGE(target uint32) error {
	return lc.seekGE(target, func(e *LabelEntry) uint32 { return e.In })
}

// Close returns the cursor and its buffers to the store's pool. The
// cursor must not be used afterwards.
func (lc *LabelRangeCursor) Close() { lc.release(lc) }

// ChildCursor is a pull-style cursor over the children of one node via the
// parent index, yielding full tuples index-only.
type ChildCursor struct{ leafCursor[xasr.Tuple] }

// OpenChildren returns a cursor over the children of parentIn in document
// order.
func (s *Store) OpenChildren(parentIn uint32) (*ChildCursor, error) {
	if !s.loaded {
		return nil, ErrNotLoaded
	}
	if s.parentIdx == nil {
		return nil, ErrNoParentIndex
	}
	cc := pooled[ChildCursor](&s.ccPool)
	// Keys are (be32 parent_in, be32 in): the children are exactly the
	// keys with the prefix be32(parentIn).
	cc.open(&s.ccPool, s.parentIdx, xasr.ParentPrefix(parentIn), 0, 0, fillChildren)
	return cc, nil
}

// Close returns the cursor and its buffers to the store's pool. The
// cursor must not be used afterwards.
func (cc *ChildCursor) Close() { cc.release(cc) }
