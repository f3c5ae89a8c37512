package btree

import (
	"bytes"

	"xqdb/internal/pager"
)

// Batch is a reusable buffer of decoded leaf cells. A batch fill pins a
// leaf once, copies every remaining cell into the batch's arena and
// unpins, so iterating a batch costs no pager locks at all. The arena and
// offset table are reused across fills: steady-state batch scans allocate
// nothing.
type Batch struct {
	buf  []byte
	offs []int // 2n+1 boundaries: entry i is key buf[offs[2i]:offs[2i+1]], value buf[offs[2i+1]:offs[2i+2]]
}

// Reset empties the batch, keeping its capacity.
func (b *Batch) Reset() {
	b.buf = b.buf[:0]
	b.offs = b.offs[:0]
}

// Len returns the number of entries in the batch.
func (b *Batch) Len() int {
	if len(b.offs) == 0 {
		return 0
	}
	return (len(b.offs) - 1) / 2
}

// Key returns the i-th key. It aliases the batch arena: valid until the
// next fill or Reset.
func (b *Batch) Key(i int) []byte { return b.buf[b.offs[2*i]:b.offs[2*i+1]] }

// Value returns the i-th value. It aliases the batch arena: valid until
// the next fill or Reset.
func (b *Batch) Value(i int) []byte { return b.buf[b.offs[2*i+1]:b.offs[2*i+2]] }

// append copies one cell into the batch.
func (b *Batch) append(k, v []byte) {
	if len(b.offs) == 0 {
		b.offs = append(b.offs, len(b.buf))
	}
	b.buf = append(b.buf, k...)
	b.offs = append(b.offs, len(b.buf))
	b.buf = append(b.buf, v...)
	b.offs = append(b.offs, len(b.buf))
}

// BatchCursor iterates the leaf level one page at a time. Unlike Cursor it
// holds no pin between NextBatch calls — each call pins one leaf, decodes
// its remaining in-range cells into the caller's Batch, remembers the
// right-sibling link and unpins — so one pager round-trip (lock, map
// lookup, pin/unpin) is amortized over every cell of the leaf.
//
// An optional exclusive upper bound confines the decode work to the
// requested range: short scans (index nested-loops probes, child lookups)
// copy only their few in-range cells, not the whole leaf.
//
// Positioning is lazy: Seek stores the bounds and the first NextLeaf
// performs the root-to-leaf descent, flowing straight into that leaf's
// decode — a probe costs one descent, not a descent plus a re-read.
type BatchCursor struct {
	t      *Tree
	lo     []byte       // seek key; retained until the descent happens
	bound  []byte       // exclusive upper key; nil = to the end
	seeked bool         // true once the descent has run
	next   pager.PageID // next leaf to read; NilPage when exhausted
	start  int          // first slot to decode in that leaf (Seek offset)
}

// FirstBatch positions a batch cursor at the smallest key.
func (t *Tree) FirstBatch() *BatchCursor {
	return t.SeekBatchRange(nil, nil)
}

// SeekBatch positions a batch cursor at the first key >= key.
func (t *Tree) SeekBatch(key []byte) *BatchCursor {
	return t.SeekBatchRange(key, nil)
}

// SeekBatchRange positions a batch cursor at the first key >= lo, bounded
// above by hi (exclusive; nil = unbounded). A nil lo means the smallest
// key.
func (t *Tree) SeekBatchRange(lo, hi []byte) *BatchCursor {
	c := &BatchCursor{}
	t.SeekBatchRangeInto(c, lo, hi)
	return c
}

// SeekBatchRangeInto is SeekBatchRange positioning a caller-owned cursor
// in place, so pooled cursors can be re-seeked without allocation. It does
// no I/O — the descent runs inside the first NextLeaf, which is where
// positioning errors surface.
func (t *Tree) SeekBatchRangeInto(c *BatchCursor, lo, hi []byte) {
	*c = BatchCursor{t: t, lo: lo, bound: hi}
}

// Reseek repositions the cursor at the first key >= lo, keeping the tree
// and the exclusive upper bound it was opened with. Like the initial
// seek it does no I/O; the fresh root-to-leaf descent runs inside the
// next NextLeaf. Merge-style consumers use it to leap over key runs that
// cannot contribute instead of decoding every leaf in between.
func (c *BatchCursor) Reseek(lo []byte) {
	c.t.SeekBatchRangeInto(c, lo, c.bound)
}

// descendToLeaf returns the pinned leaf that would hold key (nil = the
// leftmost leaf).
func (t *Tree) descendToLeaf(key []byte) (*pager.Page, error) {
	id := t.root
	for {
		p, err := t.pg.Read(id)
		if err != nil {
			return nil, err
		}
		d := p.Data()
		if nodeType(d) == typeLeaf {
			return p, nil
		}
		var next pager.PageID
		if key == nil {
			next = link(d) // leftmost child
		} else {
			_, next = childFor(d, key)
		}
		p.Unpin()
		id = next
	}
}

// seekLeaf returns the pinned leaf that would hold lo (nil = the leftmost
// leaf) and the slot of the first cell >= lo in it.
func (t *Tree) seekLeaf(lo []byte) (*pager.Page, int, error) {
	p, err := t.descendToLeaf(lo)
	if err != nil {
		return nil, 0, err
	}
	return p, findInLeaf(p.Data(), lo), nil
}

// NextLeaf visits the in-range cells of the next non-empty leaf, calling
// fn once per cell while the leaf is pinned, and reports false when the
// leaf chain or the bound is exhausted. The slices passed to fn alias the
// pinned page: they are only valid during the call and must be copied (or
// fully decoded) to retain. This is the zero-copy core of the batched read
// path: one pager round-trip per leaf, cells decoded straight off the
// page.
func (c *BatchCursor) NextLeaf(fn func(k, v []byte)) (bool, error) {
	for {
		var p *pager.Page
		var err error
		if !c.seeked {
			c.seeked = true
			p, c.start, err = c.t.seekLeaf(c.lo)
			if err != nil {
				return false, err
			}
			c.lo = nil
		} else {
			if c.next == pager.NilPage {
				return false, nil
			}
			p, err = c.t.pg.Read(c.next)
			if err != nil {
				return false, err
			}
		}
		d := p.Data()
		n := nkeys(d)
		// Bound handling: one compare against the leaf's last key decides
		// whether the whole remainder is in range (the common case mid-
		// range, no per-cell compares) or the bound falls inside this leaf
		// (compare per cell, stopping at the bound — exactly what a short
		// probe needs, cheaper than a binary search when few cells match).
		checkEach := false
		if c.bound != nil && n > 0 {
			last, _ := leafCell(d, n-1)
			checkEach = bytes.Compare(last, c.bound) >= 0
		}
		i := c.start
		for ; i < n; i++ {
			k, v := leafCell(d, i)
			if checkEach && bytes.Compare(k, c.bound) >= 0 {
				break
			}
			fn(k, v)
		}
		visited := i - c.start
		if checkEach {
			c.next = pager.NilPage // the bound falls inside this leaf
		} else {
			c.next = link(d)
		}
		c.start = 0
		p.Unpin()
		if visited > 0 {
			return true, nil
		}
		if c.next == pager.NilPage {
			return false, nil
		}
	}
}

// LeafWalk is a forward range visit that remembers the leaf it last ended
// in. A Visit whose lower key lies between that leaf's first and last keys
// starts there without a root-to-leaf descent; any other Visit descends.
// A run of visits in key order that each cover a few cells (serializing
// document-ordered subtrees) thus costs one pinned-leaf read per visit
// instead of one descent per visit. Like BatchCursor it pins one page at a
// time and holds no pin between calls.
//
// The remembered page id is only meaningful while the tree is not
// modified: a split or a freed page would leave it naming some other page.
// Use a LeafWalk within one read-locked unit of work and drop it after.
type LeafWalk struct {
	t    *Tree
	last pager.PageID // leaf the previous Visit ended in; NilPage before the first
}

// LeafWalk returns a walk with no remembered leaf.
func (t *Tree) LeafWalk() LeafWalk { return LeafWalk{t: t} }

// Visit calls fn on every cell with key >= lo, in key order, while the
// cell's leaf is pinned, until fn returns false or the leaf chain ends.
// The slices passed to fn alias the page: they are only valid during the
// call.
func (w *LeafWalk) Visit(lo []byte, fn func(k, v []byte) bool) error {
	p, i, err := w.start(lo)
	if err != nil {
		return err
	}
	for {
		d := p.Data()
		for n := nkeys(d); i < n; i++ {
			if k, v := leafCell(d, i); !fn(k, v) {
				w.last = p.ID
				p.Unpin()
				return nil
			}
		}
		next := link(d)
		w.last = p.ID
		p.Unpin()
		if next == pager.NilPage {
			return nil
		}
		if p, err = w.t.pg.Read(next); err != nil {
			return err
		}
		i = 0
	}
}

// start returns the pinned leaf a Visit from lo begins in and the slot of
// its first cell >= lo: the remembered leaf when it brackets lo, else the
// leaf a descent finds.
func (w *LeafWalk) start(lo []byte) (*pager.Page, int, error) {
	if w.last != pager.NilPage {
		p, err := w.t.pg.Read(w.last)
		if err != nil {
			return nil, 0, err
		}
		d := p.Data()
		if n := nkeys(d); nodeType(d) == typeLeaf && n > 0 {
			first, _ := leafCell(d, 0)
			last, _ := leafCell(d, n-1)
			if bytes.Compare(lo, first) >= 0 && bytes.Compare(lo, last) <= 0 {
				return p, findInLeaf(d, lo), nil
			}
		}
		p.Unpin()
	}
	return w.t.seekLeaf(lo)
}

// NextBatch fills b with the in-range cells of the next non-empty leaf. It
// reports false when the leaf chain or the bound is exhausted. b is Reset
// first; its previous contents are invalidated.
func (c *BatchCursor) NextBatch(b *Batch) (bool, error) {
	b.Reset()
	return c.NextLeaf(b.append)
}

// ScanRangeBatch is the batched form of ScanRange: fn is called once per
// leaf with a batch holding every (key, value) with lo <= key < hi from
// that leaf. A nil hi means "to the end". fn returning false stops the
// scan early. The batch contents are only valid during the call.
func (t *Tree) ScanRangeBatch(lo, hi []byte, b *Batch, fn func(*Batch) bool) error {
	c := t.SeekBatchRange(lo, hi)
	for {
		ok, err := c.NextBatch(b)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if !fn(b) {
			return nil
		}
	}
}

// ScanPrefixBatch is the batched form of ScanPrefix: fn is called once per
// leaf with a batch holding every (key, value) whose key begins with
// prefix. fn returning false stops the scan early.
func (t *Tree) ScanPrefixBatch(prefix []byte, b *Batch, fn func(*Batch) bool) error {
	return t.ScanRangeBatch(prefix, PrefixSuccessor(prefix), b, fn)
}

// PrefixSuccessor returns the smallest key greater than every key with the
// given prefix, for use as an exclusive range bound; nil when no such key
// exists (the prefix is empty or all 0xff).
func PrefixSuccessor(prefix []byte) []byte {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xff {
			succ := append([]byte(nil), prefix[:i+1]...)
			succ[i]++
			return succ
		}
	}
	return nil
}
