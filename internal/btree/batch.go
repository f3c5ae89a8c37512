package btree

import (
	"bytes"

	"xqdb/internal/pager"
)

// BatchCursor iterates the leaf level of a key range one page at a time.
// It holds no pin between NextLeaf calls: each call pins one leaf, visits
// its remaining in-range cells, remembers the right-sibling link and
// unpins, so one pager round-trip (lock, map lookup, pin/unpin) is
// amortized over every cell of the leaf.
//
// An optional exclusive upper bound confines the work to the requested
// range: short scans (index nested-loops probes, child lookups) visit
// only their few in-range cells, not the whole leaf.
//
// Positioning is lazy: SeekBatchRange stores the bounds and the first
// NextLeaf performs the root-to-leaf descent, flowing straight into that
// leaf's cells — a probe costs one descent, not a descent plus a re-read.
type BatchCursor struct {
	t      *Tree
	lo     []byte       // seek key; retained until the descent happens
	bound  []byte       // exclusive upper key; nil = to the end
	seeked bool         // true once the descent has run
	next   pager.PageID // next leaf to read; NilPage when exhausted
	start  int          // first slot to visit in that leaf (the seek offset)
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

// seekLeaf descends from the root to the leaf that would hold lo (nil =
// the leftmost leaf) and returns it pinned, with the slot of its first
// cell >= lo. It is the one root-to-leaf descent of the read side: Get,
// Delete, BatchCursor and LeafWalk all start here. (Insert records its
// path for splits and Height follows leftmost links; both walk on their
// own.)
func (t *Tree) seekLeaf(lo []byte) (*pager.Page, int, error) {
	id := t.root
	for {
		p, err := t.pg.Read(id)
		if err != nil {
			return nil, 0, err
		}
		d := p.Data()
		if nodeType(d) == typeLeaf {
			return p, findInLeaf(d, lo), nil
		}
		if lo == nil {
			id = link(d) // leftmost child
		} else {
			_, id = childFor(d, lo)
		}
		p.Unpin()
	}
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
