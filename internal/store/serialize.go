package store

import (
	"fmt"

	"xqdb/internal/btree"
	"xqdb/internal/xasr"
	"xqdb/internal/xmltok"
)

// AppendSubtree serializes the subtree rooted at the node with the given
// in label onto dst, reconstructing the XML from the XASR relation with a
// single primary range scan (the reconstruction property of Section 2 of
// the paper: parent_in preserves the child relation and in/out preserve
// sibling order).
//
// The output is byte-identical to dom.Node.AppendXML on the same subtree:
// childless elements serialize as <a/>, text is entity-escaped, the
// document root serializes its children only.
//
// AppendSubtree and AppendSubtreeTuple are the reference serializer: a
// point lookup plus a plain tuple scan, kept simple on purpose. The query
// engine serializes with a SubtreeWriter instead, and everything that
// checks or rebuilds a document independently of it relies on these two:
// the naive milestone 2 evaluator (the oracle of the equivalence fuzz and
// of the benchmark's answers), milestone 1's DOM rebuild, Document.XML,
// the crash-recovery oracle and the benchmark's serialization probe.
func (s *Store) AppendSubtree(dst []byte, in uint32) ([]byte, error) {
	root, ok, err := s.Lookup(in)
	if err != nil {
		return dst, err
	}
	if !ok {
		return dst, fmt.Errorf("store: no node with in=%d", in)
	}
	return s.AppendSubtreeTuple(dst, root)
}

// AppendSubtreeTuple is AppendSubtree when the root tuple is already at
// hand (saves the point lookup).
func (s *Store) AppendSubtreeTuple(dst []byte, root xasr.Tuple) ([]byte, error) {
	if root.Type == xasr.TypeText {
		return xmltok.AppendEscaped(dst, root.Value), nil
	}

	// Scan the subtree in document order. An element's open tag is held
	// back until the next tuple decides whether it has children: with gap
	// labels out == in+1 no longer identifies leaves, but any child's in
	// lies strictly inside (in, out), so a one-tuple lookahead does.
	type openElem struct {
		out   uint32
		label string
	}
	var stack []openElem
	var pend openElem
	havePend := false
	flushPending := func(nextIn uint64) {
		if !havePend {
			return
		}
		havePend = false
		dst = append(dst, '<')
		dst = append(dst, pend.label...)
		if nextIn < uint64(pend.out) {
			dst = append(dst, '>')
			stack = append(stack, pend)
		} else {
			dst = append(dst, '/', '>')
		}
	}
	closeUpTo := func(nextIn uint64) {
		for len(stack) > 0 && uint64(stack[len(stack)-1].out) < nextIn {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			dst = append(dst, '<', '/')
			dst = append(dst, top.label...)
			dst = append(dst, '>')
		}
	}
	if root.Type == xasr.TypeElem {
		pend = openElem{out: root.Out, label: root.Value}
		havePend = true
	}
	err := s.ScanDescendants(root.In, root.Out, func(t xasr.Tuple) bool {
		in := uint64(t.In)
		flushPending(in)
		closeUpTo(in)
		switch t.Type {
		case xasr.TypeText:
			dst = xmltok.AppendEscaped(dst, t.Value)
		case xasr.TypeElem:
			pend = openElem{out: t.Out, label: t.Value}
			havePend = true
		}
		return true
	})
	if err != nil {
		return dst, err
	}
	flushPending(^uint64(0))
	closeUpTo(^uint64(0))
	return dst, nil
}

// SubtreeWriter is the query engine's serializer. Append produces exactly
// AppendSubtree's bytes, but reads them straight off the cells of the
// pinned primary leaves: the root comes from the first cell instead of a
// point lookup, the walk stops at the root's out, only the cells it writes
// are decoded, and text is escaped off the page without a string copy.
// The writer keeps a LeafWalk across calls, so a subtree that starts in
// the leaf the previous one ended in costs no descent: a run of
// document-ordered emits reads its leaves once.
//
// A writer is valid for one read-locked unit of work (one query run): its
// remembered leaf would be stale after an update. It holds no pin between
// calls and is not safe for concurrent use.
type SubtreeWriter struct {
	s    *Store
	walk btree.LeafWalk
	key  [4]byte

	// Per-Append state, reset by each call.
	dst   []byte
	in    uint32 // the root's in
	out   uint32 // the root's out, once its cell is read
	found bool   // the root's cell was read
	pend  bool   // the top of stack is an element whose open tag waits on its first child
	err   error  // a corrupt cell
	stack []openTag
	arena []byte // labels of the open elements, stack order
}

// openTag is an element whose end tag is still to be written; its label is
// arena[label:] up to the next entry's label.
type openTag struct {
	out   uint32
	label int
}

// NewSubtreeWriter returns a writer over the store's primary tree.
func (s *Store) NewSubtreeWriter() *SubtreeWriter {
	return &SubtreeWriter{s: s, walk: s.primary.LeafWalk()}
}

// Append serializes the subtree rooted at the node with the given in label
// onto dst, as AppendSubtree does. On error dst is returned as passed.
func (w *SubtreeWriter) Append(dst []byte, in uint32) ([]byte, error) {
	if !w.s.loaded {
		return dst, ErrNotLoaded
	}
	w.dst, w.in, w.found, w.pend, w.err = dst, in, false, false, nil
	w.stack, w.arena = w.stack[:0], w.arena[:0]
	err := w.walk.Visit(xasr.AppendPrimaryKey(w.key[:0], in), w.cell)
	if err == nil {
		err = w.err
	}
	if err == nil && !w.found {
		err = fmt.Errorf("store: no node with in=%d", in)
	}
	out := w.dst
	w.dst = nil
	if err != nil {
		return dst, err
	}
	return w.endBefore(out, ^uint64(0)), nil
}

// cell writes one primary cell of the subtree and reports whether the walk
// should go on.
func (w *SubtreeWriter) cell(k, v []byte) bool {
	t, raw, err := xasr.DecodePrimaryRaw(k, v)
	if err != nil {
		w.err = err
		return false
	}
	if !w.found {
		if t.In != w.in {
			return false
		}
		w.found, w.out = true, t.Out
	} else {
		if t.In >= w.out {
			return false
		}
		w.dst = w.endBefore(w.dst, uint64(t.In))
	}
	switch t.Type {
	case xasr.TypeText:
		w.dst = xmltok.AppendEscapedBytes(w.dst, raw)
		return t.In != w.in // a text root is the whole subtree
	case xasr.TypeElem:
		w.open(t.Out, raw)
	}
	return true
}

// open pushes an element whose open tag waits on the next cell: with gap
// labels out == in+1 no longer identifies a childless element, but any
// child's in lies strictly inside (in, out), so a one-cell lookahead does.
func (w *SubtreeWriter) open(out uint32, label []byte) {
	w.stack = append(w.stack, openTag{out: out, label: len(w.arena)})
	w.arena = append(w.arena, label...)
	w.pend = true
}

// endBefore writes what the next cell at in decides: the pending open tag (as
// <a> if in falls inside it, else as <a/>) and the end tags of every open
// element that ends before in.
func (w *SubtreeWriter) endBefore(dst []byte, in uint64) []byte {
	if w.pend {
		w.pend = false
		top := w.stack[len(w.stack)-1]
		dst = append(dst, '<')
		dst = append(dst, w.arena[top.label:]...)
		if in < uint64(top.out) {
			return append(dst, '>')
		}
		dst = append(dst, '/', '>')
		w.pop()
	}
	for len(w.stack) > 0 && uint64(w.stack[len(w.stack)-1].out) < in {
		top := w.stack[len(w.stack)-1]
		dst = append(dst, '<', '/')
		dst = append(dst, w.arena[top.label:]...)
		dst = append(dst, '>')
		w.pop()
	}
	return dst
}

// pop drops the top open element and its label.
func (w *SubtreeWriter) pop() {
	top := w.stack[len(w.stack)-1]
	w.stack = w.stack[:len(w.stack)-1]
	w.arena = w.arena[:top.label]
}
