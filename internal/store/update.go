package store

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"xqdb/internal/xasr"
	"xqdb/internal/xmltok"
)

// Update errors.
var (
	// ErrBusy is returned by Begin while another update is in progress.
	ErrBusy = errors.New("store: update in progress")
	// ErrRecovery wraps failures of the redo pass at open: the WAL holds
	// committed updates that could not be replayed into the page file.
	ErrRecovery = errors.New("store: recovery failed")
	// ErrNoNode is returned when an update targets a label with no node.
	ErrNoNode = errors.New("store: no such node")
)

// InsertPos selects where InsertSubtree places the fragment relative to
// the target node.
type InsertPos int

// Insert positions.
const (
	InsertInto   InsertPos = iota // as last children of the target
	InsertBefore                  // as preceding siblings of the target
	InsertAfter                   // as following siblings of the target
)

// Tx is one update unit against the store: a sequence of subtree
// insertions, deletions and replacements that commits atomically through
// the WAL or leaves no trace. One Tx at a time; the caller serializes.
//
// While a Tx is open the store must not serve concurrent readers — pages
// mutate in place. If any mutating call returns an error the Tx is
// poisoned: the caller must Abort (or CrashClose the store), not Commit.
type Tx struct {
	s       *Store
	seq     uint64
	stats   *xasr.Stats
	texts   textDelta // folded into s.textHashes by Commit, dropped by Abort
	maxIn   uint32
	moved   map[uint32]uint32   // pre-Tx in → current in, live relabeled nodes only
	rev     map[uint32]uint32   // current in → pre-Tx in (inverse of moved)
	gone    map[uint32]struct{} // pre-Tx labels of nodes this Tx deleted
	mutated bool
	done    bool
}

// Begin starts an update unit. It fails with ErrBusy if one is already
// open.
func (s *Store) Begin() (*Tx, error) {
	if s.opts.ReadOnly {
		return nil, errors.New("store: update of read-only store")
	}
	if !s.loaded {
		return nil, ErrNotLoaded
	}
	if s.wal == nil {
		return nil, errors.New("store: no WAL")
	}
	if !s.updBusy.CompareAndSwap(false, true) {
		return nil, ErrBusy
	}
	// Wait for in-flight readers to drain; new readers block until the
	// unit finishes. The updBusy gate above keeps a second Begin from
	// queueing on the write lock (it fails fast with ErrBusy instead).
	s.rw.Lock()
	if err := s.pg.BeginUpdate(); err != nil {
		s.rw.Unlock()
		s.updBusy.Store(false)
		return nil, err
	}
	return &Tx{
		s:     s,
		seq:   s.appliedSeq.Load() + 1,
		stats: cloneStats(s.stats.Load()),
		texts: textDelta{},
		maxIn: s.maxIn.Load(),
		moved: map[uint32]uint32{},
		rev:   map[uint32]uint32{},
		gone:  map[uint32]struct{}{},
	}, nil
}

// Translate maps a node label captured before this Tx's operations to the
// node's current label (relabeling may have moved it, possibly more than
// once). Labels of nodes this Tx deleted translate to 0 — never a live
// label — so lookups fail with ErrNoNode even when a later relabel
// recycled the position for a different node.
func (tx *Tx) Translate(in uint32) uint32 {
	if _, dead := tx.gone[in]; dead {
		return 0
	}
	if n, ok := tx.moved[in]; ok {
		return n
	}
	return in
}

// composeMoves folds one relabel's old→new mapping (keyed by the labels
// current just before that relabel) into the pre-Tx translation state, so
// Translate stays correct across any number of relabels.
func (tx *Tx) composeMoves(delta map[uint32]uint32) {
	if len(delta) == 0 {
		return
	}
	// Tracked nodes the relabel moved again: chain pre-Tx → old → new.
	for p, c := range tx.moved {
		if n, ok := delta[c]; ok {
			tx.moved[p] = n
		}
	}
	// A relabeled node with no tracking entry is either the pre-Tx node
	// still sitting at its original label (start tracking it) or a
	// this-Tx insert occupying a label whose pre-Tx node moved away or
	// died (must not be tracked: that would redirect the pre-Tx label to
	// an unrelated node).
	for o, n := range delta {
		if _, occupied := tx.rev[o]; occupied {
			continue
		}
		if _, away := tx.moved[o]; away {
			continue
		}
		if _, dead := tx.gone[o]; dead {
			continue
		}
		tx.moved[o] = n
	}
	// A new label can collide with a different node's old label, so the
	// inverse is rebuilt from scratch rather than patched per entry.
	rev := make(map[uint32]uint32, len(tx.moved))
	for p, c := range tx.moved {
		rev[c] = p
	}
	tx.rev = rev
}

// Commit makes the unit durable. It returns nil only when the unit is
// fully committed and applied; a non-nil error with a true committed
// state (crash injected after the WAL flush) still returns the error —
// callers treating errors as crashes will recover the committed state.
func (tx *Tx) Commit() error {
	if tx.done {
		return errors.New("store: transaction finished")
	}
	tx.done = true
	s := tx.s
	defer func() {
		s.rw.Unlock()
		s.updBusy.Store(false)
	}()
	if !tx.mutated {
		s.pg.AbortUpdate()
		return nil
	}
	tx.stats.MaxIn = tx.maxIn
	s.maxIn.Store(tx.maxIn)
	s.saveHeader()
	committed, cerr := s.pg.CommitUpdate(tx.seq)
	if !committed {
		s.pg.AbortUpdate()
		if err := s.loadHeader(); err != nil && cerr == nil {
			cerr = err
		}
		if cerr == nil {
			cerr = errors.New("store: commit failed")
		}
		return cerr
	}
	// The unit is durable. Its statistics are not written here: stats.bin
	// is rewritten only at Load and a clean Close, and after a crash open
	// rebuilds them by a rescan (finishOpen).
	s.foldTexts(tx.texts, tx.stats.LabelDistinctTexts)
	s.appliedSeq.Store(tx.seq)
	s.stats.Store(tx.stats)
	if cerr == nil && s.wal.Bytes() > s.opts.checkpointBytes() {
		cerr = s.Checkpoint()
	}
	return cerr
}

// Abort discards the unit: every touched page reverts to its pre-Begin
// image and the WAL buffer is dropped.
func (tx *Tx) Abort() {
	if tx.done {
		return
	}
	tx.done = true
	s := tx.s
	s.pg.AbortUpdate()
	s.loadHeader() // tree roots and maxIn revert with the meta page
	s.rw.Unlock()
	s.updBusy.Store(false)
}

// --- fragment parsing ---

// fnode is a parsed fragment node, or an existing node lifted for
// relabeling (oldIn != 0).
type fnode struct {
	typ   xasr.NodeType
	value string
	kids  []*fnode
	oldIn uint32
}

const fragWrapper = "xqdb-fragment-wrapper"

// parseFragment parses an XML fragment (a forest: elements and top-level
// text are both allowed) into fnodes. A value longer than limit bytes is
// ErrValueTooLarge (see Store.valueLimit).
func parseFragment(frag string, limit int) ([]*fnode, error) {
	tz := xmltok.New(strings.NewReader("<" + fragWrapper + ">" + frag + "</" + fragWrapper + ">"))
	top := &fnode{}
	stack := []*fnode{top}
	for {
		tok, err := tz.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("store: parsing fragment: %w", err)
		}
		switch tok.Kind {
		case xmltok.StartElement:
			if err := checkValue(xasr.TypeElem, tok.Name, limit); err != nil {
				return nil, err
			}
			n := &fnode{typ: xasr.TypeElem, value: tok.Name}
			p := stack[len(stack)-1]
			p.kids = append(p.kids, n)
			stack = append(stack, n)
		case xmltok.EndElement:
			stack = stack[:len(stack)-1]
		case xmltok.Text:
			if err := checkValue(xasr.TypeText, tok.Text, limit); err != nil {
				return nil, err
			}
			p := stack[len(stack)-1]
			p.kids = append(p.kids, &fnode{typ: xasr.TypeText, value: tok.Text})
		}
	}
	if len(top.kids) != 1 || top.kids[0].value != fragWrapper {
		return nil, errors.New("store: malformed fragment")
	}
	forest := top.kids[0].kids
	if len(forest) == 0 {
		return nil, errors.New("store: empty fragment")
	}
	return forest, nil
}

func countNodes(forest []*fnode) int64 {
	var n int64
	for _, f := range forest {
		n += 1 + countNodes(f.kids)
	}
	return n
}

// --- structural navigation (primary-tree skip scans) ---

// lastChildOut returns the out label of p's last child, or p.In if p is
// childless.
func (tx *Tx) lastChildOut(p xasr.Tuple) (uint32, error) {
	out := p.In
	tc, err := tx.s.OpenRange(p.In+1, p.Out)
	if err != nil {
		return 0, err
	}
	defer tc.Close()
	for {
		t, ok, err := tc.Next()
		if err != nil || !ok {
			return out, err
		}
		out = t.Out
		if err := tc.SeekGE(t.Out + 1); err != nil {
			return 0, err
		}
	}
}

// around returns the labels adjacent to the child (childIn, childOut) of
// p: the previous sibling's out (or p.In) and the next sibling's in (or 0
// if the child is last).
func (tx *Tx) around(p xasr.Tuple, childIn, childOut uint32) (prevOut, nextIn uint32, err error) {
	prevOut = p.In
	tc, err := tx.s.OpenRange(p.In+1, p.Out)
	if err != nil {
		return 0, 0, err
	}
	defer tc.Close()
	for {
		t, ok, err := tc.Next()
		if err != nil || !ok {
			return prevOut, nextIn, err
		}
		if t.In > childIn {
			return prevOut, t.In, nil
		}
		if t.In < childIn {
			prevOut = t.Out
		}
		if err := tc.SeekGE(t.Out + 1); err != nil {
			return 0, 0, err
		}
	}
}

// ancestors returns the chain above t: parent first, root last.
func (tx *Tx) ancestors(t xasr.Tuple) ([]xasr.Tuple, error) {
	var chain []xasr.Tuple
	cur := t
	for cur.Type != xasr.TypeRoot {
		p, ok, err := tx.s.Lookup(cur.ParentIn)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("store: dangling parent_in=%d", cur.ParentIn)
		}
		chain = append(chain, p)
		cur = p
	}
	return chain, nil
}

// countInside returns the number of nodes strictly inside (a.In, a.Out).
func (tx *Tx) countInside(a xasr.Tuple) (int64, error) {
	var n int64
	err := tx.s.ScanRange(a.In+1, a.Out, func(xasr.Tuple) bool {
		n++
		return true
	})
	return n, err
}

// --- tree mutation primitives ---

func (tx *Tx) insertNode(t xasr.Tuple) error {
	s := tx.s
	if err := s.primary.Insert(xasr.PrimaryKey(t.In), xasr.EncodePrimaryValue(t)); err != nil {
		return err
	}
	if t.Type == xasr.TypeRoot {
		return nil
	}
	if s.labelIdx != nil {
		if err := s.labelIdx.Insert(xasr.LabelKey(t.Type, t.Value, t.In), xasr.EncodeLabelValue(t.Out, t.ParentIn)); err != nil {
			return err
		}
	}
	if s.parentIdx != nil {
		if err := s.parentIdx.Insert(xasr.ParentKey(t.ParentIn, t.In), xasr.EncodeParentValue(t.Out, t.Type, t.Value)); err != nil {
			return err
		}
	}
	return nil
}

func (tx *Tx) deleteNode(t xasr.Tuple) error {
	s := tx.s
	if _, err := s.primary.Delete(xasr.PrimaryKey(t.In)); err != nil {
		return err
	}
	if t.Type == xasr.TypeRoot {
		return nil
	}
	if s.labelIdx != nil {
		if _, err := s.labelIdx.Delete(xasr.LabelKey(t.Type, t.Value, t.In)); err != nil {
			return err
		}
	}
	if s.parentIdx != nil {
		if _, err := s.parentIdx.Delete(xasr.ParentKey(t.ParentIn, t.In)); err != nil {
			return err
		}
	}
	return nil
}

// emitForest assigns labels from next() to every node of the forest in
// document order and inserts the tuples into all trees. Nodes carrying an
// oldIn that actually moved are recorded in delta (old label → new label);
// the caller composes delta into the Tx translation state.
func (tx *Tx) emitForest(forest []*fnode, parentIn uint32, next func() uint32, delta map[uint32]uint32) error {
	for _, n := range forest {
		in := next()
		if n.oldIn != 0 && n.oldIn != in {
			delta[n.oldIn] = in
		}
		if err := tx.emitForest(n.kids, in, next, delta); err != nil {
			return err
		}
		out := next()
		if err := tx.insertNode(xasr.Tuple{In: in, Out: out, ParentIn: parentIn, Type: n.typ, Value: n.value}); err != nil {
			return err
		}
	}
	return nil
}

// --- statistics deltas ---

// textDelta is a unit's signed change to the store's text-hash multisets,
// keyed like xasr.TextHashes, so its size is the texts the unit touched.
type textDelta map[string]map[uint64]int64

func (d textDelta) add(label, text string, n int64) {
	m := d[label]
	if m == nil {
		m = make(map[uint64]int64)
		d[label] = m
	}
	m[xasr.TextHash(text)] += n
}

// foldTexts applies a committed unit's delta to s.textHashes, keeping the
// multisets in the shape a fresh shred produces (no empty entries), and
// refreshes distinct — the unit's LabelDistinctTexts — for exactly the
// labels the delta touched.
func (s *Store) foldTexts(d textDelta, distinct map[string]int64) {
	for label, dm := range d {
		m := s.textHashes[label]
		if m == nil {
			m = make(map[uint64]int64, len(dm))
		}
		for h, n := range dm {
			if m[h] += n; m[h] <= 0 {
				delete(m, h)
			}
		}
		if len(m) == 0 {
			delete(s.textHashes, label)
			delete(distinct, label)
		} else {
			s.textHashes[label] = m
			distinct[label] = int64(len(m))
		}
	}
}

// addForestStats accounts a newly inserted forest whose nodes are
// children of a node at the given depth with the given element label
// ("" if the parent is the document root).
func (tx *Tx) addForestStats(forest []*fnode, parentLabel string, parentDepth int64) {
	st := tx.stats
	for _, n := range forest {
		d := parentDepth + 1
		st.Nodes++
		st.SumDepth += d
		if int32(d) > st.MaxDepth {
			st.MaxDepth = int32(d)
		}
		switch n.typ {
		case xasr.TypeElem:
			st.Elems++
			st.LabelCount[n.value]++
			st.LabelSubtreeSum[n.value] += countNodes(n.kids)
			tx.addForestStats(n.kids, n.value, d)
			if f := int32(len(n.kids)); f > st.MaxFanout {
				st.MaxFanout = f
			}
		case xasr.TypeText:
			st.Texts++
			if parentLabel != "" {
				tx.texts.add(parentLabel, n.value, 1)
			}
		}
	}
}

// creditAncestors adds delta descendants to the subtree sums of p and all
// its element ancestors, and returns p's depth (its ancestor count).
func (tx *Tx) creditAncestors(p xasr.Tuple, delta int64) (int64, error) {
	chain, err := tx.ancestors(p)
	if err != nil {
		return 0, err
	}
	if p.Type == xasr.TypeElem {
		tx.stats.LabelSubtreeSum[p.Value] += delta
	}
	for _, a := range chain {
		if a.Type == xasr.TypeElem {
			tx.stats.LabelSubtreeSum[a.Value] += delta
		}
	}
	return int64(len(chain)), nil
}

// dropLabelIfGone removes the per-label stat entries once the last
// element with that label is gone, matching what a fresh shred produces.
func (tx *Tx) dropLabelIfGone(label string) {
	if tx.stats.LabelCount[label] <= 0 {
		delete(tx.stats.LabelCount, label)
		delete(tx.stats.LabelSubtreeSum, label)
	}
}

// --- public operations ---

// InsertSubtree parses frag (an XML forest) and inserts it at pos
// relative to the node labeled target.
func (tx *Tx) InsertSubtree(target uint32, pos InsertPos, frag string) error {
	if tx.done {
		return errors.New("store: transaction finished")
	}
	forest, err := parseFragment(frag, tx.s.valueLimit(tx.s.labelIdx != nil, tx.s.parentIdx != nil))
	if err != nil {
		return err
	}
	t, ok, err := tx.s.Lookup(target)
	if err != nil {
		return err
	}
	if !ok {
		return ErrNoNode
	}

	var parent xasr.Tuple
	var beforeIn, lo, hi uint32
	switch pos {
	case InsertInto:
		if t.Type == xasr.TypeText {
			return errors.New("store: cannot insert into a text node")
		}
		parent = t
		lo, err = tx.lastChildOut(t)
		if err != nil {
			return err
		}
		hi = t.Out
	case InsertBefore, InsertAfter:
		if t.Type == xasr.TypeRoot {
			return errors.New("store: cannot insert beside the document root")
		}
		parent, ok, err = tx.s.Lookup(t.ParentIn)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("store: dangling parent_in=%d", t.ParentIn)
		}
		prevOut, nextIn, err := tx.around(parent, t.In, t.Out)
		if err != nil {
			return err
		}
		if pos == InsertBefore {
			beforeIn, lo, hi = t.In, prevOut, t.In
		} else {
			beforeIn, lo = nextIn, t.Out
			if hi = nextIn; hi == 0 {
				hi = parent.Out
			}
		}
	default:
		return fmt.Errorf("store: bad insert position %d", pos)
	}
	return tx.insertAt(parent, beforeIn, lo, hi, forest)
}

// DeleteSubtree removes the subtree rooted at the node labeled target.
func (tx *Tx) DeleteSubtree(target uint32) error {
	if tx.done {
		return errors.New("store: transaction finished")
	}
	t, ok, err := tx.s.Lookup(target)
	if err != nil {
		return err
	}
	if !ok {
		return ErrNoNode
	}
	if t.Type == xasr.TypeRoot {
		return errors.New("store: cannot delete the document root")
	}
	parent, ok, err := tx.s.Lookup(t.ParentIn)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("store: dangling parent_in=%d", t.ParentIn)
	}
	return tx.deleteSubtree(parent, t)
}

// ReplaceSubtree substitutes the subtree rooted at target with frag,
// keeping its position among its siblings.
func (tx *Tx) ReplaceSubtree(target uint32, frag string) error {
	if tx.done {
		return errors.New("store: transaction finished")
	}
	forest, err := parseFragment(frag, tx.s.valueLimit(tx.s.labelIdx != nil, tx.s.parentIdx != nil))
	if err != nil {
		return err
	}
	t, ok, err := tx.s.Lookup(target)
	if err != nil {
		return err
	}
	if !ok {
		return ErrNoNode
	}
	if t.Type == xasr.TypeRoot {
		return errors.New("store: cannot replace the document root")
	}
	parent, ok, err := tx.s.Lookup(t.ParentIn)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("store: dangling parent_in=%d", t.ParentIn)
	}
	prevOut, nextIn, err := tx.around(parent, t.In, t.Out)
	if err != nil {
		return err
	}
	if err := tx.deleteSubtree(parent, t); err != nil {
		return err
	}
	hi := nextIn
	if hi == 0 {
		hi = parent.Out
	}
	return tx.insertAt(parent, nextIn, prevOut, hi, forest)
}

// deleteSubtree removes t (a child of parent) and everything below it,
// reversing the statistics the subtree contributed.
func (tx *Tx) deleteSubtree(parent, t xasr.Tuple) error {
	tuples := []xasr.Tuple{t}
	err := tx.s.ScanDescendants(t.In, t.Out, func(d xasr.Tuple) bool {
		tuples = append(tuples, d)
		return true
	})
	if err != nil {
		return err
	}

	depth, err := tx.creditAncestors(parent, -int64(len(tuples)))
	if err != nil {
		return err
	}
	st := tx.stats
	// Walk the subtree in document order, tracking open elements for
	// depths, text-parent labels, and exact per-element descendant counts
	// (the seen-counter delta, exactly as the shredder counts them). The
	// sentinel frame stands for the parent: its label feeds text removal
	// ("" when the parent is the document root) but its subtree sum is
	// already handled by creditAncestors, so isElem is false.
	type open struct {
		out    uint32
		label  string
		isElem bool
		seenAt int64
	}
	parentLabel := ""
	if parent.Type == xasr.TypeElem {
		parentLabel = parent.Value
	}
	stack := []open{{out: parent.Out, label: parentLabel}}
	var processed int64
	popOne := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if top.isElem {
			st.LabelSubtreeSum[top.label] -= processed - top.seenAt
		}
	}
	for _, d := range tuples {
		for len(stack) > 1 && stack[len(stack)-1].out < d.In {
			popOne()
		}
		processed++
		st.Nodes--
		st.SumDepth -= depth + int64(len(stack))
		switch d.Type {
		case xasr.TypeElem:
			st.Elems--
			st.LabelCount[d.Value]--
			stack = append(stack, open{out: d.Out, label: d.Value, isElem: true, seenAt: processed})
		case xasr.TypeText:
			st.Texts--
			if top := stack[len(stack)-1]; top.label != "" {
				tx.texts.add(top.label, d.Value, -1)
			}
		}
	}
	for len(stack) > 1 {
		popOne()
	}
	for _, d := range tuples {
		if d.Type == xasr.TypeElem {
			tx.dropLabelIfGone(d.Value)
		}
	}

	// Translation bookkeeping: each deleted node's pre-Tx label must keep
	// translating to a dead position even if a later relabel recycles the
	// node's current label for a different node.
	for _, d := range tuples {
		if p, ok := tx.rev[d.In]; ok {
			// A node relabeled earlier this Tx: its pre-Tx label dies.
			delete(tx.moved, p)
			delete(tx.rev, d.In)
			tx.gone[p] = struct{}{}
		} else if _, away := tx.moved[d.In]; !away {
			// Either the pre-Tx node still at its original label, or a
			// this-Tx insert on a fresh label (harmless to mark: no
			// pre-Tx label matches it). When moved[d.In] exists the
			// pre-Tx node lives elsewhere and the dying occupant is a
			// this-Tx insert — its label must NOT be marked gone.
			tx.gone[d.In] = struct{}{}
		}
	}

	for _, d := range tuples {
		if err := tx.deleteNode(d); err != nil {
			return err
		}
	}
	tx.mutated = true
	return nil
}

// insertAt places the forest as children of parent, immediately before
// the child labeled beforeIn (0 = as last children), using labels from
// the exclusive window (lo, hi). If the window is too narrow the
// enclosing subtree is relabeled with evenly spread labels, escalating
// toward the root; relabeling at the root may grow the label space.
func (tx *Tx) insertAt(parent xasr.Tuple, beforeIn, lo, hi uint32, forest []*fnode) error {
	m := countNodes(forest)
	need := uint64(2 * m)

	// Statistics first: they depend only on the structure, not on the
	// labels chosen below.
	depth, err := tx.creditAncestors(parent, m)
	if err != nil {
		return err
	}
	parentLabel := ""
	if parent.Type == xasr.TypeElem {
		parentLabel = parent.Value
	}
	tx.addForestStats(forest, parentLabel, depth)

	if uint64(hi-lo) > need {
		// Enough headroom between the neighbors: spread the new labels
		// evenly through the gap.
		step := (hi - lo) / uint32(need+1)
		cur := lo
		next := func() uint32 {
			cur += step
			return cur
		}
		// Fragment nodes carry no oldIn, so no moves can be recorded here.
		if err := tx.emitForest(forest, parent.In, next, nil); err != nil {
			return err
		}
		tx.mutated = true
		return nil
	}
	return tx.relabelInsert(parent, beforeIn, forest, need)
}

// relabelInsert handles the no-headroom case: find the nearest enclosing
// subtree wide enough to hold its current nodes plus the new forest,
// rebuild it with evenly spread labels, and splice the forest in. At the
// root the label space itself can grow.
func (tx *Tx) relabelInsert(parent xasr.Tuple, beforeIn uint32, forest []*fnode, need uint64) error {
	anc := parent
	for {
		inside, err := tx.countInside(anc)
		if err != nil {
			return err
		}
		events := uint64(2*inside) + need
		if uint64(anc.Out-anc.In) > events {
			return tx.relabel(anc, parent.In, beforeIn, forest, events, 0)
		}
		if anc.Type == xasr.TypeRoot {
			// Grow the root's label space: keep the shred stride if it
			// fits, otherwise the widest stride that does.
			stride := uint64(tx.s.opts.labelStride())
			limit := uint64(math.MaxUint32-1) - uint64(anc.In)
			if (events+1)*stride > limit {
				stride = limit / (events + 1)
			}
			if stride == 0 {
				return errors.New("store: label space exhausted")
			}
			newOut := anc.In + uint32((events+1)*stride)
			return tx.relabel(anc, parent.In, beforeIn, forest, events, newOut)
		}
		p, ok, err := tx.s.Lookup(anc.ParentIn)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("store: dangling parent_in=%d", anc.ParentIn)
		}
		anc = p
	}
}

// relabel rebuilds the interior of anc with events evenly spread labels,
// splicing the forest in as children of the node labeled parentIn before
// the child labeled beforeIn. newRootOut, when non-zero, grows the root's
// out label (root escalation).
func (tx *Tx) relabel(anc xasr.Tuple, parentIn, beforeIn uint32, forest []*fnode, events uint64, newRootOut uint32) error {
	// Lift the interior into fnodes, keeping the old tuples for deletion.
	var old []xasr.Tuple
	top := &fnode{oldIn: anc.In}
	byIn := map[uint32]*fnode{anc.In: top}
	stack := []*fnode{top}
	outs := []uint32{anc.Out}
	err := tx.s.ScanDescendants(anc.In, anc.Out, func(t xasr.Tuple) bool {
		old = append(old, t)
		for len(stack) > 1 && outs[len(outs)-1] < t.In {
			stack = stack[:len(stack)-1]
			outs = outs[:len(outs)-1]
		}
		n := &fnode{typ: t.Type, value: t.Value, oldIn: t.In}
		byIn[t.In] = n
		p := stack[len(stack)-1]
		p.kids = append(p.kids, n)
		if t.Type == xasr.TypeElem {
			stack = append(stack, n)
			outs = append(outs, t.Out)
		}
		return true
	})
	if err != nil {
		return err
	}

	// Splice the new forest under its parent.
	host := byIn[parentIn]
	if host == nil {
		return fmt.Errorf("store: relabel lost parent in=%d", parentIn)
	}
	at := len(host.kids)
	if beforeIn != 0 {
		for i, k := range host.kids {
			if k.oldIn == beforeIn {
				at = i
				break
			}
		}
	}
	host.kids = append(host.kids[:at], append(append([]*fnode{}, forest...), host.kids[at:]...)...)

	// Remove every old interior tuple from all trees, then re-emit the
	// whole interior with fresh labels.
	for _, t := range old {
		if err := tx.deleteNode(t); err != nil {
			return err
		}
	}
	var step uint32
	if newRootOut != 0 {
		step = (newRootOut - anc.In) / uint32(events+1)
	} else {
		step = (anc.Out - anc.In) / uint32(events+1)
	}
	cur := anc.In
	next := func() uint32 {
		cur += step
		return cur
	}
	delta := map[uint32]uint32{}
	if err := tx.emitForest(top.kids, anc.In, next, delta); err != nil {
		return err
	}
	tx.composeMoves(delta)
	if newRootOut != 0 {
		// The root's own tuple changes shape: its out label grows.
		root := xasr.Tuple{In: anc.In, Out: newRootOut, ParentIn: 0, Type: xasr.TypeRoot}
		if err := tx.insertNode(root); err != nil {
			return err
		}
		if newRootOut > tx.maxIn {
			tx.maxIn = newRootOut
		}
	}
	tx.mutated = true
	return nil
}

// --- snapshot helpers ---

func cloneStats(st *xasr.Stats) *xasr.Stats {
	cp := *st
	cp.LabelCount = cloneI64(st.LabelCount)
	cp.LabelSubtreeSum = cloneI64(st.LabelSubtreeSum)
	cp.LabelDistinctTexts = cloneI64(st.LabelDistinctTexts)
	return &cp
}

func cloneI64(m map[string]int64) map[string]int64 {
	cp := make(map[string]int64, len(m))
	for k, v := range m {
		cp[k] = v
	}
	return cp
}
