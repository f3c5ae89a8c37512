package btree

import (
	"bytes"
	"fmt"
	"sort"

	"xqdb/internal/pager"
)

// Tree is a B+-tree rooted at a page of the underlying pager. Keys are
// ordered by bytes.Compare. A Tree is safe for concurrent readers as long
// as no writer is active (the load-then-query discipline of the paper).
type Tree struct {
	pg   *pager.Pager
	root pager.PageID
	// onRootChange, if set, is called whenever a root split or bulk load
	// moves the root page, so the owner can persist the new root id.
	onRootChange func(pager.PageID)
}

// Create allocates an empty tree (a single empty leaf) and returns it.
func Create(pg *pager.Pager) (*Tree, error) {
	p, err := pg.Allocate()
	if err != nil {
		return nil, err
	}
	initNode(p.Data(), typeLeaf)
	p.MarkDirty()
	id := p.ID
	p.Unpin()
	return &Tree{pg: pg, root: id}, nil
}

// Open returns a tree rooted at a previously persisted root page.
func Open(pg *pager.Pager, root pager.PageID) *Tree {
	return &Tree{pg: pg, root: root}
}

// Root returns the current root page id (persist it to reopen the tree).
func (t *Tree) Root() pager.PageID { return t.root }

// OnRootChange registers a callback invoked when the root page id changes.
func (t *Tree) OnRootChange(fn func(pager.PageID)) { t.onRootChange = fn }

func (t *Tree) setRoot(id pager.PageID) {
	t.root = id
	if t.onRootChange != nil {
		t.onRootChange(id)
	}
}

// Height returns the number of levels in the tree (1 = a single leaf).
func (t *Tree) Height() (int, error) {
	h := 1
	id := t.root
	for {
		p, err := t.pg.Read(id)
		if err != nil {
			return 0, err
		}
		d := p.Data()
		if nodeType(d) == typeLeaf {
			p.Unpin()
			return h, nil
		}
		id = link(d) // leftmost child
		p.Unpin()
		h++
	}
}

// findInLeaf returns the slot index of the first key >= key. It is a
// hand-rolled binary search over the slot array: the closure-free form
// keeps the per-node cost of scans and seeks minimal.
func findInLeaf(d []byte, key []byte) int {
	lo, hi := 0, nkeys(d)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		k, _ := leafCell(d, mid)
		if bytes.Compare(k, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childFor returns the index and page id of the child to descend into for
// key. Index -1 denotes the leftmost child. Binary search for the first
// separator > key; the child to follow sits one slot before it.
func childFor(d []byte, key []byte) (int, pager.PageID) {
	lo, hi := 0, nkeys(d)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		k, _ := internalCell(d, mid)
		if bytes.Compare(k, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return -1, link(d)
	}
	_, child := internalCell(d, lo-1)
	return lo - 1, child
}

// Get returns the value stored under key. The returned slice is a copy.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	p, i, err := t.seekLeaf(key)
	if err != nil {
		return nil, false, err
	}
	defer p.Unpin()
	d := p.Data()
	if i < nkeys(d) {
		if k, v := leafCell(d, i); bytes.Equal(k, key) {
			return append([]byte(nil), v...), true, nil
		}
	}
	return nil, false, nil
}

// pathEntry records one internal node on the root-to-leaf descent.
type pathEntry struct {
	page *pager.Page
}

// Insert stores value under key, replacing any existing value.
func (t *Tree) Insert(key, value []byte) error {
	if err := checkCellSize(t.pg.UsableSize(), leafCellSize(key, value)); err != nil {
		return err
	}
	// Descend, keeping the path pinned for split propagation.
	var path []pathEntry
	defer func() {
		for _, e := range path {
			e.page.Unpin()
		}
	}()
	id := t.root
	var leaf *pager.Page
	for {
		p, err := t.pg.Read(id)
		if err != nil {
			return err
		}
		d := p.Data()
		if nodeType(d) == typeLeaf {
			leaf = p
			break
		}
		_, next := childFor(d, key)
		path = append(path, pathEntry{page: p})
		id = next
	}
	defer leaf.Unpin()

	d := leaf.Data()
	i := findInLeaf(d, key)
	if i < nkeys(d) {
		k, _ := leafCell(d, i)
		if bytes.Equal(k, key) {
			removeCellAt(d, i)
		}
	}
	cell := encodeLeafCell(nil, key, value)
	if insertCellAt(d, i, cell) {
		leaf.MarkDirty()
		return nil
	}
	// Leaf split.
	sep, rightID, err := t.splitLeaf(leaf, i, cell)
	if err != nil {
		return err
	}
	return t.insertIntoParents(path, sep, rightID)
}

// splitLeaf splits the full leaf, inserting the new cell at logical
// position i. It returns the separator key (first key of the right page)
// and the right page id.
func (t *Tree) splitLeaf(leaf *pager.Page, i int, newCell []byte) ([]byte, pager.PageID, error) {
	d := leaf.Data()
	n := nkeys(d)
	// Gather all cells in order, with the new cell at position i.
	cells := make([][]byte, 0, n+1)
	for j := 0; j < n; j++ {
		off := slot(d, j)
		k, v := leafCell(d, j)
		size := leafCellSize(k, v)
		cells = append(cells, append([]byte(nil), d[off:off+size]...))
	}
	cells = append(cells[:i], append([][]byte{newCell}, cells[i:]...)...)

	total := 0
	for _, c := range cells {
		total += len(c)
	}
	// Split point: first prefix exceeding half the bytes.
	half := total / 2
	acc, split := 0, 0
	for j, c := range cells {
		acc += len(c)
		if acc > half {
			split = j + 1
			break
		}
	}
	if split == 0 {
		split = 1
	}
	if split >= len(cells) {
		split = len(cells) - 1
	}

	right, err := t.pg.Allocate()
	if err != nil {
		return nil, 0, err
	}
	defer right.Unpin()
	rd := right.Data()
	initNode(rd, typeLeaf)
	setLink(rd, link(d))
	for j, c := range cells[split:] {
		if !insertCellAt(rd, j, c) {
			return nil, 0, fmt.Errorf("btree: split overflow (right)")
		}
	}
	// Rebuild the left page in place.
	initNode(d, typeLeaf)
	setLink(d, right.ID)
	for j, c := range cells[:split] {
		if !insertCellAt(d, j, c) {
			return nil, 0, fmt.Errorf("btree: split overflow (left)")
		}
	}
	leaf.MarkDirty()
	right.MarkDirty()
	sepKey, _ := leafCell(rd, 0)
	return append([]byte(nil), sepKey...), right.ID, nil
}

// insertIntoParents propagates a split (sep, right) up the pinned path.
func (t *Tree) insertIntoParents(path []pathEntry, sep []byte, right pager.PageID) error {
	for lvl := len(path) - 1; lvl >= 0; lvl-- {
		p := path[lvl].page
		d := p.Data()
		// Position: first separator > sep.
		n := nkeys(d)
		pos := sort.Search(n, func(i int) bool {
			k, _ := internalCell(d, i)
			return bytes.Compare(k, sep) > 0
		})
		cell := encodeInternalCell(nil, sep, right)
		if insertCellAt(d, pos, cell) {
			p.MarkDirty()
			return nil
		}
		var err error
		sep, right, err = t.splitInternal(p, pos, sep, right)
		if err != nil {
			return err
		}
	}
	// Root split: new root with old root as leftmost child.
	newRoot, err := t.pg.Allocate()
	if err != nil {
		return err
	}
	defer newRoot.Unpin()
	d := newRoot.Data()
	initNode(d, typeInternal)
	setLink(d, t.root)
	if !insertCellAt(d, 0, encodeInternalCell(nil, sep, right)) {
		return fmt.Errorf("btree: root cell too large")
	}
	newRoot.MarkDirty()
	t.setRoot(newRoot.ID)
	return nil
}

// splitInternal splits a full internal node that needs (sep, right)
// inserted at slot position pos. It returns the key to promote and the new
// right node id.
func (t *Tree) splitInternal(p *pager.Page, pos int, sep []byte, right pager.PageID) ([]byte, pager.PageID, error) {
	d := p.Data()
	n := nkeys(d)
	type icell struct {
		key   []byte
		child pager.PageID
	}
	cells := make([]icell, 0, n+1)
	for j := 0; j < n; j++ {
		k, c := internalCell(d, j)
		cells = append(cells, icell{key: append([]byte(nil), k...), child: c})
	}
	cells = append(cells[:pos], append([]icell{{key: append([]byte(nil), sep...), child: right}}, cells[pos:]...)...)

	mid := len(cells) / 2
	promote := cells[mid]
	leftCells := cells[:mid]
	rightCells := cells[mid+1:]

	rp, err := t.pg.Allocate()
	if err != nil {
		return nil, 0, err
	}
	defer rp.Unpin()
	rd := rp.Data()
	initNode(rd, typeInternal)
	setLink(rd, promote.child) // promoted key's child becomes right's leftmost
	for j, c := range rightCells {
		if !insertCellAt(rd, j, encodeInternalCell(nil, c.key, c.child)) {
			return nil, 0, fmt.Errorf("btree: internal split overflow (right)")
		}
	}
	c0 := link(d)
	initNode(d, typeInternal)
	setLink(d, c0)
	for j, c := range leftCells {
		if !insertCellAt(d, j, encodeInternalCell(nil, c.key, c.child)) {
			return nil, 0, fmt.Errorf("btree: internal split overflow (left)")
		}
	}
	p.MarkDirty()
	rp.MarkDirty()
	return promote.key, rp.ID, nil
}

// Delete removes key from the tree. It reports whether the key was found.
// Leaves are not rebalanced (see package comment).
func (t *Tree) Delete(key []byte) (bool, error) {
	p, i, err := t.seekLeaf(key)
	if err != nil {
		return false, err
	}
	defer p.Unpin()
	d := p.Data()
	if i < nkeys(d) {
		if k, _ := leafCell(d, i); bytes.Equal(k, key) {
			removeCellAt(d, i)
			p.MarkDirty()
			return true, nil
		}
	}
	return false, nil
}
