package btree

import (
	"bytes"
	"fmt"

	"xqdb/internal/pager"
)

// bulkFillFraction leaves headroom in bulk-loaded pages so later inserts
// do not immediately split every page.
const bulkFillFraction = 0.90

// BulkLoad builds a tree from a strictly key-sorted stream, packing leaves
// left to right and constructing the internal levels bottom-up. next must
// return ok=false at end of stream; returned slices are copied before next
// is called again. BulkLoad is how documents are shredded into the
// clustered primary tree: the XASR tuples arrive sorted by "in".
func BulkLoad(pg *pager.Pager, next func() (key, value []byte, ok bool, err error)) (*Tree, error) {
	t := &Tree{pg: pg}
	fillTarget := int(float64(pg.UsableSize()-hdrSize) * bulkFillFraction)

	type entry struct {
		firstKey []byte
		id       pager.PageID
	}
	var leaves []entry

	cur, err := pg.Allocate()
	if err != nil {
		return nil, err
	}
	initNode(cur.Data(), typeLeaf)
	curUsed := 0
	curCount := 0
	var curFirst []byte
	var prevKey, cell []byte // reused for every cell
	havePrev := false

	finishLeaf := func() {
		cur.MarkDirty()
		leaves = append(leaves, entry{firstKey: curFirst, id: cur.ID})
	}

	for {
		key, val, ok, err := next()
		if err != nil {
			cur.Unpin()
			return nil, err
		}
		if !ok {
			break
		}
		if havePrev && bytes.Compare(prevKey, key) >= 0 {
			cur.Unpin()
			return nil, fmt.Errorf("btree: bulk load keys out of order (%x then %x)", prevKey, key)
		}
		prevKey = append(prevKey[:0], key...)
		havePrev = true

		size := leafCellSize(key, val)
		if err := checkCellSize(pg.UsableSize(), size); err != nil {
			cur.Unpin()
			return nil, err
		}
		if curCount > 0 && curUsed+size+2*curCount+2 > fillTarget {
			// Start a new leaf and chain it.
			nxt, err := pg.Allocate()
			if err != nil {
				cur.Unpin()
				return nil, err
			}
			initNode(nxt.Data(), typeLeaf)
			setLink(cur.Data(), nxt.ID)
			finishLeaf()
			cur.Unpin()
			cur = nxt
			curUsed, curCount, curFirst = 0, 0, nil
		}
		if curCount == 0 {
			curFirst = append([]byte(nil), key...)
		}
		cell = encodeLeafCell(cell[:0], key, val)
		if !insertCellAt(cur.Data(), curCount, cell) {
			cur.Unpin()
			return nil, fmt.Errorf("btree: bulk load cell does not fit")
		}
		curUsed += size
		curCount++
	}
	finishLeaf()
	cur.Unpin()

	// Build internal levels until a single node remains.
	level := leaves
	for len(level) > 1 {
		var parents []entry
		i := 0
		for i < len(level) {
			node, err := pg.Allocate()
			if err != nil {
				return nil, err
			}
			d := node.Data()
			initNode(d, typeInternal)
			setLink(d, level[i].id)
			first := level[i].firstKey
			used := 0
			count := 0
			i++
			for i < len(level) {
				size := internalCellSize(level[i].firstKey)
				if count > 0 && used+size+2*count+2 > fillTarget {
					break
				}
				cell = encodeInternalCell(cell[:0], level[i].firstKey, level[i].id)
				if !insertCellAt(d, count, cell) {
					break
				}
				used += size
				count++
				i++
			}
			node.MarkDirty()
			parents = append(parents, entry{firstKey: first, id: node.ID})
			node.Unpin()
		}
		level = parents
	}
	t.setRoot(level[0].id)
	return t, nil
}
