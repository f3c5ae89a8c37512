// Package btree implements a disk-resident B+-tree with variable-length
// keys and values on top of the pager, the second half of this project's
// Berkeley DB substitution.
//
// Features used by the XML-DBMS: ordered insert, sorted bulk-loading
// (used when shredding documents, where tuples arrive sorted by their
// "in" label) and one read path. Every read descends from the root once
// (seekLeaf) and then walks the linked leaf level a pinned leaf at a
// time: Get for point lookups, BatchCursor (SeekBatchRange, NextLeaf,
// Reseek) for key ranges, and LeafWalk for runs of short ordered visits.
// Deletion removes cells from leaves without rebalancing; the paper's
// project keeps updates "as simple as possible", and an underfull leaf is
// still correct, merely wasteful.
package btree

import (
	"encoding/binary"
	"fmt"

	"xqdb/internal/pager"
)

// Node page layout (both kinds are slotted pages):
//
//	[0]     type: 1 = leaf, 2 = internal
//	[1:3]   nkeys  (uint16)
//	[3:5]   upper  (uint16): offset where the cell content area begins;
//	        cells are written downward from the end of the page
//	[5:9]   leaf: right-sibling PageID; internal: leftmost child PageID
//	[9:12]  reserved
//	[12:]   slot array: nkeys uint16 cell offsets in key order
//
// Leaf cell:     klen uvarint | vlen uvarint | key | value
// Internal cell: klen uvarint | key | child PageID (uint32)
const (
	typeLeaf     = 1
	typeInternal = 2

	offType  = 0
	offNKeys = 1
	offUpper = 3
	offLink  = 5
	hdrSize  = 12
)

func nodeType(d []byte) byte       { return d[offType] }
func setNodeType(d []byte, t byte) { d[offType] = t }

func nkeys(d []byte) int       { return int(binary.LittleEndian.Uint16(d[offNKeys:])) }
func setNKeys(d []byte, n int) { binary.LittleEndian.PutUint16(d[offNKeys:], uint16(n)) }

func upper(d []byte) int       { return int(binary.LittleEndian.Uint16(d[offUpper:])) }
func setUpper(d []byte, u int) { binary.LittleEndian.PutUint16(d[offUpper:], uint16(u)) }

func link(d []byte) pager.PageID {
	return pager.PageID(binary.LittleEndian.Uint32(d[offLink:]))
}
func setLink(d []byte, id pager.PageID) {
	binary.LittleEndian.PutUint32(d[offLink:], uint32(id))
}

func slot(d []byte, i int) int {
	return int(binary.LittleEndian.Uint16(d[hdrSize+2*i:]))
}
func setSlot(d []byte, i, off int) {
	binary.LittleEndian.PutUint16(d[hdrSize+2*i:], uint16(off))
}

// initNode formats d as an empty node of the given type.
func initNode(d []byte, typ byte) {
	for i := 0; i < hdrSize; i++ {
		d[i] = 0
	}
	setNodeType(d, typ)
	setNKeys(d, 0)
	setUpper(d, len(d))
	setLink(d, pager.NilPage)
}

// leafCell decodes the i-th cell of a leaf. Lengths below 128 (the
// overwhelmingly common case for page-sized cells) take the single-byte
// varint fast path.
func leafCell(d []byte, i int) (key, val []byte) {
	off := slot(d, i)
	klen, n1 := uint64(d[off]), 1
	if klen >= 0x80 {
		klen, n1 = binary.Uvarint(d[off:])
	}
	vlen, n2 := uint64(d[off+n1]), 1
	if vlen >= 0x80 {
		vlen, n2 = binary.Uvarint(d[off+n1:])
	}
	ks := off + n1 + n2
	return d[ks : ks+int(klen)], d[ks+int(klen) : ks+int(klen)+int(vlen)]
}

// leafCellSize returns the encoded size of a (key,value) leaf cell.
func leafCellSize(key, val []byte) int {
	return uvarintLen(uint64(len(key))) + uvarintLen(uint64(len(val))) + len(key) + len(val)
}

// internalCell decodes the i-th cell of an internal node, with the same
// single-byte varint fast path as leafCell.
func internalCell(d []byte, i int) (key []byte, child pager.PageID) {
	off := slot(d, i)
	klen, n1 := uint64(d[off]), 1
	if klen >= 0x80 {
		klen, n1 = binary.Uvarint(d[off:])
	}
	ks := off + n1
	key = d[ks : ks+int(klen)]
	child = pager.PageID(binary.LittleEndian.Uint32(d[ks+int(klen):]))
	return key, child
}

func internalCellSize(key []byte) int {
	return uvarintLen(uint64(len(key))) + len(key) + 4
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// freeSpace returns contiguous free bytes between the slot array and the
// cell area.
func freeSpace(d []byte) int {
	return upper(d) - (hdrSize + 2*nkeys(d))
}

// liveBytes returns the total size of live cells (excluding slots).
func liveBytes(d []byte) int {
	n := nkeys(d)
	total := 0
	if nodeType(d) == typeLeaf {
		for i := 0; i < n; i++ {
			k, v := leafCell(d, i)
			total += leafCellSize(k, v)
		}
	} else {
		for i := 0; i < n; i++ {
			k, _ := internalCell(d, i)
			total += internalCellSize(k)
		}
	}
	return total
}

// compact rewrites d so that all free space is contiguous.
func compact(d []byte) {
	n := nkeys(d)
	type cell struct{ off, size int }
	// Copy cells out, then rewrite from the end.
	tmp := make([]byte, 0, len(d)-upper(d))
	offsets := make([]int, n)
	for i := 0; i < n; i++ {
		off := slot(d, i)
		var size int
		if nodeType(d) == typeLeaf {
			klen, n1 := binary.Uvarint(d[off:])
			vlen, n2 := binary.Uvarint(d[off+n1:])
			size = n1 + n2 + int(klen) + int(vlen)
		} else {
			klen, n1 := binary.Uvarint(d[off:])
			size = n1 + int(klen) + 4
		}
		offsets[i] = len(tmp)
		tmp = append(tmp, d[off:off+size]...)
	}
	u := len(d) - len(tmp)
	copy(d[u:], tmp)
	for i := 0; i < n; i++ {
		setSlot(d, i, u+offsets[i])
	}
	setUpper(d, u)
}

// insertCellAt writes raw cell bytes and inserts its slot at position i,
// compacting first if needed. It returns false if the node must split.
func insertCellAt(d []byte, i int, cell []byte) bool {
	need := len(cell) + 2
	if freeSpace(d) < need {
		if liveBytes(d)+2*nkeys(d)+need+hdrSize > len(d) {
			return false
		}
		compact(d)
		if freeSpace(d) < need {
			return false
		}
	}
	n := nkeys(d)
	u := upper(d) - len(cell)
	copy(d[u:], cell)
	setUpper(d, u)
	// Shift slots right of i.
	copy(d[hdrSize+2*(i+1):hdrSize+2*(n+1)], d[hdrSize+2*i:hdrSize+2*n])
	setSlot(d, i, u)
	setNKeys(d, n+1)
	return true
}

// removeCellAt deletes slot i, leaving a hole in the cell area.
func removeCellAt(d []byte, i int) {
	n := nkeys(d)
	copy(d[hdrSize+2*i:hdrSize+2*(n-1)], d[hdrSize+2*(i+1):hdrSize+2*n])
	setNKeys(d, n-1)
}

// encodeLeafCell appends a leaf cell for (key, val) to dst.
func encodeLeafCell(dst []byte, key, val []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = binary.AppendUvarint(dst, uint64(len(val)))
	return append(append(dst, key...), val...)
}

// encodeInternalCell appends an internal cell for (key, child) to dst.
func encodeInternalCell(dst []byte, key []byte, child pager.PageID) []byte {
	dst = append(binary.AppendUvarint(dst, uint64(len(key))), key...)
	return binary.LittleEndian.AppendUint32(dst, uint32(child))
}

// maxCellSize is the largest cell that fits in an otherwise empty page.
func maxCellSize(pageSize int) int { return pageSize - hdrSize - 2 }

// CellFits reports whether a leaf cell with a klen-byte key and a
// vlen-byte value fits a page whose usable size is pageSize: the bound
// Insert and BulkLoad enforce.
func CellFits(pageSize, klen, vlen int) bool {
	return uvarintLen(uint64(klen))+uvarintLen(uint64(vlen))+klen+vlen <= maxCellSize(pageSize)
}

// checkCellSize validates that a cell fits in a page at all.
func checkCellSize(pageSize, cellSize int) error {
	if cellSize > maxCellSize(pageSize) {
		return fmt.Errorf("btree: cell of %d bytes exceeds page capacity %d", cellSize, maxCellSize(pageSize))
	}
	return nil
}
