// Package xasr implements the eXtended Access Support Relation encoding of
// XML documents (Fiebig/Moerkotte, used as the storage schema in milestone
// 2 of the paper):
//
//	Node(in, out, parent_in, type, value)
//
// where in/out are the preorder tag-counting labels of Figure 2, parent_in
// links to the parent tuple, type is root/element/text, and value is the
// element label, the text content, or NULL for the root. in is the primary
// key; the document can be reconstructed from the relation, and child and
// descendant structural joins become relational conditions:
//
//	child:      b.parent_in = a.in
//	descendant: a.in < b.in AND b.out < a.out
//
// The package provides the tuple type, order-preserving key codecs for the
// primary tree and both secondary indexes, and a streaming shredder.
package xasr

import (
	"encoding/binary"
	"fmt"
	"io"

	"xqdb/internal/xmltok"
)

// NodeType is the XASR "type" column.
type NodeType uint8

// Node types. The numeric values are part of the on-disk format.
const (
	TypeRoot NodeType = 1
	TypeElem NodeType = 2
	TypeText NodeType = 3
)

// String returns the XASR spelling of the type.
func (t NodeType) String() string {
	switch t {
	case TypeRoot:
		return "root"
	case TypeElem:
		return "elem"
	case TypeText:
		return "text"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Tuple is one row of the XASR Node relation.
type Tuple struct {
	In       uint32
	Out      uint32
	ParentIn uint32 // 0 for the root (it has no parent)
	Type     NodeType
	Value    string // label, text content, or "" (NULL) for the root
}

// String formats the tuple like Example 1 of the paper:
// (2, 17, 1, element, journal).
func (t Tuple) String() string {
	val := t.Value
	if t.Type == TypeRoot {
		val = "NULL"
	}
	return fmt.Sprintf("(%d, %d, %d, %s, %s)", t.In, t.Out, t.ParentIn, t.Type, val)
}

// IsDescendantOf reports whether t lies strictly below anc, using the
// interval containment property of in/out labels.
func (t Tuple) IsDescendantOf(anc Tuple) bool {
	return anc.In < t.In && t.Out < anc.Out
}

// IsChildOf reports whether t is a child of p.
func (t Tuple) IsChildOf(p Tuple) bool { return t.ParentIn == p.In }

// --- primary tree codec: key = be32(in), value = out,parent,type,value ---

// PrimaryKey encodes the clustered primary key for an in label.
func PrimaryKey(in uint32) []byte {
	var k [4]byte
	binary.BigEndian.PutUint32(k[:], in)
	return k[:]
}

// PrimaryKeyInto writes the primary key into dst[:4].
func PrimaryKeyInto(dst []byte, in uint32) {
	binary.BigEndian.PutUint32(dst, in)
}

// InFromPrimaryKey decodes an in label from a primary key.
func InFromPrimaryKey(key []byte) uint32 { return binary.BigEndian.Uint32(key) }

// EncodePrimaryValue encodes the non-key columns of a tuple.
func EncodePrimaryValue(t Tuple) []byte {
	v := make([]byte, 9+len(t.Value))
	binary.BigEndian.PutUint32(v[0:], t.Out)
	binary.BigEndian.PutUint32(v[4:], t.ParentIn)
	v[8] = byte(t.Type)
	copy(v[9:], t.Value)
	return v
}

// DecodePrimary reconstructs a tuple from a primary key/value pair.
func DecodePrimary(key, val []byte) (Tuple, error) {
	t, raw, err := DecodePrimaryRaw(key, val)
	if err != nil {
		return Tuple{}, err
	}
	t.Value = string(raw)
	return t, nil
}

// DecodePrimaryRaw decodes the fixed columns of a primary record, leaving
// Value unset and returning the raw value-column bytes instead. Batch
// decoders use this to defer (and share) the string conversion.
func DecodePrimaryRaw(key, val []byte) (Tuple, []byte, error) {
	if len(key) != 4 || len(val) < 9 {
		return Tuple{}, nil, fmt.Errorf("xasr: corrupt primary record (key %d bytes, value %d bytes)", len(key), len(val))
	}
	return Tuple{
		In:       binary.BigEndian.Uint32(key),
		Out:      binary.BigEndian.Uint32(val[0:]),
		ParentIn: binary.BigEndian.Uint32(val[4:]),
		Type:     NodeType(val[8]),
	}, val[9:], nil
}

// --- label index codec: key = type, uvarint(len(value)), value, be32(in);
//     payload = be32(out), be32(parent_in). Entries with equal (type,value)
//     are adjacent and sorted by in, so an exact-prefix scan yields the
//     nodes with that label in document order, index-only. ---

// LabelPrefix returns the key prefix selecting all entries for (typ, value).
func LabelPrefix(typ NodeType, value string) []byte {
	k := make([]byte, 0, 1+binary.MaxVarintLen32+len(value))
	k = append(k, byte(typ))
	var tmp [binary.MaxVarintLen32]byte
	n := binary.PutUvarint(tmp[:], uint64(len(value)))
	k = append(k, tmp[:n]...)
	k = append(k, value...)
	return k
}

// LabelKey returns the full label-index key for a tuple.
func LabelKey(typ NodeType, value string, in uint32) []byte {
	k := LabelPrefix(typ, value)
	var ib [4]byte
	binary.BigEndian.PutUint32(ib[:], in)
	return append(k, ib[:]...)
}

// EncodeLabelValue encodes the label-index payload.
func EncodeLabelValue(out, parentIn uint32) []byte {
	v := make([]byte, 8)
	binary.BigEndian.PutUint32(v[0:], out)
	binary.BigEndian.PutUint32(v[4:], parentIn)
	return v
}

// DecodeLabelEntry decodes (in, out, parentIn) from a label-index entry.
// The type and value are implied by the scanned prefix.
func DecodeLabelEntry(key, val []byte) (in, out, parentIn uint32, err error) {
	if len(key) < 4 || len(val) < 8 {
		return 0, 0, 0, fmt.Errorf("xasr: corrupt label index entry")
	}
	in = binary.BigEndian.Uint32(key[len(key)-4:])
	out = binary.BigEndian.Uint32(val[0:])
	parentIn = binary.BigEndian.Uint32(val[4:])
	return in, out, parentIn, nil
}

// --- parent index codec: key = be32(parent_in), be32(in);
//     payload = be32(out), type, value. A prefix scan on parent_in yields
//     the children of a node in document order without touching the
//     primary tree. ---

// ParentPrefix returns the key prefix selecting the children of parentIn.
func ParentPrefix(parentIn uint32) []byte {
	var k [4]byte
	binary.BigEndian.PutUint32(k[:], parentIn)
	return k[:]
}

// ParentKey returns the full parent-index key.
func ParentKey(parentIn, in uint32) []byte {
	k := make([]byte, 8)
	binary.BigEndian.PutUint32(k[0:], parentIn)
	binary.BigEndian.PutUint32(k[4:], in)
	return k
}

// EncodeParentValue encodes the parent-index payload.
func EncodeParentValue(out uint32, typ NodeType, value string) []byte {
	v := make([]byte, 5+len(value))
	binary.BigEndian.PutUint32(v[0:], out)
	v[4] = byte(typ)
	copy(v[5:], value)
	return v
}

// DecodeParentEntry decodes a full tuple from a parent-index entry.
func DecodeParentEntry(key, val []byte) (Tuple, error) {
	t, raw, err := DecodeParentEntryRaw(key, val)
	if err != nil {
		return Tuple{}, err
	}
	t.Value = string(raw)
	return t, nil
}

// DecodeParentEntryRaw decodes the fixed columns of a parent-index entry,
// leaving Value unset and returning the raw value bytes instead (see
// DecodePrimaryRaw).
func DecodeParentEntryRaw(key, val []byte) (Tuple, []byte, error) {
	if len(key) != 8 || len(val) < 5 {
		return Tuple{}, nil, fmt.Errorf("xasr: corrupt parent index entry")
	}
	return Tuple{
		ParentIn: binary.BigEndian.Uint32(key[0:]),
		In:       binary.BigEndian.Uint32(key[4:]),
		Out:      binary.BigEndian.Uint32(val[0:]),
		Type:     NodeType(val[4]),
	}, val[5:], nil
}

// --- flat record codec for spill files (shredding, intermediates) ---

// AppendTuple encodes t onto dst in a self-delimiting flat format.
func AppendTuple(dst []byte, t Tuple) []byte {
	var b [13]byte
	binary.BigEndian.PutUint32(b[0:], t.In)
	binary.BigEndian.PutUint32(b[4:], t.Out)
	binary.BigEndian.PutUint32(b[8:], t.ParentIn)
	b[12] = byte(t.Type)
	dst = append(dst, b[:]...)
	return append(dst, t.Value...)
}

// DecodeTuple decodes a record produced by AppendTuple.
func DecodeTuple(rec []byte) (Tuple, error) {
	if len(rec) < 13 {
		return Tuple{}, fmt.Errorf("xasr: corrupt tuple record (%d bytes)", len(rec))
	}
	return Tuple{
		In:       binary.BigEndian.Uint32(rec[0:]),
		Out:      binary.BigEndian.Uint32(rec[4:]),
		ParentIn: binary.BigEndian.Uint32(rec[8:]),
		Type:     NodeType(rec[12]),
		Value:    string(rec[13:]),
	}, nil
}

// Stats are the document statistics milestone 4 keeps "in separate external
// storage structures": per-label cardinalities and the average node depth,
// the paper's gross measure for ancestor-descendant join selectivity.
type Stats struct {
	Nodes      int64            // total tuples including the root
	Elems      int64            // element nodes
	Texts      int64            // text nodes
	MaxIn      uint32           // largest assigned label counter value
	LabelCount map[string]int64 // element label -> cardinality
	// LabelSubtreeSum is, per element label, the total number of proper
	// descendant nodes summed over all elements with that label — exact
	// from the interval encoding ((out-in-1)/2 per element). It gives the
	// optimizer precise ancestor/descendant pair cardinalities:
	// pairs(label//D) ≈ LabelSubtreeSum[label] · |D| / Nodes.
	LabelSubtreeSum map[string]int64
	// LabelDistinctTexts is, per element label, the number of distinct
	// text values occurring as direct children of elements with that
	// label. It calibrates text-value equi-join selectivity (author =
	// author, year = year): the expected match fraction is
	// 1/distinct(label), where the near-unique 1/texts guess
	// underestimates dense domains by orders of magnitude.
	LabelDistinctTexts map[string]int64
	SumDepth           int64 // sum of node depths (root = 0)
	MaxDepth           int32
	MaxFanout          int32
}

// AvgDepth returns the average node depth.
func (s *Stats) AvgDepth() float64 {
	if s.Nodes == 0 {
		return 0
	}
	return float64(s.SumDepth) / float64(s.Nodes)
}

// Card returns the number of element nodes with the given label.
func (s *Stats) Card(label string) int64 { return s.LabelCount[label] }

// SubtreeSum returns the total proper-descendant count over all elements
// with the given label. ok reports whether per-label sums were collected
// at all (they are absent on stores written before the statistic
// existed); a label that simply does not occur yields (0, true) — zero
// pairs, exactly.
func (s *Stats) SubtreeSum(label string) (int64, bool) {
	if s.LabelSubtreeSum == nil {
		return 0, false
	}
	return s.LabelSubtreeSum[label], true
}

// fnv1a is the 64-bit FNV-1a string hash (allocation-free, unlike
// hash/fnv's Hash64 wrapper), used to deduplicate text values during
// statistics collection without retaining the values.
func fnv1a(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// DistinctTexts returns the number of distinct text values among the
// direct text children of elements with the given label. ok reports
// whether the statistic was collected at all (it is absent on stores
// written before it existed); a label without text children yields
// (0, true) — no possible value-join matches.
func (s *Stats) DistinctTexts(label string) (int64, bool) {
	if s.LabelDistinctTexts == nil {
		return 0, false
	}
	return s.LabelDistinctTexts[label], true
}

// TextHash hashes a text value for the distinct-text statistics; the
// update path uses it to maintain the same multisets incrementally.
func TextHash(s string) uint64 { return fnv1a(s) }

// TextHashes is, per element label, the multiset of text-value hashes
// occurring as direct children of elements with that label. The store
// keeps it in memory so each committed update unit can fold in its signed
// delta and keep LabelDistinctTexts exact under deletions; stats.bin
// carries a copy written at load and at a clean close. Inner maps exist
// only while non-empty, and a label has an entry only while it has text
// children — matching what a fresh shred produces, so recovered and
// re-shredded stats compare equal.
type TextHashes map[string]map[uint64]int64

// Add records one text child under label.
func (th TextHashes) Add(label, text string) {
	m := th[label]
	if m == nil {
		m = make(map[uint64]int64)
		th[label] = m
	}
	m[fnv1a(text)]++
}

// Distinct rebuilds the LabelDistinctTexts statistic from the multisets.
func (th TextHashes) Distinct() map[string]int64 {
	out := make(map[string]int64, len(th))
	for label, m := range th {
		out[label] = int64(len(m))
	}
	return out
}

// Shred streams tokens from tz, assigns dense (stride-1) in/out labels,
// and calls emit for every completed tuple. See ShredStride.
func Shred(tz *xmltok.Tokenizer, emit func(Tuple) error) (*Stats, error) {
	stats, _, err := ShredStride(tz, 1, emit)
	return stats, err
}

// ShredStride streams tokens from tz, assigns in/out labels spaced stride
// apart (gap labeling: the unused labels between consecutive assignments
// are headroom for later subtree insertions, so small edits don't renumber
// the world), and calls emit for every completed tuple. Tuples are emitted
// as their nodes complete (postorder for elements); callers that need
// in-order must sort, which is what store.Load does via the external
// sorter. Returns the collected statistics and the per-label text-hash
// multisets behind LabelDistinctTexts.
func ShredStride(tz *xmltok.Tokenizer, stride uint32, emit func(Tuple) error) (*Stats, TextHashes, error) {
	if stride == 0 {
		stride = 1
	}
	stats := &Stats{LabelCount: make(map[string]int64), LabelSubtreeSum: make(map[string]int64)}
	// Distinct text values per parent label, deduplicated during the
	// single pass as 64-bit FNV-1a hashes instead of the values
	// themselves — a mostly-unique corpus (author names, titles) would
	// otherwise be held in memory in full for the whole load; collisions
	// only shave a negligible sliver off an estimator-only cardinality.
	texts := TextHashes{}
	type open struct {
		in       uint32
		parentIn uint32
		label    string
		fanout   int32
		seenAt   int64 // stats.Nodes when the element opened
	}
	counter := uint32(1)
	next := func() uint32 {
		v := counter
		counter += stride
		return v
	}
	// The root (document) node is open from the start.
	stack := []open{{in: next(), parentIn: 0}}
	stats.Nodes++
	depth := func() int32 { return int32(len(stack) - 1) }

	for {
		tok, err := tz.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		switch tok.Kind {
		case xmltok.StartElement:
			stack[len(stack)-1].fanout++
			stats.Nodes++
			stack = append(stack, open{
				in:       next(),
				parentIn: stack[len(stack)-1].in,
				label:    tok.Name,
				seenAt:   stats.Nodes,
			})
			stats.Elems++
			stats.LabelCount[tok.Name]++
			d := depth()
			stats.SumDepth += int64(d)
			if d > stats.MaxDepth {
				stats.MaxDepth = d
			}
		case xmltok.EndElement:
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if top.fanout > stats.MaxFanout {
				stats.MaxFanout = top.fanout
			}
			out := next()
			// Every node completed since the element opened is a proper
			// descendant (stride-independent, unlike the dense-label
			// (out-in-1)/2 identity).
			stats.LabelSubtreeSum[top.label] += stats.Nodes - top.seenAt
			if err := emit(Tuple{In: top.in, Out: out, ParentIn: top.parentIn, Type: TypeElem, Value: top.label}); err != nil {
				return nil, nil, err
			}
		case xmltok.Text:
			stack[len(stack)-1].fanout++
			if parentLabel := stack[len(stack)-1].label; parentLabel != "" {
				texts.Add(parentLabel, tok.Text)
			}
			in := next()
			out := next()
			stats.Nodes++
			stats.Texts++
			d := int64(len(stack)) // text node is one below the open element
			stats.SumDepth += d
			if int32(d) > stats.MaxDepth {
				stats.MaxDepth = int32(d)
			}
			if err := emit(Tuple{In: in, Out: out, ParentIn: stack[len(stack)-1].in, Type: TypeText, Value: tok.Text}); err != nil {
				return nil, nil, err
			}
		}
	}
	// Close the root.
	rootOpen := stack[0]
	if rootOpen.fanout > stats.MaxFanout {
		stats.MaxFanout = rootOpen.fanout
	}
	out := next()
	if err := emit(Tuple{In: rootOpen.in, Out: out, ParentIn: 0, Type: TypeRoot}); err != nil {
		return nil, nil, err
	}
	stats.MaxIn = out
	stats.LabelDistinctTexts = texts.Distinct()
	return stats, texts, nil
}
