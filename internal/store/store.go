// Package store is the secondary-storage engine of the XML-DBMS: it owns
// the page file, the clustered primary B+-tree on the XASR in label, the
// two secondary indexes (label and parent), and the persisted document
// statistics of milestone 4.
//
// Loading a document streams it through the XASR shredder into an external
// sort keyed on "in" (element tuples complete in postorder, so a sort is
// required for clustering) and bulk-loads all three trees. After loading,
// a Store is read-only and safe for concurrent readers; the paper's
// project explicitly excludes concurrent updates, logging and recovery.
//
// The choice of "in" as the clustered attribute is the one the paper calls
// "the natural choice" for the primary index; the label index additionally
// stores (out, parent_in) so index-only scans can feed structural joins
// without touching the primary tree — this is the paper's suggested
// improvement of carrying out-values alongside in-values.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"xqdb/internal/btree"
	"xqdb/internal/pager"
	"xqdb/internal/recfile"
	"xqdb/internal/wal"
	"xqdb/internal/xasr"
	"xqdb/internal/xmltok"
)

// RootIn is the in label of the document root node (always 1).
const RootIn uint32 = 1

// DefaultLabelStride is the gap between consecutive XASR labels assigned
// at shred time. Labels are ≡ 1 (mod stride), so each adjacent pair leaves
// stride-1 unused labels as headroom for later subtree insertions; a
// stride of 1 reproduces the dense labeling of the read-only milestones.
const DefaultLabelStride = 8

// DefaultCheckpointBytes is the WAL size past which a commit triggers a
// fuzzy checkpoint (flush + log truncation).
const DefaultCheckpointBytes = 1 << 20

// File names inside a store directory.
const (
	dataFileName  = "data.db"
	walFileName   = "wal.log"
	statsFileName = "stats.bin"
	tmpDirName    = "tmp"
)

// App-header layout inside the pager meta page.
const (
	hdrPrimaryRoot = 0  // uint32 PageID
	hdrLabelRoot   = 4  // uint32 PageID (0 = index absent)
	hdrParentRoot  = 8  // uint32 PageID (0 = index absent)
	hdrMaxIn       = 12 // uint32
	hdrLoaded      = 16 // byte, 1 after a successful Load
)

// ErrNotLoaded is returned when querying a store with no document.
var ErrNotLoaded = errors.New("store: no document loaded")

// Options configures Open.
type Options struct {
	// PageSize for a newly created page file (default pager.DefaultPageSize).
	PageSize int
	// CacheFrames bounds the buffer pool (default pager.DefaultCacheFrames).
	// CacheFrames*PageSize is the memory cap the efficiency testbed uses.
	CacheFrames int
	// SortBudget is the in-memory budget for the shredding sort in bytes.
	SortBudget int
	// NoLabelIndex disables the secondary (type,value,in) index.
	NoLabelIndex bool
	// NoParentIndex disables the secondary (parent_in,in) index.
	NoParentIndex bool
	// ReadOnly opens an existing store without write access.
	ReadOnly bool
	// IOHook, when set, is consulted before every page read and write
	// and every WAL append/flush (fault injection).
	IOHook pager.IOHook
	// LabelStride is the gap between labels assigned at shred time
	// (default DefaultLabelStride; 1 = dense labels, no insert headroom).
	LabelStride uint32
	// CheckpointBytes is the WAL size that triggers a checkpoint after a
	// commit (default DefaultCheckpointBytes).
	CheckpointBytes int64
}

func (o Options) labelStride() uint32 {
	if o.LabelStride == 0 {
		return DefaultLabelStride
	}
	return o.LabelStride
}

func (o Options) checkpointBytes() int64 {
	if o.CheckpointBytes == 0 {
		return DefaultCheckpointBytes
	}
	return o.CheckpointBytes
}

// Store is one stored document with its indexes and statistics.
type Store struct {
	dir  string
	opts Options

	pg         *pager.Pager
	wal        *wal.Log // nil when read-only
	primary    *btree.Tree
	labelIdx   *btree.Tree                // nil if absent
	parentIdx  *btree.Tree                // nil if absent
	stats      atomic.Pointer[xasr.Stats] // installed snapshots are immutable
	appliedSeq atomic.Uint64              // seq of the last committed update unit
	updBusy    atomic.Bool                // one Tx at a time
	maxIn      atomic.Uint32
	loaded     bool

	// textHashes backs LabelDistinctTexts. Writer-only: set at open and
	// Load, changed only by Commit folding in a durable unit's delta.
	textHashes xasr.TextHashes
	// statsSeq is the AppliedSeq stamp of the stats.bin on disk; Close
	// rewrites the file only when units committed since.
	statsSeq uint64

	// rw excludes updates from readers: queries and serialization hold
	// the read side for their whole run (see ReadLock), an update unit
	// holds the write side from Begin to Commit/Abort. Updates mutate
	// B+-tree pages in place, so this exclusion — not just the atomics
	// above — is what keeps concurrent readers correct.
	rw sync.RWMutex

	// Cursor pools: opened cursors and their decode buffers are recycled
	// through these, so probe-heavy plans (index nested-loops joins open a
	// cursor per outer row) do not allocate per probe.
	tcPool sync.Pool // *TupleCursor
	lcPool sync.Pool // *LabelRangeCursor
	ccPool sync.Pool // *ChildCursor
}

// Open opens or creates a store in dir. A read-write open replays any
// committed-but-unapplied WAL tail into the page file first (redo
// recovery); a read-only open refuses a store with replay pending. Either
// mode rebuilds the statistics if they predate the last committed update.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opts: opts}
	walPath := filepath.Join(dir, walFileName)

	if opts.ReadOnly {
		lastSeq, redo, err := wal.Scan(walPath)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if redo {
			return nil, errors.New("store: WAL replay pending; open read-write to recover")
		}
		s.appliedSeq.Store(lastSeq)
		if err := s.openPager(); err != nil {
			return nil, err
		}
		if err := s.finishOpen(lastSeq, false); err != nil {
			s.pg.Close()
			return nil, err
		}
		return s, nil
	}

	// A crash inside saveStats can strand its temp file; sweep it so a
	// recovered directory holds exactly the expected file set.
	os.Remove(filepath.Join(dir, statsFileName+".tmp"))

	w, err := wal.Open(walPath, wal.Hook(s.opts.IOHook))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.wal = w
	if err := s.openPager(); err != nil {
		w.CloseNoFlush()
		return nil, err
	}
	lastSeq, applied, err := s.pg.Recover()
	if err != nil {
		err = fmt.Errorf("%w: %w", ErrRecovery, err)
	}
	if err == nil && applied > 0 {
		// The redone images are durable; fold them into a checkpoint so
		// the log does not replay forever.
		if cerr := s.pg.Checkpoint(lastSeq); cerr != nil {
			err = fmt.Errorf("%w: %w", ErrRecovery, cerr)
		}
	}
	if err == nil {
		s.appliedSeq.Store(lastSeq)
		err = s.finishOpen(lastSeq, true)
	}
	if err != nil {
		s.pg.CloseNoFlush()
		w.CloseNoFlush()
		return nil, err
	}
	return s, nil
}

// finishOpen reads the header and statistics once the page file reflects
// every committed update up to lastSeq. Commits do not rewrite stats.bin
// (only Load and a clean Close do), so after a crash its stamp is behind
// lastSeq; stale or unreadable statistics are rebuilt exactly from the
// primary tree in both modes, and written back when the store is writable.
func (s *Store) finishOpen(lastSeq uint64, writable bool) error {
	if err := s.loadHeader(); err != nil {
		return err
	}
	if !s.loaded {
		return nil
	}
	stamp, err := s.loadStats()
	if err == nil && stamp == lastSeq {
		switch {
		case s.textHashes != nil || !writable:
			return nil // only the update path needs the multisets
		case s.stats.Load().Texts == 0:
			s.textHashes = xasr.TextHashes{}
			return nil
		}
		// Pre-WAL stats file without multisets: rebuild to get them.
	}
	if err := s.recomputeStats(lastSeq); err != nil {
		return err
	}
	if !writable {
		return nil
	}
	return s.saveStats()
}

func (s *Store) openPager() error {
	pg, err := pager.Open(filepath.Join(s.dir, dataFileName), pager.Options{
		PageSize:    s.opts.PageSize,
		CacheFrames: s.opts.CacheFrames,
		ReadOnly:    s.opts.ReadOnly,
		IOHook:      s.opts.IOHook,
		WAL:         s.wal,
	})
	if err != nil {
		return err
	}
	s.pg = pg
	return nil
}

func (s *Store) loadHeader() error {
	hdr := s.pg.AppHeader()
	s.loaded = hdr[hdrLoaded] == 1
	if !s.loaded {
		return nil
	}
	s.maxIn.Store(binary.LittleEndian.Uint32(hdr[hdrMaxIn:]))
	s.primary = btree.Open(s.pg, pager.PageID(binary.LittleEndian.Uint32(hdr[hdrPrimaryRoot:])))
	if r := binary.LittleEndian.Uint32(hdr[hdrLabelRoot:]); r != 0 {
		s.labelIdx = btree.Open(s.pg, pager.PageID(r))
	}
	if r := binary.LittleEndian.Uint32(hdr[hdrParentRoot:]); r != 0 {
		s.parentIdx = btree.Open(s.pg, pager.PageID(r))
	}
	return nil
}

func (s *Store) saveHeader() {
	var hdr [pager.AppHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[hdrPrimaryRoot:], uint32(s.primary.Root()))
	if s.labelIdx != nil {
		binary.LittleEndian.PutUint32(hdr[hdrLabelRoot:], uint32(s.labelIdx.Root()))
	}
	if s.parentIdx != nil {
		binary.LittleEndian.PutUint32(hdr[hdrParentRoot:], uint32(s.parentIdx.Root()))
	}
	binary.LittleEndian.PutUint32(hdr[hdrMaxIn:], s.maxIn.Load())
	if s.loaded {
		hdr[hdrLoaded] = 1
	}
	s.pg.SetAppHeader(hdr)
}

// Loaded reports whether the store holds a document.
func (s *Store) Loaded() bool { return s.loaded }

// Stats returns the persisted document statistics (nil before Load). The
// returned snapshot is immutable; an update installs a fresh one.
func (s *Store) Stats() *xasr.Stats { return s.stats.Load() }

// MaxIn returns the largest in/out label assigned (the document root's out).
func (s *Store) MaxIn() uint32 { return s.maxIn.Load() }

// ReadLock takes the store's read side: update units (Begin) are excluded
// until ReadUnlock. Queries and whole-tree serializations that can run
// concurrently with updates must hold it for their full duration — update
// units rewrite B+-tree pages in place.
func (s *Store) ReadLock() { s.rw.RLock() }

// ReadUnlock releases ReadLock.
func (s *Store) ReadUnlock() { s.rw.RUnlock() }

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// TempDir returns the directory for operator spill files, creating it if
// needed.
func (s *Store) TempDir() (string, error) {
	dir := filepath.Join(s.dir, tmpDirName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	return dir, nil
}

// PagerStats returns the buffer pool I/O counters.
func (s *Store) PagerStats() pager.Stats { return s.pg.Stats() }

// PinnedPages returns the buffer pool's total pin count (leak checks).
func (s *Store) PinnedPages() int { return s.pg.PinnedPages() }

// ResetPagerStats zeroes the buffer pool counters.
func (s *Store) ResetPagerStats() { s.pg.ResetStats() }

// HasLabelIndex reports whether the (type,value,in) index exists.
func (s *Store) HasLabelIndex() bool { return s.labelIdx != nil }

// HasParentIndex reports whether the (parent_in,in) index exists.
func (s *Store) HasParentIndex() bool { return s.parentIdx != nil }

// PrimaryHeight returns the height of the primary tree (for cost models).
func (s *Store) PrimaryHeight() int {
	if s.primary == nil {
		return 0
	}
	h, err := s.primary.Height()
	if err != nil {
		return 1
	}
	return h
}

// LabelIndexHeight returns the height of the label index, or 0.
func (s *Store) LabelIndexHeight() int {
	if s.labelIdx == nil {
		return 0
	}
	h, err := s.labelIdx.Height()
	if err != nil {
		return 1
	}
	return h
}

// ParentIndexHeight returns the height of the parent index, or 0.
func (s *Store) ParentIndexHeight() int {
	if s.parentIdx == nil {
		return 0
	}
	h, err := s.parentIdx.Height()
	if err != nil {
		return 1
	}
	return h
}

// Load shreds the XML document read from r into the store, replacing any
// previous content. The tuple stream is spilled through an external sort
// keyed on "in" and bulk-loaded into the primary tree; the secondary
// indexes are derived the same way; the statistics are persisted.
func (s *Store) Load(r io.Reader) error {
	if s.opts.ReadOnly {
		return errors.New("store: load into read-only store")
	}
	// Recreate the page file and the WAL from scratch: a load replaces
	// the document, and nothing before it can need replaying.
	if err := s.pg.Close(); err != nil {
		return err
	}
	if s.wal != nil {
		if err := s.wal.Close(); err != nil {
			return err
		}
		s.wal = nil
	}
	if err := os.Remove(filepath.Join(s.dir, dataFileName)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Remove(filepath.Join(s.dir, walFileName)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	w, err := wal.Open(filepath.Join(s.dir, walFileName), wal.Hook(s.opts.IOHook))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.wal = w
	if err := s.openPager(); err != nil {
		return err
	}
	tmp, err := s.TempDir()
	if err != nil {
		return err
	}

	cmpKV := func(a, b []byte) int { return compareKVKeys(a, b) }
	primSort := recfile.NewSorter(tmp, cmpKV, s.opts.SortBudget)
	var labelSort, parentSort *recfile.Sorter
	if !s.opts.NoLabelIndex {
		labelSort = recfile.NewSorter(tmp, cmpKV, s.opts.SortBudget)
	}
	if !s.opts.NoParentIndex {
		parentSort = recfile.NewSorter(tmp, cmpKV, s.opts.SortBudget)
	}

	var rec []byte
	stats, texts, err := xasr.ShredStride(xmltok.New(r), s.opts.labelStride(), func(t xasr.Tuple) error {
		rec = encodeKV(rec[:0], xasr.PrimaryKey(t.In), xasr.EncodePrimaryValue(t))
		if err := primSort.Add(rec); err != nil {
			return err
		}
		if labelSort != nil && t.Type != xasr.TypeRoot {
			rec = encodeKV(rec[:0], xasr.LabelKey(t.Type, t.Value, t.In), xasr.EncodeLabelValue(t.Out, t.ParentIn))
			if err := labelSort.Add(rec); err != nil {
				return err
			}
		}
		if parentSort != nil && t.Type != xasr.TypeRoot {
			rec = encodeKV(rec[:0], xasr.ParentKey(t.ParentIn, t.In), xasr.EncodeParentValue(t.Out, t.Type, t.Value))
			if err := parentSort.Add(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	if s.primary, err = bulkLoadFromSorter(s.pg, primSort); err != nil {
		return err
	}
	if labelSort != nil {
		if s.labelIdx, err = bulkLoadFromSorter(s.pg, labelSort); err != nil {
			return err
		}
	}
	if parentSort != nil {
		if s.parentIdx, err = bulkLoadFromSorter(s.pg, parentSort); err != nil {
			return err
		}
	}

	s.stats.Store(stats)
	s.textHashes = texts
	s.appliedSeq.Store(0)
	s.maxIn.Store(stats.MaxIn)
	s.loaded = true
	s.saveHeader()
	if err := s.saveStats(); err != nil {
		return err
	}
	if err := s.pg.Flush(); err != nil {
		return err
	}
	return s.pg.Sync()
}

// LoadString is Load from a string, for tests and examples.
func (s *Store) LoadString(doc string) error {
	return s.Load(strings.NewReader(doc))
}

func bulkLoadFromSorter(pg *pager.Pager, sorter *recfile.Sorter) (*btree.Tree, error) {
	it, err := sorter.Sort()
	if err != nil {
		return nil, err
	}
	defer it.Close()
	tree, err := btree.BulkLoad(pg, func() (k, v []byte, ok bool, err error) {
		rec, err := it.Next()
		if err == io.EOF {
			return nil, nil, false, nil
		}
		if err != nil {
			return nil, nil, false, err
		}
		k, v, err = decodeKV(rec)
		if err != nil {
			return nil, nil, false, err
		}
		return k, v, true, nil
	})
	if err != nil {
		return nil, err
	}
	return tree, nil
}

// Close flushes and closes the store. A clean read-write close also
// checkpoints, so the next open starts from an empty log, and persists
// the statistics if updates committed since they were last written.
func (s *Store) Close() error {
	if s.pg == nil {
		return nil
	}
	var err error
	if s.wal != nil {
		if e := s.pg.Flush(); e != nil && err == nil {
			err = e
		}
		if e := s.pg.Checkpoint(s.wal.LastSeq()); e != nil && err == nil {
			err = e
		}
		if err == nil && s.loaded && s.statsSeq != s.appliedSeq.Load() {
			err = s.saveStats()
		}
	}
	if e := s.pg.Close(); e != nil && err == nil {
		err = e
	}
	if s.wal != nil {
		if e := s.wal.Close(); e != nil && err == nil {
			err = e
		}
	}
	s.pg = nil
	s.wal = nil
	return err
}

// CrashClose abandons the store without flushing anything — pages and WAL
// buffers in memory are lost, exactly as in a process kill. For the crash
// harness and tests.
func (s *Store) CrashClose() {
	if s.pg != nil {
		s.pg.CloseNoFlush()
		s.pg = nil
	}
	if s.wal != nil {
		s.wal.CloseNoFlush()
		s.wal = nil
	}
}

// AppliedSeq returns the sequence number of the last committed update
// unit (0 right after a Load).
func (s *Store) AppliedSeq() uint64 { return s.appliedSeq.Load() }

// WALBytes returns the current size of the write-ahead log payload.
func (s *Store) WALBytes() int64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.Bytes()
}

// LastCheckpointLSN returns the LSN of the last checkpoint record, or 0.
func (s *Store) LastCheckpointLSN() uint64 {
	if s.wal == nil {
		return 0
	}
	return uint64(s.wal.LastCheckpointLSN())
}

// Checkpoint flushes all dirty pages and truncates the WAL.
func (s *Store) Checkpoint() error {
	if s.wal == nil {
		return nil
	}
	if err := s.pg.Flush(); err != nil {
		return err
	}
	return s.pg.Checkpoint(s.wal.LastSeq())
}

// statsFile is the gob-serialized form of xasr.Stats, plus the update
// sequence number the statistics reflect and the text-hash multisets the
// update path maintains LabelDistinctTexts with.
type statsFile struct {
	Nodes      int64
	Elems      int64
	Texts      int64
	MaxIn      uint32
	LabelCount map[string]int64
	// LabelSubtreeSum and LabelDistinctTexts are nil in files written
	// before the respective statistic was collected; the estimator falls
	// back to its gross measures then.
	LabelSubtreeSum    map[string]int64
	LabelDistinctTexts map[string]int64
	SumDepth           int64
	MaxDepth           int32
	MaxFanout          int32
	AppliedSeq         uint64
	THashes            map[string]map[uint64]int64
}

// saveStats writes the statistics via temp-file-and-rename: a crash mid-
// write must not tear the previous stats file, because open decides from
// its AppliedSeq stamp whether a rescan is needed. Statistics are derived
// data, so this runs only where the data file is self-contained — Load,
// a clean Close, and open after a rescan — never on the commit path.
func (s *Store) saveStats() error {
	path := filepath.Join(s.dir, statsFileName)
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	st := s.stats.Load()
	sf := statsFile{
		Nodes: st.Nodes, Elems: st.Elems, Texts: st.Texts,
		MaxIn: st.MaxIn, LabelCount: st.LabelCount,
		LabelSubtreeSum:    st.LabelSubtreeSum,
		LabelDistinctTexts: st.LabelDistinctTexts,
		SumDepth:           st.SumDepth, MaxDepth: st.MaxDepth, MaxFanout: st.MaxFanout,
		AppliedSeq: s.appliedSeq.Load(),
		THashes:    s.textHashes,
	}
	if err := gob.NewEncoder(f).Encode(&sf); err != nil {
		f.Close()
		os.Remove(path + ".tmp")
		return fmt.Errorf("store: encoding stats: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path + ".tmp")
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Make the rename durable; losing it to a crash only costs a rescan
	// (the AppliedSeq stamp of the old file no longer matches), but the
	// stats file should not silently stay stale on disk.
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.statsSeq = sf.AppliedSeq
	return nil
}

// syncDir fsyncs a directory, making just-renamed entries durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

func (s *Store) loadStats() (stamp uint64, err error) {
	f, err := os.Open(filepath.Join(s.dir, statsFileName))
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	var sf statsFile
	if err := gob.NewDecoder(f).Decode(&sf); err != nil {
		return 0, fmt.Errorf("store: decoding stats: %w", err)
	}
	st := &xasr.Stats{
		Nodes: sf.Nodes, Elems: sf.Elems, Texts: sf.Texts,
		MaxIn: sf.MaxIn, LabelCount: sf.LabelCount,
		LabelSubtreeSum:    sf.LabelSubtreeSum,
		LabelDistinctTexts: sf.LabelDistinctTexts,
		SumDepth:           sf.SumDepth, MaxDepth: sf.MaxDepth, MaxFanout: sf.MaxFanout,
	}
	if st.LabelCount == nil {
		st.LabelCount = map[string]int64{}
	}
	s.stats.Store(st)
	s.textHashes = sf.THashes
	s.statsSeq = sf.AppliedSeq
	return sf.AppliedSeq, nil
}

// encodeKV packs a key/value pair into one spill record.
func encodeKV(dst, key, val []byte) []byte {
	var tmp [binary.MaxVarintLen32]byte
	n := binary.PutUvarint(tmp[:], uint64(len(key)))
	dst = append(dst, tmp[:n]...)
	dst = append(dst, key...)
	return append(dst, val...)
}

func decodeKV(rec []byte) (key, val []byte, err error) {
	klen, n := binary.Uvarint(rec)
	if n <= 0 || uint64(len(rec)-n) < klen {
		return nil, nil, fmt.Errorf("store: corrupt spill record")
	}
	return rec[n : n+int(klen)], rec[n+int(klen):], nil
}

// compareKVKeys orders spill records by their embedded key bytes.
func compareKVKeys(a, b []byte) int {
	ka, _, _ := decodeKV(a)
	kb, _, _ := decodeKV(b)
	return bytes.Compare(ka, kb)
}
