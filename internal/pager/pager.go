// Package pager implements the page-based storage manager underneath the
// B+-trees: a single file of fixed-size pages fronted by a bounded buffer
// pool with pinning, clock eviction and write-back.
//
// It is one half of this project's substitution for the Berkeley DB storage
// manager the paper's students used (the other half is package btree). The
// buffer pool size bounds the memory the query engines may use, which is
// how the testbed enforces the paper's "20 MB of memory" efficiency-test
// cap; the pool also counts page reads, writes, hits and misses so the cost
// model can be calibrated against observed I/O.
//
// # Sharding
//
// The buffer pool is split into lock-striped shards keyed by the low bits
// of the PageID. Each shard owns its frames, its pageID→frame hash table
// and its clock hand, all guarded by a per-shard mutex, so concurrent
// readers touching different shards never contend. The I/O counters are
// sync/atomic and lock-free. Only the file metadata (page count, freelist,
// app header) keeps a single mutex; it is taken on the write/allocate path
// used at load time and never on the hot read path. Lock order is always
// meta → shard → update-state, never the reverse.
//
// # Durability
//
// When Options.WAL is set, every non-meta page carries an 8-byte LSN
// header (Data() exposes only the usable remainder) and mutations happen
// inside update units: BeginUpdate snapshots the metadata and starts
// capturing before-images of every page touched; CommitUpdate stamps each
// dirtied page with a fresh LSN, appends whole-page redo images plus a
// commit record to the WAL and group-flushes it — only then may the pages
// reach the data file (pages dirtied by an open unit are pinned into the
// pool, and a page is never written back before the WAL covering it is
// durable). AbortUpdate restores the before-images. Recover replays
// committed units from the log, skipping pages whose on-disk LSN already
// covers a record, so replay is idempotent; Checkpoint flushes and fsyncs
// the data file and then truncates the log.
package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"xqdb/internal/wal"
)

// PageID identifies a page within the file. Page 0 is the meta page and is
// never handed out; 0 therefore doubles as a nil page id.
type PageID uint32

// NilPage is the zero PageID, used as a null pointer.
const NilPage PageID = 0

const (
	magic        = "XQDBPG02"
	metaPageID   = PageID(0)
	offMagic     = 0
	offPageSize  = 8
	offNumPages  = 12
	offFreeHead  = 16
	offAppHeader = 24
	// AppHeaderSize is the number of bytes of the meta page reserved for
	// the client (the store layer keeps B+-tree roots and counters there).
	AppHeaderSize = 128
)

// PageHdrSize is the per-page header on every non-meta page: the 8-byte
// LSN of the last WAL record that wrote the page. Page.Data() starts past
// it.
const PageHdrSize = 8

// DefaultPageSize is the page size used when Options.PageSize is zero.
const DefaultPageSize = 4096

// DefaultCacheFrames is the buffer pool size used when Options.CacheFrames
// is zero: 1024 frames of 4 KiB = 4 MiB.
const DefaultCacheFrames = 1024

// minFramesPerShard is the smallest shard a pool is allowed to have: below
// this, B+-tree descents (which keep a root-to-leaf path pinned during
// inserts) can exhaust a shard even though the pool as a whole has room.
const minFramesPerShard = 8

// maxShards caps the stripe count; beyond ~4× typical core counts the
// extra shards only cost memory locality.
const maxShards = 64

// ErrClosed is returned by operations on a closed Pager.
var ErrClosed = errors.New("pager: closed")

// ErrUpdateActive is returned when an operation that would write
// uncommitted pages runs while an update unit is open, or a second unit is
// begun.
var ErrUpdateActive = errors.New("pager: update unit active")

// IOHook is consulted before page-file reads ("page:read") and writes
// ("page:write"); a non-nil return fails the operation with that error.
// The fault-injection harness uses it to fail the Nth I/O
// deterministically.
type IOHook func(op string) error

// Options configures Open.
type Options struct {
	// PageSize is the page size in bytes for newly created files. It must
	// be a power of two >= 512. Existing files keep their page size.
	PageSize int
	// CacheFrames is the number of pages the buffer pool may hold.
	CacheFrames int
	// ReadOnly opens the file for reading only.
	ReadOnly bool
	// IOHook, when set, is consulted before every page read and write.
	IOHook IOHook
	// WAL, when set, enables update units: mutations between BeginUpdate
	// and CommitUpdate are logged to it before any page reaches the data
	// file.
	WAL *wal.Log
}

// Stats counts buffer pool and file I/O activity since Open.
type Stats struct {
	PagesRead    int64 // pages fetched from the OS file
	PagesWritten int64 // pages written back to the OS file
	CacheHits    int64 // page requests served from the pool
	CacheMisses  int64 // page requests that went to the file
	Allocations  int64 // pages allocated
}

// counters is the lock-free mutable form of Stats.
type counters struct {
	pagesRead    atomic.Int64
	pagesWritten atomic.Int64
	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
	allocations  atomic.Int64
}

// frame is one buffer-pool slot.
type frame struct {
	id     PageID
	data   []byte
	pins   int
	dirty  bool
	refbit bool
	valid  bool
	// unlogged marks a frame dirtied by the open update unit whose redo
	// record is not yet on the WAL: it must not be evicted (written back)
	// until the unit commits.
	unlogged bool
}

// shard is one stripe of the buffer pool: a private frame array, hash
// table and clock hand under a private mutex.
type shard struct {
	mu     sync.Mutex
	frames []frame
	table  map[PageID]int // pageID -> frame index
	clock  int
}

// beforeImage is the pre-update state of one touched page, kept for
// AbortUpdate.
type beforeImage struct {
	data     []byte // full frame bytes incl. LSN header; nil for fresh pages
	wasDirty bool
}

// Pager manages the page file and its buffer pool. All methods are safe
// for concurrent use, except that update units (BeginUpdate through
// CommitUpdate/AbortUpdate) assume a single writer with no concurrent
// mutators; the layers above serialize writers per store.
type Pager struct {
	f        *os.File
	pageSize int
	readOnly bool
	ioHook   IOHook
	wal      *wal.Log

	closed   atomic.Bool
	numPages atomic.Uint32 // including the meta page

	// meta guards the file metadata mutated on the allocate/free path.
	meta struct {
		sync.Mutex
		freeHead  PageID
		appHdr    [AppHeaderSize]byte
		metaDirty bool
	}

	shards    []shard
	shardMask uint32

	// updActive is the lock-free fast-path check on fetch; upd holds the
	// open unit's before-images and metadata snapshot.
	updActive atomic.Bool
	upd       struct {
		sync.Mutex
		touched   map[PageID]*beforeImage
		freeHead  PageID
		appHdr    [AppHeaderSize]byte
		metaDirty bool
		numPages  uint32
	}

	// dpt is the dirty-page table: pages whose latest committed image is
	// on the WAL but not yet in the data file, with the LSN of that
	// image. Entries clear as pages are written back.
	dpt struct {
		sync.Mutex
		pages map[PageID]uint64
	}

	stats counters
}

// shardFor maps a page id to its stripe. Page ids are allocated
// sequentially, so the low bits distribute uniformly.
func (p *Pager) shardFor(id PageID) *shard {
	return &p.shards[uint32(id)&p.shardMask]
}

// shardCount picks a power-of-two stripe count that keeps every shard at
// least minFramesPerShard frames.
func shardCount(cacheFrames int) int {
	n := 1
	limit := runtime.GOMAXPROCS(0) * 4
	if limit > maxShards {
		limit = maxShards
	}
	for n*2 <= limit && cacheFrames/(n*2) >= minFramesPerShard {
		n *= 2
	}
	return n
}

// Open opens or creates the page file at path.
func Open(path string, opts Options) (*Pager, error) {
	if opts.PageSize == 0 {
		opts.PageSize = DefaultPageSize
	}
	if opts.PageSize < 512 || opts.PageSize&(opts.PageSize-1) != 0 {
		return nil, fmt.Errorf("pager: page size %d is not a power of two >= 512", opts.PageSize)
	}
	if opts.CacheFrames <= 0 {
		opts.CacheFrames = DefaultCacheFrames
	}
	if opts.CacheFrames < minFramesPerShard {
		opts.CacheFrames = minFramesPerShard
	}
	flag := os.O_RDWR | os.O_CREATE
	if opts.ReadOnly {
		flag = os.O_RDONLY
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: %w", err)
	}
	p := &Pager{
		f:        f,
		pageSize: opts.PageSize,
		readOnly: opts.ReadOnly,
		ioHook:   opts.IOHook,
		wal:      opts.WAL,
	}
	p.dpt.pages = make(map[PageID]uint64)
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pager: %w", err)
	}
	if fi.Size() == 0 {
		if opts.ReadOnly {
			f.Close()
			return nil, fmt.Errorf("pager: %s is empty", path)
		}
		p.numPages.Store(1)
		p.meta.metaDirty = true
		if err := p.writeMetaLocked(); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		if err := p.readMeta(); err != nil {
			f.Close()
			return nil, err
		}
	}
	ns := shardCount(opts.CacheFrames)
	p.shards = make([]shard, ns)
	p.shardMask = uint32(ns - 1)
	base, extra := opts.CacheFrames/ns, opts.CacheFrames%ns
	for i := range p.shards {
		n := base
		if i < extra {
			n++
		}
		sh := &p.shards[i]
		sh.frames = make([]frame, n)
		sh.table = make(map[PageID]int, n)
		for j := range sh.frames {
			sh.frames[j].data = make([]byte, p.pageSize)
		}
	}
	return p, nil
}

func (p *Pager) readMeta() error {
	hdr := make([]byte, 512)
	if _, err := p.f.ReadAt(hdr, 0); err != nil && err != io.EOF {
		return fmt.Errorf("pager: reading meta page: %w", err)
	}
	if string(hdr[offMagic:offMagic+8]) != magic {
		return fmt.Errorf("pager: bad magic, not a xqdb page file")
	}
	ps := binary.LittleEndian.Uint32(hdr[offPageSize:])
	if ps < 512 || ps&(ps-1) != 0 {
		return fmt.Errorf("pager: corrupt page size %d", ps)
	}
	p.pageSize = int(ps)
	p.numPages.Store(binary.LittleEndian.Uint32(hdr[offNumPages:]))
	p.meta.freeHead = PageID(binary.LittleEndian.Uint32(hdr[offFreeHead:]))
	copy(p.meta.appHdr[:], hdr[offAppHeader:offAppHeader+AppHeaderSize])
	return nil
}

// buildMetaLocked renders the meta page image. Caller holds p.meta.
func (p *Pager) buildMetaLocked() []byte {
	buf := make([]byte, p.pageSize)
	copy(buf[offMagic:], magic)
	binary.LittleEndian.PutUint32(buf[offPageSize:], uint32(p.pageSize))
	binary.LittleEndian.PutUint32(buf[offNumPages:], p.numPages.Load())
	binary.LittleEndian.PutUint32(buf[offFreeHead:], uint32(p.meta.freeHead))
	copy(buf[offAppHeader:], p.meta.appHdr[:])
	return buf
}

// writeMetaLocked persists the meta page. Caller holds p.meta (or has
// exclusive access during Open).
func (p *Pager) writeMetaLocked() error {
	if !p.meta.metaDirty {
		return nil
	}
	if _, err := p.f.WriteAt(p.buildMetaLocked(), 0); err != nil {
		return fmt.Errorf("pager: writing meta page: %w", err)
	}
	p.stats.pagesWritten.Add(1)
	p.meta.metaDirty = false
	return nil
}

// PageSize returns the page size in bytes.
func (p *Pager) PageSize() int { return p.pageSize }

// UsableSize returns the bytes of a page available to clients: the page
// size minus the per-page LSN header.
func (p *Pager) UsableSize() int { return p.pageSize - PageHdrSize }

// NumPages returns the number of pages in the file, including the meta
// page and freed pages.
func (p *Pager) NumPages() int { return int(p.numPages.Load()) }

// Shards returns the number of buffer pool stripes (for tests and
// diagnostics).
func (p *Pager) Shards() int { return len(p.shards) }

// PinnedPages returns the total pin count across the buffer pool. A
// quiescent pager (no operation in flight) must report zero; the leak
// checks of the robustness harness rely on that after every query.
func (p *Pager) PinnedPages() int {
	total := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for j := range sh.frames {
			if sh.frames[j].valid {
				total += sh.frames[j].pins
			}
		}
		sh.mu.Unlock()
	}
	return total
}

// DirtyLogged returns the size of the dirty-page table: committed pages
// whose images live only on the WAL so far.
func (p *Pager) DirtyLogged() int {
	p.dpt.Lock()
	defer p.dpt.Unlock()
	return len(p.dpt.pages)
}

// Stats returns a snapshot of the I/O counters.
func (p *Pager) Stats() Stats {
	return Stats{
		PagesRead:    p.stats.pagesRead.Load(),
		PagesWritten: p.stats.pagesWritten.Load(),
		CacheHits:    p.stats.cacheHits.Load(),
		CacheMisses:  p.stats.cacheMisses.Load(),
		Allocations:  p.stats.allocations.Load(),
	}
}

// ResetStats zeroes the I/O counters (used between benchmark phases).
func (p *Pager) ResetStats() {
	p.stats.pagesRead.Store(0)
	p.stats.pagesWritten.Store(0)
	p.stats.cacheHits.Store(0)
	p.stats.cacheMisses.Store(0)
	p.stats.allocations.Store(0)
}

// AppHeader returns a copy of the client header area of the meta page.
func (p *Pager) AppHeader() [AppHeaderSize]byte {
	p.meta.Lock()
	defer p.meta.Unlock()
	return p.meta.appHdr
}

// SetAppHeader replaces the client header area. It is persisted on the
// next Flush or Close.
func (p *Pager) SetAppHeader(hdr [AppHeaderSize]byte) {
	p.meta.Lock()
	defer p.meta.Unlock()
	p.meta.appHdr = hdr
	p.meta.metaDirty = true
}

// Page is a pinned page. Callers must Unpin it when done; pages written to
// must be marked dirty before unpinning.
type Page struct {
	ID    PageID
	p     *Pager
	sh    *shard
	frame int
}

// Data returns the page contents past the LSN header. The slice is only
// valid while the page is pinned.
func (pg *Page) Data() []byte { return pg.sh.frames[pg.frame].data[PageHdrSize:] }

// LSN returns the LSN of the last WAL record that wrote this page (0 if
// never logged).
func (pg *Page) LSN() uint64 {
	return binary.LittleEndian.Uint64(pg.sh.frames[pg.frame].data)
}

// MarkDirty records that the page was modified. Inside an update unit the
// frame additionally becomes unevictable until the unit resolves.
func (pg *Page) MarkDirty() {
	pg.sh.mu.Lock()
	fr := &pg.sh.frames[pg.frame]
	fr.dirty = true
	if pg.p.updActive.Load() {
		fr.unlogged = true
	}
	pg.sh.mu.Unlock()
}

// Unpin releases the page back to the pool.
func (pg *Page) Unpin() {
	pg.sh.mu.Lock()
	fr := &pg.sh.frames[pg.frame]
	if fr.pins > 0 {
		fr.pins--
	}
	pg.sh.mu.Unlock()
}

// Allocate returns a new zeroed page, reusing freed pages when possible.
// The page is returned pinned and dirty.
func (p *Pager) Allocate() (*Page, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	if p.readOnly {
		return nil, errors.New("pager: allocate on read-only file")
	}
	p.meta.Lock()
	defer p.meta.Unlock()
	if p.closed.Load() {
		return nil, ErrClosed
	}
	if p.meta.freeHead != NilPage {
		id := p.meta.freeHead
		// The next free page id is stored in the first 4 bytes.
		pg, err := p.fetch(id)
		if err != nil {
			return nil, err
		}
		d := pg.Data()
		p.meta.freeHead = PageID(binary.LittleEndian.Uint32(d))
		for i := range d {
			d[i] = 0
		}
		pg.MarkDirty()
		p.meta.metaDirty = true
		p.stats.allocations.Add(1)
		return pg, nil
	}
	// Install the frame before publishing the new page count: a concurrent
	// Read of this id must either see "invalid page" (not yet published)
	// or find the installed frame — never race Allocate into loading a
	// second frame for the same id.
	id := PageID(p.numPages.Load())
	pg, err := p.newFrame(id)
	if err != nil {
		return nil, err
	}
	p.numPages.Store(uint32(id) + 1)
	p.meta.metaDirty = true
	p.stats.allocations.Add(1)
	pg.MarkDirty()
	return pg, nil
}

// Free returns a page to the freelist.
func (p *Pager) Free(id PageID) error {
	if p.closed.Load() {
		return ErrClosed
	}
	if id == metaPageID || uint32(id) >= p.numPages.Load() {
		return fmt.Errorf("pager: free of invalid page %d", id)
	}
	p.meta.Lock()
	defer p.meta.Unlock()
	if p.closed.Load() {
		return ErrClosed
	}
	pg, err := p.fetch(id)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(pg.Data(), uint32(p.meta.freeHead))
	pg.MarkDirty()
	pg.Unpin()
	p.meta.freeHead = id
	p.meta.metaDirty = true
	return nil
}

// Read pins and returns the page with the given id. This is the hot path:
// it touches only the page's shard, never the meta mutex.
func (p *Pager) Read(id PageID) (*Page, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	if id == metaPageID || uint32(id) >= p.numPages.Load() {
		return nil, fmt.Errorf("pager: read of invalid page %d", id)
	}
	return p.fetch(id)
}

// captureLocked records the before-image of a page first touched by the
// open update unit. Caller holds the page's shard mutex; fr may be nil for
// a fresh page that has no prior image.
func (p *Pager) captureLocked(id PageID, fr *frame) {
	p.upd.Lock()
	if p.upd.touched == nil {
		p.upd.Unlock()
		return
	}
	if _, ok := p.upd.touched[id]; !ok {
		img := &beforeImage{}
		if fr != nil {
			img.data = append([]byte(nil), fr.data...)
			img.wasDirty = fr.dirty
		}
		p.upd.touched[id] = img
	}
	p.upd.Unlock()
}

// fetch returns the page pinned, loading it from the file into its shard
// if necessary.
func (p *Pager) fetch(id PageID) (*Page, error) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	// Re-check closed under the shard lock: Close sets the flag and then
	// takes every shard mutex before closing the file, so a fetch that
	// passes this check finishes its I/O before the descriptor goes away.
	if p.closed.Load() {
		sh.mu.Unlock()
		return nil, ErrClosed
	}
	if fi, ok := sh.table[id]; ok {
		sh.frames[fi].pins++
		sh.frames[fi].refbit = true
		if p.updActive.Load() {
			p.captureLocked(id, &sh.frames[fi])
		}
		sh.mu.Unlock()
		p.stats.cacheHits.Add(1)
		return &Page{ID: id, p: p, sh: sh, frame: fi}, nil
	}
	fi, err := p.victimLocked(sh)
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	fr := &sh.frames[fi]
	off := int64(id) * int64(p.pageSize)
	if p.ioHook != nil {
		if err := p.ioHook("page:read"); err != nil {
			sh.mu.Unlock()
			return nil, fmt.Errorf("pager: reading page %d: %w", id, err)
		}
	}
	n, err := p.f.ReadAt(fr.data, off)
	if err != nil && err != io.EOF {
		sh.mu.Unlock()
		return nil, fmt.Errorf("pager: reading page %d: %w", id, err)
	}
	if n < p.pageSize {
		// Page beyond EOF (allocated but never written): zero-fill.
		for i := n; i < p.pageSize; i++ {
			fr.data[i] = 0
		}
	}
	fr.id = id
	fr.pins = 1
	fr.dirty = false
	fr.refbit = true
	fr.valid = true
	fr.unlogged = false
	sh.table[id] = fi
	if p.updActive.Load() {
		p.captureLocked(id, fr)
	}
	sh.mu.Unlock()
	p.stats.cacheMisses.Add(1)
	p.stats.pagesRead.Add(1)
	return &Page{ID: id, p: p, sh: sh, frame: fi}, nil
}

// newFrame claims a frame for a brand-new page without reading the file.
// The page is returned pinned and zeroed.
func (p *Pager) newFrame(id PageID) (*Page, error) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if p.closed.Load() {
		return nil, ErrClosed
	}
	fi, err := p.victimLocked(sh)
	if err != nil {
		return nil, err
	}
	fr := &sh.frames[fi]
	for i := range fr.data {
		fr.data[i] = 0
	}
	fr.id = id
	fr.pins = 1
	fr.dirty = false
	fr.refbit = true
	fr.valid = true
	fr.unlogged = false
	sh.table[id] = fi
	if p.updActive.Load() {
		p.captureLocked(id, nil)
	}
	return &Page{ID: id, p: p, sh: sh, frame: fi}, nil
}

// victimLocked finds a free or evictable frame in sh using the clock
// algorithm, writing back a dirty victim. Frames dirtied by the open
// update unit are unevictable (their redo is not yet logged). Caller holds
// sh.mu.
func (p *Pager) victimLocked(sh *shard) (int, error) {
	n := len(sh.frames)
	for sweep := 0; sweep < 2*n+1; sweep++ {
		fi := sh.clock
		sh.clock = (sh.clock + 1) % n
		fr := &sh.frames[fi]
		if !fr.valid {
			return fi, nil
		}
		if fr.pins > 0 || fr.unlogged {
			continue
		}
		if fr.refbit {
			fr.refbit = false
			continue
		}
		if fr.dirty {
			if err := p.writeFrame(fr); err != nil {
				return 0, err
			}
		}
		delete(sh.table, fr.id)
		fr.valid = false
		return fi, nil
	}
	return 0, fmt.Errorf("pager: buffer pool shard exhausted (%d frames, all pinned)", n)
}

func (p *Pager) writeFrame(fr *frame) error {
	if p.wal != nil {
		// WAL-before-page: never write a page whose covering log record
		// is not durable.
		if lsn := binary.LittleEndian.Uint64(fr.data); lsn > p.wal.FlushedLSN() {
			return fmt.Errorf("pager: page %d write ahead of WAL (lsn %d > flushed %d)",
				fr.id, lsn, p.wal.FlushedLSN())
		}
	}
	off := int64(fr.id) * int64(p.pageSize)
	if p.ioHook != nil {
		if err := p.ioHook("page:write"); err != nil {
			return fmt.Errorf("pager: writing page %d: %w", fr.id, err)
		}
	}
	if _, err := p.f.WriteAt(fr.data, off); err != nil {
		return fmt.Errorf("pager: writing page %d: %w", fr.id, err)
	}
	p.stats.pagesWritten.Add(1)
	fr.dirty = false
	p.dpt.Lock()
	delete(p.dpt.pages, fr.id)
	p.dpt.Unlock()
	return nil
}

// BeginUpdate opens an update unit: the metadata is snapshotted and every
// page touched from here captures a before-image, so AbortUpdate can
// restore the pre-unit state exactly. Requires Options.WAL.
func (p *Pager) BeginUpdate() error {
	if p.closed.Load() {
		return ErrClosed
	}
	if p.readOnly || p.wal == nil {
		return errors.New("pager: update on read-only or WAL-less pager")
	}
	p.meta.Lock()
	defer p.meta.Unlock()
	p.upd.Lock()
	defer p.upd.Unlock()
	if p.upd.touched != nil {
		return ErrUpdateActive
	}
	p.upd.touched = make(map[PageID]*beforeImage)
	p.upd.freeHead = p.meta.freeHead
	p.upd.appHdr = p.meta.appHdr
	p.upd.metaDirty = p.meta.metaDirty
	p.upd.numPages = p.numPages.Load()
	p.updActive.Store(true)
	return nil
}

// CommitUpdate makes the open unit durable: every page it dirtied is
// stamped with a fresh LSN and appended to the WAL as a redo image, the
// (possibly dirty) meta page follows, then a commit record carrying seq,
// and the whole unit reaches disk in one group flush.
//
// committed reports whether the unit is durable on the log: a non-nil
// error with committed=true means the commit hit disk but a hook fired
// just after (the crash-harness's "died right after commit" point) — the
// in-memory state is kept. With committed=false the caller must
// AbortUpdate to roll back.
func (p *Pager) CommitUpdate(seq uint64) (committed bool, err error) {
	if !p.updActive.Load() {
		return false, errors.New("pager: commit without update unit")
	}
	p.meta.Lock()
	defer p.meta.Unlock()

	// Collect the unit's dirtied frames. They cannot be evicted or
	// concurrently modified (single writer), so holding each shard lock
	// only while scanning is safe.
	type dirtyRef struct {
		sh *shard
		fi int
		id PageID
	}
	var dirties []dirtyRef
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for j := range sh.frames {
			if sh.frames[j].valid && sh.frames[j].unlogged {
				dirties = append(dirties, dirtyRef{sh: sh, fi: j, id: sh.frames[j].id})
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(dirties, func(i, j int) bool { return dirties[i].id < dirties[j].id })

	lsns := make(map[PageID]uint64, len(dirties))
	for _, d := range dirties {
		fr := &d.sh.frames[d.fi]
		lsn := p.wal.NextLSN()
		binary.LittleEndian.PutUint64(fr.data, lsn)
		got, aerr := p.wal.AppendPage(uint32(d.id), fr.data)
		if aerr != nil {
			p.wal.DropBuffer()
			return false, aerr
		}
		if got != lsn {
			p.wal.DropBuffer()
			return false, fmt.Errorf("pager: LSN skew (%d != %d)", got, lsn)
		}
		lsns[d.id] = lsn
	}
	if p.meta.metaDirty {
		if _, aerr := p.wal.AppendPage(0, p.buildMetaLocked()); aerr != nil {
			p.wal.DropBuffer()
			return false, aerr
		}
	}
	if _, aerr := p.wal.AppendCommit(seq); aerr != nil {
		p.wal.DropBuffer()
		return false, aerr
	}
	ferr := p.wal.Flush()
	if p.wal.LastSeq() < seq {
		// The group flush did not reach disk: nothing of the unit is
		// durable. Strip the stamped LSNs so the frames don't claim
		// coverage by records that never made it.
		for _, d := range dirties {
			binary.LittleEndian.PutUint64(d.sh.frames[d.fi].data, 0)
		}
		p.wal.DropBuffer()
		if ferr == nil {
			ferr = errors.New("pager: WAL flush incomplete")
		}
		return false, ferr
	}
	// Durable. Clear the unit and record the pages as logged-but-unwritten.
	p.dpt.Lock()
	for id, lsn := range lsns {
		p.dpt.pages[id] = lsn
	}
	p.dpt.Unlock()
	for _, d := range dirties {
		d.sh.mu.Lock()
		d.sh.frames[d.fi].unlogged = false
		d.sh.mu.Unlock()
	}
	p.upd.Lock()
	p.upd.touched = nil
	p.upd.Unlock()
	p.updActive.Store(false)
	return true, ferr
}

// AbortUpdate rolls the open unit back: touched pages are restored from
// their before-images (fresh allocations are discarded) and the metadata
// snapshot is reinstated. A no-op if no unit is open.
func (p *Pager) AbortUpdate() {
	if !p.updActive.Load() {
		return
	}
	p.meta.Lock()
	defer p.meta.Unlock()
	p.upd.Lock()
	touched := p.upd.touched
	p.upd.touched = nil
	p.upd.Unlock()
	p.updActive.Store(false)
	for id, img := range touched {
		sh := p.shardFor(id)
		sh.mu.Lock()
		fi, ok := sh.table[id]
		if ok {
			fr := &sh.frames[fi]
			if img.data != nil {
				copy(fr.data, img.data)
				fr.dirty = img.wasDirty
				fr.unlogged = false
			} else {
				// Fresh allocation: the page did not exist before the
				// unit; drop the frame.
				fr.valid = false
				fr.pins = 0
				fr.unlogged = false
				delete(sh.table, id)
			}
		}
		sh.mu.Unlock()
	}
	p.meta.freeHead = p.upd.freeHead
	p.meta.appHdr = p.upd.appHdr
	p.meta.metaDirty = p.upd.metaDirty
	p.numPages.Store(p.upd.numPages)
}

// Recover replays committed units from the WAL into the data file. It must
// run right after Open, before any pages are read through the pool. Page
// images whose on-disk LSN already covers them are skipped, so replaying
// twice (a crash during recovery) is harmless. Uncommitted trailing
// records are ignored. Returns the highest committed sequence number seen
// and the number of page images applied.
func (p *Pager) Recover() (lastSeq uint64, applied int, err error) {
	if p.wal == nil {
		return 0, 0, nil
	}
	type pimg struct {
		id  uint32
		lsn uint64
		img []byte
	}
	var pending []pimg
	rerr := p.wal.Replay(func(lsn uint64, typ byte, payload []byte) error {
		switch typ {
		case wal.RecPage:
			if len(payload) < 4 {
				return fmt.Errorf("pager: recover: short page record at LSN %d", lsn)
			}
			pending = append(pending, pimg{
				id:  binary.LittleEndian.Uint32(payload),
				img: append([]byte(nil), payload[4:]...),
			})
		case wal.RecCommit:
			for _, pi := range pending {
				ok, aerr := p.applyImage(pi.id, pi.img)
				if aerr != nil {
					return aerr
				}
				if ok {
					applied++
				}
			}
			pending = nil
			lastSeq = binary.LittleEndian.Uint64(payload)
		case wal.RecCheckpoint:
			if s := binary.LittleEndian.Uint64(payload); s > lastSeq {
				lastSeq = s
			}
			pending = nil
		}
		return nil
	})
	if rerr != nil {
		return lastSeq, applied, rerr
	}
	if applied > 0 {
		if err := p.f.Sync(); err != nil {
			return lastSeq, applied, fmt.Errorf("pager: recover: %w", err)
		}
		if err := p.readMeta(); err != nil {
			return lastSeq, applied, err
		}
	}
	return lastSeq, applied, nil
}

// applyImage writes one redo page image unless the on-disk page already
// carries an equal or newer LSN. The meta page (no LSN header) is always
// applied; the last committed image wins.
func (p *Pager) applyImage(id uint32, img []byte) (bool, error) {
	if len(img) != p.pageSize {
		return false, fmt.Errorf("pager: recover: page %d image size %d != %d", id, len(img), p.pageSize)
	}
	off := int64(id) * int64(p.pageSize)
	if id != 0 {
		recLSN := binary.LittleEndian.Uint64(img)
		var hdr [PageHdrSize]byte
		n, err := p.f.ReadAt(hdr[:], off)
		if err != nil && err != io.EOF {
			return false, fmt.Errorf("pager: recover: %w", err)
		}
		if n == PageHdrSize {
			if diskLSN := binary.LittleEndian.Uint64(hdr[:]); diskLSN >= recLSN {
				return false, nil
			}
		}
	}
	if p.ioHook != nil {
		if err := p.ioHook("page:write"); err != nil {
			return false, fmt.Errorf("pager: recover: %w", err)
		}
	}
	if _, err := p.f.WriteAt(img, off); err != nil {
		return false, fmt.Errorf("pager: recover: %w", err)
	}
	p.stats.pagesWritten.Add(1)
	return true, nil
}

// Checkpoint makes the data file self-contained: every dirty page and the
// meta page are written back and fsynced, then the WAL is compacted down
// to a single checkpoint record carrying lastSeq. The "wal:mid-checkpoint"
// crash point sits between the two steps — a crash there leaves a fully
// flushed data file plus a still-complete log, either of which recovers.
func (p *Pager) Checkpoint(lastSeq uint64) error {
	p.meta.Lock()
	defer p.meta.Unlock()
	if p.closed.Load() {
		return ErrClosed
	}
	if p.updActive.Load() {
		return ErrUpdateActive
	}
	if err := p.flushMetaLocked(); err != nil {
		return err
	}
	if err := p.f.Sync(); err != nil {
		return fmt.Errorf("pager: checkpoint: %w", err)
	}
	p.dpt.Lock()
	p.dpt.pages = make(map[PageID]uint64)
	p.dpt.Unlock()
	if p.wal != nil {
		if err := p.wal.CrashHook("wal:mid-checkpoint"); err != nil {
			return err
		}
		if err := p.wal.Checkpoint(lastSeq); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes all dirty pages and the meta page to the file.
func (p *Pager) Flush() error {
	p.meta.Lock()
	defer p.meta.Unlock()
	if p.closed.Load() {
		return ErrClosed
	}
	return p.flushMetaLocked()
}

// flushMetaLocked writes back every dirty frame shard by shard, then the
// meta page. Caller holds p.meta (lock order meta → shard). Refuses to run
// under an open update unit — that would push uncommitted pages to disk.
func (p *Pager) flushMetaLocked() error {
	if p.updActive.Load() {
		return ErrUpdateActive
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for j := range sh.frames {
			fr := &sh.frames[j]
			if fr.valid && fr.dirty {
				if err := p.writeFrame(fr); err != nil {
					sh.mu.Unlock()
					return err
				}
			}
		}
		sh.mu.Unlock()
	}
	return p.writeMetaLocked()
}

// Sync flushes and fsyncs the file.
func (p *Pager) Sync() error {
	if err := p.Flush(); err != nil {
		return err
	}
	return p.f.Sync()
}

// Close flushes and closes the file. Setting the closed flag and then
// sweeping every shard mutex (the flush does both) acts as a barrier: any
// fetch that entered its shard before the sweep completes its I/O first,
// and any later one sees the flag and returns ErrClosed, so the
// descriptor is never closed under an in-flight read.
func (p *Pager) Close() error {
	// Take the meta lock before swapping the flag so concurrent Close
	// calls serialize: the loser blocks until the winner has flushed and
	// closed the file, preserving "Close returned ⇒ flushed and closed".
	p.meta.Lock()
	defer p.meta.Unlock()
	if p.closed.Swap(true) {
		return nil
	}
	var err error
	if !p.readOnly {
		err = p.flushMetaLocked()
	} else {
		// Read-only: nothing to flush, but still sweep the shard locks to
		// serialize with in-flight fetches before closing the file.
		p.shardBarrier()
	}
	if cerr := p.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// CloseNoFlush closes the file descriptor without writing anything back —
// the crash harness's simulated kill -9. Page writes that completed
// earlier survive (they reached the OS); everything buffered in the pool
// or the unit state is lost.
func (p *Pager) CloseNoFlush() error {
	p.meta.Lock()
	defer p.meta.Unlock()
	if p.closed.Swap(true) {
		return nil
	}
	p.shardBarrier()
	return p.f.Close()
}

func (p *Pager) shardBarrier() {
	for i := range p.shards {
		p.shards[i].mu.Lock()
		p.shards[i].mu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	}
}
