// Package catalog manages many named documents in one store directory —
// the multi-document layer the query server sits on. Each document lives
// in its own versioned store directory:
//
//	<root>/docs/<name>/v<epoch>/
//
// The epoch is the document's statistics epoch: (re)loading a document
// shreds into a NEW version directory and bumps the epoch, so queries
// already running against the old version keep their store until they
// drain (documents are refcounted), and plan-cache entries compiled under
// the old statistics stop matching by key. Because the epoch is the
// version directory number, it survives restarts — a plan cache persisted
// across a restart could never serve a pre-reload plan.
//
// A version directory counts only once fully shredded (marked by an "ok"
// file); partial directories left by a crashed load are swept on Open.
package catalog

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"xqdb/internal/core"
	"xqdb/internal/plancache"
	"xqdb/internal/store"
	"xqdb/internal/xasr"
)

// nameRE bounds document names to path-safe tokens: no separators, no
// dot-prefixed names, nothing the HTTP layer needs to escape.
var nameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

const okMarker = "ok"

// ErrNotFound reports that a catalog has no document under the requested
// name. Callers map it to their own not-found signaling (HTTP 404).
var ErrNotFound = errors.New("no such document")

// ErrBadName is returned by Load for a name that is not 1 to 64 of
// [A-Za-z0-9._-], starting with a letter or a digit.
var ErrBadName = errors.New("invalid document name")

// Options configures a catalog.
type Options struct {
	// Store is applied to every document store opened or created.
	Store store.Options
	// PlanCache, when set, is shared by every engine the catalog hands
	// out, and is invalidated when a document is reloaded or dropped.
	PlanCache *plancache.Cache
}

// Catalog is a set of named documents under one root directory. All
// methods are safe for concurrent use.
type Catalog struct {
	root string
	opts Options

	mu   sync.Mutex
	docs map[string]*Doc // live version per name
}

// Doc is one loaded document version. Holders acquire it from the catalog
// and must Release it; the backing store stays open (even across a reload
// or drop of the name) until the last holder releases.
type Doc struct {
	name  string
	epoch uint64 // version-directory number (fixed for this Doc's lifetime)
	dir   string
	st    *store.Store
	cache *plancache.Cache

	// statsEpoch is the statistics epoch exposed to the plan cache. It
	// starts at the directory epoch plus the store's applied-update
	// sequence (so a restart after updates never repeats a pre-update
	// identity) and bumps on every in-place update.
	statsEpoch atomic.Uint64

	// updMu serializes update statements against this version; queries
	// are unaffected (the store itself is safe for concurrent readers).
	updMu sync.Mutex

	mu      sync.Mutex
	refs    int
	retired bool // a newer version replaced this one, or the name was dropped
	purge   bool // remove the version directory once drained (drop)
}

// Open opens (or initializes) a catalog rooted at dir. Existing documents
// are recovered from their highest complete version directory; partial
// version directories — a load that crashed mid-shred — are removed.
func Open(dir string, opts Options) (*Catalog, error) {
	c := &Catalog{root: dir, opts: opts, docs: make(map[string]*Doc)}
	if err := os.MkdirAll(c.docsDir(), 0o755); err != nil {
		return nil, err
	}
	names, err := os.ReadDir(c.docsDir())
	if err != nil {
		return nil, err
	}
	for _, ent := range names {
		if !ent.IsDir() || !nameRE.MatchString(ent.Name()) {
			continue
		}
		if err := c.recover(ent.Name()); err != nil {
			return nil, fmt.Errorf("catalog: recover %s: %w", ent.Name(), err)
		}
	}
	return c, nil
}

func (c *Catalog) docsDir() string { return filepath.Join(c.root, "docs") }

func (c *Catalog) versionDir(name string, epoch uint64) string {
	return filepath.Join(c.docsDir(), name, fmt.Sprintf("v%d", epoch))
}

// recover opens the highest complete version of name and sweeps the rest.
func (c *Catalog) recover(name string) error {
	nameDir := filepath.Join(c.docsDir(), name)
	ents, err := os.ReadDir(nameDir)
	if err != nil {
		return err
	}
	var epochs []uint64
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		n, perr := strconv.ParseUint(strings.TrimPrefix(ent.Name(), "v"), 10, 64)
		if perr != nil || !strings.HasPrefix(ent.Name(), "v") {
			continue
		}
		epochs = append(epochs, n)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] > epochs[j] })
	live := false
	for _, epoch := range epochs {
		dir := c.versionDir(name, epoch)
		if _, err := os.Stat(filepath.Join(dir, okMarker)); err != nil || live {
			// Partial (crashed load) or superseded: sweep it.
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			continue
		}
		st, err := store.Open(dir, c.opts.Store)
		if err != nil {
			return err
		}
		doc := &Doc{name: name, epoch: epoch, dir: dir, st: st, cache: c.opts.PlanCache, refs: 1}
		doc.statsEpoch.Store(epoch + st.AppliedSeq())
		c.docs[name] = doc
		live = true
	}
	if !live {
		// Nothing complete survived; drop the empty name directory.
		return os.RemoveAll(nameDir)
	}
	return nil
}

// Load shreds a document from r under name, replacing any existing
// version. Running queries against the old version are unaffected — they
// drain on their own store — and plan-cache entries for the name are
// invalidated. Returns the new statistics epoch.
func (c *Catalog) Load(name string, r io.Reader) (uint64, error) {
	if !nameRE.MatchString(name) {
		return 0, fmt.Errorf("catalog: %w %q", ErrBadName, name)
	}
	// Shred outside the catalog lock: loads are long and must not block
	// queries on other documents.
	c.mu.Lock()
	epoch := uint64(1)
	if old := c.docs[name]; old != nil {
		// The stats epoch can run ahead of the directory epoch (in-place
		// updates bump it); base the new directory past both so cache
		// identities never repeat.
		epoch = old.Epoch() + 1
	}
	c.mu.Unlock()

	dir := c.versionDir(name, epoch)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	st, err := store.Open(dir, c.opts.Store)
	if err != nil {
		return 0, err
	}
	if err := st.Load(r); err != nil {
		st.Close()
		os.RemoveAll(dir)
		return 0, err
	}
	if err := os.WriteFile(filepath.Join(dir, okMarker), nil, 0o644); err != nil {
		st.Close()
		os.RemoveAll(dir)
		return 0, err
	}

	doc := &Doc{name: name, epoch: epoch, dir: dir, st: st, cache: c.opts.PlanCache, refs: 1}
	doc.statsEpoch.Store(epoch)
	c.mu.Lock()
	old := c.docs[name]
	c.docs[name] = doc
	c.mu.Unlock()
	c.opts.PlanCache.InvalidateDoc(name)
	if old != nil {
		old.retire(true)
	}
	return epoch, nil
}

// LoadString is Load from a string (tests, CLI).
func (c *Catalog) LoadString(name, doc string) (uint64, error) {
	return c.Load(name, strings.NewReader(doc))
}

// Update applies one update statement to the live version of name,
// atomically and durably (WAL-first; a crash mid-update recovers to
// either the pre- or post-update state). Updates on the same document
// serialize; queries keep running throughout. On success the document's
// statistics epoch bumps, so cached plans compiled under the old
// statistics stop matching and are eagerly invalidated.
func (c *Catalog) Update(name, stmt string) (core.UpdateResult, error) {
	doc, err := c.Acquire(name)
	if err != nil {
		return core.UpdateResult{}, err
	}
	defer doc.Release()
	doc.updMu.Lock()
	defer doc.updMu.Unlock()
	res, err := doc.Engine(core.Config{}).Update(stmt)
	if res.Applied > 0 {
		// Bump even when err != nil: a post-durability fault means the
		// change IS applied and cached plans are stale regardless.
		doc.statsEpoch.Add(1)
		c.opts.PlanCache.InvalidateDoc(name)
	}
	return res, err
}

// Acquire returns the live version of name with a reference held. Callers
// must Release it when their query finishes.
func (c *Catalog) Acquire(name string) (*Doc, error) {
	c.mu.Lock()
	doc := c.docs[name]
	c.mu.Unlock()
	if doc == nil {
		return nil, fmt.Errorf("catalog: %w: %q", ErrNotFound, name)
	}
	doc.mu.Lock()
	defer doc.mu.Unlock()
	if doc.retired && doc.refs == 0 {
		// Lost a race with Drop's final release; the store is closed.
		return nil, fmt.Errorf("catalog: %w: %q", ErrNotFound, name)
	}
	doc.refs++
	return doc, nil
}

// Drop removes name from the catalog and deletes its data once running
// queries drain. Plan-cache entries for the name are invalidated.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	doc := c.docs[name]
	delete(c.docs, name)
	c.mu.Unlock()
	if doc == nil {
		return fmt.Errorf("catalog: %w: %q", ErrNotFound, name)
	}
	c.opts.PlanCache.InvalidateDoc(name)
	doc.retire(true)
	return nil
}

// Info describes one live document.
type Info struct {
	Name  string `json:"name"`
	Epoch uint64 `json:"epoch"`
	Nodes int64  `json:"nodes"`
	Elems int64  `json:"elems"`
	Texts int64  `json:"texts"`
	// Queries is the number of queries currently holding the document.
	Queries int `json:"queries"`
	// AppliedSeq is the number of update statements applied to this
	// version; WALBytes and CheckpointLSN describe its write-ahead log.
	AppliedSeq    uint64 `json:"applied_seq"`
	WALBytes      int64  `json:"wal_bytes"`
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
}

// List returns the live documents sorted by name.
func (c *Catalog) List() []Info {
	c.mu.Lock()
	docs := make([]*Doc, 0, len(c.docs))
	for _, d := range c.docs {
		docs = append(docs, d)
	}
	c.mu.Unlock()
	infos := make([]Info, 0, len(docs))
	for _, d := range docs {
		info := Info{
			Name:          d.name,
			Epoch:         d.Epoch(),
			AppliedSeq:    d.st.AppliedSeq(),
			WALBytes:      d.st.WALBytes(),
			CheckpointLSN: d.st.LastCheckpointLSN(),
		}
		if st := d.st.Stats(); st != nil {
			info.Nodes, info.Elems, info.Texts = st.Nodes, st.Elems, st.Texts
		}
		d.mu.Lock()
		info.Queries = d.refs - 1 // the catalog's own reference doesn't count
		if info.Queries < 0 {
			info.Queries = 0
		}
		d.mu.Unlock()
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Close retires every document; stores close as their queries drain (all
// of them immediately when idle). Data stays on disk.
func (c *Catalog) Close() error {
	c.mu.Lock()
	docs := make([]*Doc, 0, len(c.docs))
	for _, d := range c.docs {
		docs = append(docs, d)
	}
	c.docs = make(map[string]*Doc)
	c.mu.Unlock()
	for _, d := range docs {
		d.retire(false)
	}
	return nil
}

// Name returns the document's catalog name.
func (d *Doc) Name() string { return d.name }

// Epoch returns the document's statistics epoch: the version-directory
// number plus one per in-place update applied to it.
func (d *Doc) Epoch() uint64 { return d.statsEpoch.Load() }

// Store returns the backing store (valid until Release).
func (d *Doc) Store() *store.Store { return d.st }

// Stats returns the document's XASR statistics.
func (d *Doc) Stats() *xasr.Stats { return d.st.Stats() }

// Version returns the plan-cache identity of this document version.
func (d *Doc) Version() plancache.DocVersion {
	return plancache.DocVersion{Name: d.name, Epoch: d.Epoch()}
}

// Engine returns a query engine over this document version, wired to the
// catalog's shared plan cache under this version's cache identity.
func (d *Doc) Engine(cfg core.Config) *core.Engine {
	cfg.PlanCache = d.cache
	cfg.CacheDoc = d.Version()
	return core.New(d.st, cfg)
}

// Release drops the holder's reference. When a retired version drains, its
// store closes (and, after a drop, its directory is deleted).
func (d *Doc) Release() {
	d.mu.Lock()
	d.refs--
	drained := d.refs == 0 && d.retired
	purge := d.purge
	d.mu.Unlock()
	if drained {
		d.st.Close()
		if purge {
			os.RemoveAll(d.dir)
			// Remove the name directory too if this was the last version.
			if parent := filepath.Dir(d.dir); parent != "" {
				os.Remove(parent) // fails (correctly) unless empty
			}
		}
	}
}

// retire drops the catalog's own reference: the version closes once (and
// if) its queries drain. purge additionally deletes the data.
func (d *Doc) retire(purge bool) {
	d.mu.Lock()
	d.retired = true
	if purge {
		d.purge = true
	}
	d.mu.Unlock()
	d.Release()
}
