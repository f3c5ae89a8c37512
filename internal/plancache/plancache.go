// Package plancache caches compiled physical plans across queries. Heavy
// repeated traffic — the query-server workload — spends most of its
// per-request time in parse + optimize for query texts it has compiled
// hundreds of times before; a hit here skips both entirely.
//
// A cache entry is keyed by the normalized query text, the document it was
// compiled against, that document's statistics epoch, and the
// planner-relevant configuration. The epoch is the invalidation handle:
// reloading a document changes its statistics, which can change the
// optimal plan, so the catalog bumps the epoch and every entry compiled
// under the old one simply stops matching (and is evicted lazily by the
// LRU, or eagerly by InvalidateDoc).
//
// A cached plan is shared: Get hands the same plan to every caller, and
// callers run it as is. Plans never change once built — each run keeps
// its state in its own exec.Ctx — so any number of queries may run one
// cached plan at the same time.
package plancache

import (
	"container/list"
	"strings"
	"sync"

	"xqdb/internal/exec"
	"xqdb/internal/opt"
)

// DocVersion identifies a document at one statistics epoch. The epoch
// changes whenever the document's contents or statistics change, so plans
// compiled against stale statistics can never hit.
type DocVersion struct {
	// Name is the catalog name of the document.
	Name string
	// Epoch is the document's statistics epoch (monotone per name).
	Epoch uint64
}

// Key identifies one cached plan. All fields are comparable values, so Key
// is directly usable as a map key.
type Key struct {
	Doc DocVersion
	// Query is the normalized query text (see Normalize).
	Query string
	// Cfg is the planner configuration the plan was compiled under; any
	// knob that can change the chosen plan is part of the identity.
	Cfg opt.Config
	// Merge records whether relfor merging ran before planning.
	Merge bool
}

// Stats reports cache activity. Hits+Misses is the lookup count.
type Stats struct {
	Hits          int64
	Misses        int64
	Puts          int64
	Evictions     int64
	Invalidations int64
}

// HitRate returns Hits over lookups (0 with no lookups).
func (s Stats) HitRate() float64 {
	if n := s.Hits + s.Misses; n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// Cache is a bounded LRU over compiled plans. All methods are safe for
// concurrent use.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[Key]*list.Element
	lru     *list.List // front = most recent; values are *entry
	stats   Stats
}

type entry struct {
	key  Key
	plan exec.XPlan
}

// DefaultEntries is the default LRU bound.
const DefaultEntries = 256

// New returns a cache bounded to at most capEntries plans (<= 0 uses
// DefaultEntries).
func New(capEntries int) *Cache {
	if capEntries <= 0 {
		capEntries = DefaultEntries
	}
	return &Cache{cap: capEntries, entries: make(map[Key]*list.Element), lru: list.New()}
}

// Get returns the compiled plan for key, if cached. The plan is shared
// with every other caller; run it on a context of your own.
func (c *Cache) Get(key Key) (exec.XPlan, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*entry).plan, true
}

// Put stores a compiled plan under key, evicting the least
// recently used entry past the bound. Re-putting an existing key replaces
// the plan (last compile wins — they are equivalent anyway).
func (c *Cache) Put(key Key, plan exec.XPlan) {
	if c == nil || plan == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Puts++
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry).plan = plan
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&entry{key: key, plan: plan})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry).key)
		c.stats.Evictions++
	}
}

// InvalidateDoc eagerly drops every entry for the named document across
// all epochs. Epoch bumps already prevent stale hits; this frees the
// memory of plans that can never hit again (drop, reload).
func (c *Cache) InvalidateDoc(name string) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*entry); e.key.Doc.Name == name {
			c.lru.Remove(el)
			delete(c.entries, e.key)
			n++
		}
		el = next
	}
	c.stats.Invalidations += int64(n)
	return n
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Normalize canonicalizes a query text for cache keying: runs of
// whitespace outside string literals collapse to one space and the ends
// are trimmed, so reformatting a query cannot cause a spurious miss.
// String literal contents (either quote style) are preserved byte-exact.
// Normalization never parses — a cache hit must skip the parser entirely —
// so two queries that differ beyond whitespace key separately even when
// they parse to the same tree.
func Normalize(src string) string {
	var b strings.Builder
	b.Grow(len(src))
	var quote byte
	space := false
	for i := 0; i < len(src); i++ {
		ch := src[i]
		if quote != 0 {
			b.WriteByte(ch)
			if ch == quote {
				quote = 0
			}
			continue
		}
		switch ch {
		case '\'', '"':
			if space && b.Len() > 0 {
				b.WriteByte(' ')
			}
			space = false
			quote = ch
			b.WriteByte(ch)
		case ' ', '\t', '\n', '\r':
			space = true
		default:
			if space && b.Len() > 0 {
				b.WriteByte(' ')
			}
			space = false
			b.WriteByte(ch)
		}
	}
	return b.String()
}
