package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"xqdb/internal/pager"
)

func newPager(t testing.TB, frames int) *pager.Pager {
	t.Helper()
	pg, err := pager.Open(filepath.Join(t.TempDir(), "t.db"), pager.Options{CacheFrames: frames})
	if err != nil {
		t.Fatalf("pager.Open: %v", err)
	}
	t.Cleanup(func() { pg.Close() })
	return pg
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }

func TestInsertGetSmall(t *testing.T) {
	pg := newPager(t, 64)
	tr, err := Create(pg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tr.Insert(key(i), val(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := 0; i < 100; i++ {
		v, ok, err := tr.Get(key(i))
		if err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(v, val(i)) {
			t.Fatalf("get %d: got %q want %q", i, v, val(i))
		}
	}
	if _, ok, _ := tr.Get([]byte("missing")); ok {
		t.Fatal("found missing key")
	}
}

func TestInsertManySplits(t *testing.T) {
	pg := newPager(t, 64)
	tr, err := Create(pg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	perm := rand.New(rand.NewSource(42)).Perm(n)
	for _, i := range perm {
		if err := tr.Insert(key(i), val(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	h, err := tr.Height()
	if err != nil {
		t.Fatal(err)
	}
	if h < 2 {
		t.Fatalf("expected multi-level tree, height=%d", h)
	}
	// Verify full ordered iteration.
	keys, _ := scanRange(t, tr, nil, nil)
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			t.Fatalf("keys out of order: %q then %q", keys[i-1], keys[i])
		}
	}
	if len(keys) != n {
		t.Fatalf("iterated %d keys, want %d", len(keys), n)
	}
}

func TestInsertReplace(t *testing.T) {
	pg := newPager(t, 64)
	tr, _ := Create(pg)
	if err := tr.Insert([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tr.Get([]byte("k"))
	if err != nil || !ok || string(v) != "v2" {
		t.Fatalf("got %q ok=%v err=%v, want v2", v, ok, err)
	}
	if n := countKeys(t, tr); n != 1 {
		t.Fatalf("len=%d, want 1", n)
	}
}

func TestDelete(t *testing.T) {
	pg := newPager(t, 64)
	tr, _ := Create(pg)
	for i := 0; i < 1000; i++ {
		tr.Insert(key(i), val(i))
	}
	for i := 0; i < 1000; i += 2 {
		ok, err := tr.Delete(key(i))
		if err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	for i := 0; i < 1000; i++ {
		_, ok, _ := tr.Get(key(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("after delete, get %d: ok=%v want %v", i, ok, want)
		}
	}
	if ok, _ := tr.Delete([]byte("missing")); ok {
		t.Fatal("deleted missing key")
	}
}

func TestSeekAndRange(t *testing.T) {
	pg := newPager(t, 64)
	tr, _ := Create(pg)
	for i := 0; i < 500; i++ {
		tr.Insert(key(i*2), val(i*2)) // even keys only
	}
	var first []byte
	if _, err := tr.SeekBatchRange(key(101), nil).NextLeaf(func(k, _ []byte) { // between 100 and 102
		if first == nil {
			first = append([]byte(nil), k...)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, key(102)) {
		t.Fatalf("seek landed on %q, want %q", first, key(102))
	}

	got, _ := scanRange(t, tr, key(10), key(20))
	want := []string{"key-00000010", "key-00000012", "key-00000014", "key-00000016", "key-00000018"}
	if fmt.Sprintf("%s", got) != fmt.Sprint(want) {
		t.Fatalf("range got %s want %v", got, want)
	}
}

func TestScanPrefix(t *testing.T) {
	pg := newPager(t, 64)
	tr, _ := Create(pg)
	tr.Insert([]byte("a/1"), nil)
	tr.Insert([]byte("a/2"), nil)
	tr.Insert([]byte("ab/1"), nil)
	tr.Insert([]byte("b/1"), nil)
	prefix := []byte("a/")
	got, _ := scanRange(t, tr, prefix, PrefixSuccessor(prefix))
	if fmt.Sprintf("%s", got) != "[a/1 a/2]" {
		t.Fatalf("prefix scan got %s", got)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.db")
	pg, err := pager.Open(path, pager.Options{CacheFrames: 32})
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := Create(pg)
	var root pager.PageID
	tr.OnRootChange(func(id pager.PageID) { root = id })
	root = tr.Root()
	for i := 0; i < 5000; i++ {
		if err := tr.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	root = tr.Root()
	if err := pg.Close(); err != nil {
		t.Fatal(err)
	}

	pg2, err := pager.Open(path, pager.Options{CacheFrames: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer pg2.Close()
	tr2 := Open(pg2, root)
	for i := 0; i < 5000; i += 97 {
		v, ok, err := tr2.Get(key(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("reopen get %d: %q ok=%v err=%v", i, v, ok, err)
		}
	}
	if n := countKeys(t, tr2); n != 5000 {
		t.Fatalf("reopened tree scans %d keys, want 5000", n)
	}
}

func TestBulkLoadAndLookup(t *testing.T) {
	pg := newPager(t, 64)
	const n = 30000
	i := 0
	tr, err := BulkLoad(pg, func() (k, v []byte, ok bool, err error) {
		if i >= n {
			return nil, nil, false, nil
		}
		k, v = key(i), val(i)
		i++
		return k, v, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := countKeys(t, tr); got != n {
		t.Fatalf("len=%d want %d", got, n)
	}
	for _, probe := range []int{0, 1, 4999, 17000, n - 1} {
		v, ok, err := tr.Get(key(probe))
		if err != nil || !ok || !bytes.Equal(v, val(probe)) {
			t.Fatalf("bulk get %d: ok=%v err=%v", probe, ok, err)
		}
	}
	// Bulk-loaded tree accepts further inserts.
	if err := tr.Insert([]byte("key-99999999"), []byte("late")); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := tr.Get([]byte("key-99999999"))
	if !ok || string(v) != "late" {
		t.Fatal("post-bulk insert lookup failed")
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	pg := newPager(t, 64)
	seq := [][]byte{[]byte("b"), []byte("a")}
	i := 0
	_, err := BulkLoad(pg, func() (k, v []byte, ok bool, err error) {
		if i >= len(seq) {
			return nil, nil, false, nil
		}
		k = seq[i]
		i++
		return k, nil, true, nil
	})
	if err == nil {
		t.Fatal("bulk load accepted unsorted keys")
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	pg := newPager(t, 64)
	tr, err := BulkLoad(pg, func() (k, v []byte, ok bool, err error) {
		return nil, nil, false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := countKeys(t, tr); n != 0 {
		t.Fatalf("empty bulk load has %d keys", n)
	}
}

func TestLargeValues(t *testing.T) {
	pg := newPager(t, 64)
	tr, _ := Create(pg)
	big := bytes.Repeat([]byte("x"), 3000)
	for i := 0; i < 20; i++ {
		if err := tr.Insert(key(i), big); err != nil {
			t.Fatalf("insert big %d: %v", i, err)
		}
	}
	v, ok, err := tr.Get(key(7))
	if err != nil || !ok || !bytes.Equal(v, big) {
		t.Fatalf("big get: ok=%v err=%v len=%d", ok, err, len(v))
	}
	// A cell too large for a page must be rejected cleanly.
	tooBig := bytes.Repeat([]byte("y"), pg.PageSize())
	if err := tr.Insert([]byte("huge"), tooBig); err == nil {
		t.Fatal("oversized cell accepted")
	}
}

// TestQuickAgainstMap drives the tree with random operations and checks it
// against a map model (property-based differential test).
func TestQuickAgainstMap(t *testing.T) {
	pg := newPager(t, 64)
	tr, _ := Create(pg)
	model := map[string]string{}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(7))}
	op := func(k uint16, v uint16, del bool) bool {
		ks := fmt.Sprintf("k%05d", k%4096)
		vs := fmt.Sprintf("v%d", v)
		if del {
			delete(model, ks)
			if _, err := tr.Delete([]byte(ks)); err != nil {
				t.Fatalf("delete: %v", err)
			}
		} else {
			model[ks] = vs
			if err := tr.Insert([]byte(ks), []byte(vs)); err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
		got, ok, err := tr.Get([]byte(ks))
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		want, wantOK := model[ks]
		return ok == wantOK && (!ok || string(got) == want)
	}
	if err := quick.Check(op, cfg); err != nil {
		t.Fatal(err)
	}
	// Final full comparison in order.
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ks, vs := scanRange(t, tr, nil, nil)
	if len(ks) != len(keys) {
		t.Fatalf("iterated %d keys, model has %d", len(ks), len(keys))
	}
	for i, k := range keys {
		if string(ks[i]) != k {
			t.Fatalf("iteration mismatch at %d", i)
		}
		if string(vs[i]) != model[k] {
			t.Fatalf("value mismatch for %s", k)
		}
	}
}

// BulkLoad allocates per page, not per cell: cells are encoded through
// one reused buffer.
func TestBulkLoadAllocsPerPage(t *testing.T) {
	pg := newPager(t, 64)
	const n = 20000
	var key, val [8]byte
	var pages int64
	var err error
	allocs := testing.AllocsPerRun(3, func() {
		i := 0
		before := pg.Stats().Allocations
		_, err = BulkLoad(pg, func() (k, v []byte, ok bool, err error) {
			if i == n {
				return nil, nil, false, nil
			}
			binary.BigEndian.PutUint64(key[:], uint64(i))
			i++
			return key[:], val[:], true, nil
		})
		pages = pg.Stats().Allocations - before
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d cells, %d pages, %.0f allocations", n, pages, allocs)
	if allocs > 4*float64(pages) {
		t.Fatalf("BulkLoad of %d cells into %d pages made %.0f allocations, want at most 4 per page", n, pages, allocs)
	}
}
