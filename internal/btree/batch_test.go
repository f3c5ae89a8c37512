package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"xqdb/internal/pager"
)

// kv is one cell of a model.
type kv struct{ k, v []byte }

// model is the reference the walkers are checked against: the tree's
// cells as a sorted in-memory slice.
type model []kv

// newModel sorts a key -> value map into a model.
func newModel(m map[string]string) model {
	out := make(model, 0, len(m))
	for k, v := range m {
		out = append(out, kv{[]byte(k), []byte(v)})
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].k, out[j].k) < 0 })
	return out
}

// lowerBound returns the index of the first cell with key >= k.
func (m model) lowerBound(k []byte) int {
	return sort.Search(len(m), func(i int) bool { return bytes.Compare(m[i].k, k) >= 0 })
}

// span returns the cells with lo <= key < hi (nil hi = to the end).
func (m model) span(lo, hi []byte) model {
	i, j := m.lowerBound(lo), len(m)
	if hi != nil {
		j = m.lowerBound(hi)
	}
	if j < i {
		j = i
	}
	return m[i:j]
}

// prefixed returns the cells whose key begins with prefix.
func (m model) prefixed(prefix []byte) model {
	var out model
	for _, c := range m {
		if bytes.HasPrefix(c.k, prefix) {
			out = append(out, c)
		}
	}
	return out
}

// matches reports whether the scanned keys and values equal the model.
func (m model) matches(ks, vs [][]byte) bool {
	if len(ks) != len(m) || len(vs) != len(m) {
		return false
	}
	for i, c := range m {
		if !bytes.Equal(ks[i], c.k) || !bytes.Equal(vs[i], c.v) {
			return false
		}
	}
	return true
}

// drain copies every cell the cursor has left, leaf by leaf. Each leaf
// NextLeaf reports must hold at least one cell, the end must visit none,
// and no pin may survive a call.
func drain(t testing.TB, tr *Tree, c *BatchCursor, ks, vs [][]byte) ([][]byte, [][]byte) {
	t.Helper()
	for {
		n := len(ks)
		more, err := c.NextLeaf(func(k, v []byte) {
			ks = append(ks, append([]byte(nil), k...))
			vs = append(vs, append([]byte(nil), v...))
		})
		if err != nil {
			t.Fatalf("NextLeaf: %v", err)
		}
		if pins := tr.pg.PinnedPages(); pins != 0 {
			t.Fatalf("%d pages pinned after NextLeaf", pins)
		}
		switch {
		case !more && len(ks) != n:
			t.Fatal("NextLeaf visited cells and reported the end")
		case !more:
			return ks, vs
		case len(ks) == n:
			t.Fatal("NextLeaf reported a leaf with no cells")
		}
	}
}

// scanRange drains [lo, hi) (nil hi = to the end) through SeekBatchRange
// and NextLeaf.
func scanRange(t testing.TB, tr *Tree, lo, hi []byte) (ks, vs [][]byte) {
	t.Helper()
	return drain(t, tr, tr.SeekBatchRange(lo, hi), nil, nil)
}

// countKeys counts the tree's cells with a full NextLeaf scan.
func countKeys(t testing.TB, tr *Tree) int {
	t.Helper()
	ks, _ := scanRange(t, tr, nil, nil)
	return len(ks)
}

// buildRandomTree inserts n random-ish keys and returns the tree and its
// model.
func buildRandomTree(t *testing.T, n int, seed int64) (*Tree, model) {
	t.Helper()
	pg := newPager(t, 256)
	tr, err := Create(pg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	m := map[string]string{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k-%06d-%04d", rng.Intn(n*4), i%7)
		v := fmt.Sprintf("v-%d", i)
		if err := tr.Insert([]byte(k), []byte(v)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		m[k] = v
	}
	return tr, newModel(m)
}

// TestBatchScanEquivalence checks NextLeaf scans over random trees and
// random range bounds, present and absent, empty and inverted, against
// the model.
func TestBatchScanEquivalence(t *testing.T) {
	for _, n := range []int{0, 1, 10, 500, 3000} {
		tr, m := buildRandomTree(t, n, int64(n)+1)
		if ks, vs := scanRange(t, tr, nil, nil); !m.matches(ks, vs) {
			t.Fatalf("n=%d: full scan has %d entries, model %d", n, len(ks), len(m))
		}
		rng := rand.New(rand.NewSource(int64(n) * 31))
		bound := func() []byte {
			if len(m) > 0 && rng.Intn(2) == 0 {
				return m[rng.Intn(len(m))].k
			}
			return []byte(fmt.Sprintf("k-%06d", rng.Intn(4*n+1)))
		}
		for trial := 0; trial < 40; trial++ {
			lo, hi := bound(), bound()
			if trial%5 == 0 {
				hi = nil
			}
			want := m.span(lo, hi)
			if ks, vs := scanRange(t, tr, lo, hi); !want.matches(ks, vs) {
				t.Fatalf("n=%d trial %d: range [%q,%q) has %d entries, model %d", n, trial, lo, hi, len(ks), len(want))
			}
		}
	}
}

// TestBatchPrefixEquivalence checks prefix ranges bounded with
// PrefixSuccessor against the model.
func TestBatchPrefixEquivalence(t *testing.T) {
	pg := newPager(t, 128)
	tr, err := Create(pg)
	if err != nil {
		t.Fatal(err)
	}
	kvs := map[string]string{}
	for i := 0; i < 900; i++ {
		k := fmt.Sprintf("p%d/%05d", i%9, i)
		if err := tr.Insert([]byte(k), val(i)); err != nil {
			t.Fatal(err)
		}
		kvs[k] = string(val(i))
	}
	m := newModel(kvs)
	for _, prefix := range []string{"p0/", "p4/", "p8/", "p9/", "", "p", "p3/004"} {
		want := m.prefixed([]byte(prefix))
		ks, vs := scanRange(t, tr, []byte(prefix), PrefixSuccessor([]byte(prefix)))
		if !want.matches(ks, vs) {
			t.Fatalf("prefix %q: %d entries, model %d", prefix, len(ks), len(want))
		}
	}
}

// TestBatchEarlyStop checks that a Visit whose callback returns false
// stops at exactly that cell, and that a BatchCursor abandoned after one
// leaf leaves no pin behind.
func TestBatchEarlyStop(t *testing.T) {
	tr, m := buildRandomTree(t, 2000, 7)
	if len(m) == 0 {
		t.Fatal("empty tree")
	}
	w := tr.LeafWalk()
	for _, stop := range []int{1, 2, 150, 600} {
		lo := m[len(m)/3].k
		var got [][]byte
		if err := w.Visit(lo, func(k, _ []byte) bool {
			got = append(got, append([]byte(nil), k...))
			return len(got) < stop
		}); err != nil {
			t.Fatal(err)
		}
		want := m.span(lo, nil)[:stop]
		if len(got) != len(want) || !bytes.Equal(got[len(got)-1], want[len(want)-1].k) {
			t.Fatalf("Visit stopping after %d cells visited %d", stop, len(got))
		}
		if pins := tr.pg.PinnedPages(); pins != 0 {
			t.Fatalf("%d pages pinned after an early stop", pins)
		}
	}
	got := 0
	if _, err := tr.SeekBatchRange(nil, nil).NextLeaf(func(_, _ []byte) { got++ }); err != nil {
		t.Fatal(err)
	}
	if got == 0 || got >= len(m) {
		t.Fatalf("one leaf held %d of %d keys", got, len(m))
	}
	if pins := tr.pg.PinnedPages(); pins != 0 {
		t.Fatalf("%d pages pinned by an abandoned cursor", pins)
	}
}

// TestBatchCursorResume interleaves point reads with a leaf-at-a-time
// scan: the cursor holds no pin between NextLeaf calls and resumes where
// it stopped.
func TestBatchCursorResume(t *testing.T) {
	tr, m := buildRandomTree(t, 1200, 99)
	c := tr.SeekBatchRange(nil, nil)
	var ks, vs [][]byte
	for i := 0; ; i++ {
		more, err := c.NextLeaf(func(k, v []byte) {
			ks = append(ks, append([]byte(nil), k...))
			vs = append(vs, append([]byte(nil), v...))
		})
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		probe := m[(i*37)%len(m)]
		if v, ok, err := tr.Get(probe.k); err != nil || !ok || !bytes.Equal(v, probe.v) {
			t.Fatalf("Get(%q) between leaves: %q ok=%v err=%v", probe.k, v, ok, err)
		}
	}
	if !m.matches(ks, vs) {
		t.Fatalf("batch cursor returned %d keys, want %d", len(ks), len(m))
	}
}

// emptyLeaves counts the leaves in the chain that hold no cell.
func emptyLeaves(t *testing.T, tr *Tree) int {
	t.Helper()
	p, _, err := tr.seekLeaf(nil)
	n := 0
	for err == nil {
		d := p.Data()
		if nkeys(d) == 0 {
			n++
		}
		next := link(d)
		p.Unpin()
		if next == pager.NilPage {
			return n
		}
		p, err = tr.pg.Read(next)
	}
	t.Fatal(err)
	return 0
}

// TestWalkersAgainstModel drives a tree with seeded random inserts and
// deletes, some of which empty whole leaves (Delete does not rebalance,
// so those stay in the chain), and checks every read path against the
// model: Get, ranges through NextLeaf, prefix ranges, a Reseek
// mid-scan, and runs of Visits in key order through one LeafWalk, with
// early stops.
func TestWalkersAgainstModel(t *testing.T) {
	pg := newPager(t, 16)
	tr, err := Create(pg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	kvs := map[string]string{}
	insert := func(n int) {
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("g%d/%06d", rng.Intn(5), rng.Intn(20000))
			v := fmt.Sprintf("%0*d", rng.Intn(40), i)
			if err := tr.Insert([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			kvs[k] = v
		}
	}
	del := func(k []byte) {
		_, want := kvs[string(k)]
		ok, err := tr.Delete(k)
		if err != nil || ok != want {
			t.Fatalf("Delete(%q) = %v, %v; want %v", k, ok, err, want)
		}
		delete(kvs, string(k))
	}
	insert(4000)
	check(t, tr, newModel(kvs), rng)

	// Delete a random quarter, a few absent keys, and three runs of 400
	// adjacent keys, each longer than a leaf.
	for _, c := range newModel(kvs) {
		if rng.Intn(4) == 0 {
			del(c.k)
		}
	}
	for i := 0; i < 50; i++ {
		del([]byte(fmt.Sprintf("g%d/%06d", rng.Intn(7), rng.Intn(20000))))
	}
	for run := 0; run < 3; run++ {
		m := newModel(kvs)
		start := rng.Intn(len(m) - 400)
		for _, c := range m[start : start+400] {
			del(c.k)
		}
	}
	if n := emptyLeaves(t, tr); n == 0 {
		t.Fatal("no leaf emptied: the deletes do not reach the empty-leaf paths")
	}
	check(t, tr, newModel(kvs), rng)

	insert(500)
	check(t, tr, newModel(kvs), rng)
}

// check runs every read path of tr against m.
func check(t *testing.T, tr *Tree, m model, rng *rand.Rand) {
	t.Helper()
	key := func() []byte {
		if rng.Intn(2) == 0 {
			return m[rng.Intn(len(m))].k
		}
		return []byte(fmt.Sprintf("g%d/%06d", rng.Intn(6), rng.Intn(20000)))
	}
	if ks, vs := scanRange(t, tr, nil, nil); !m.matches(ks, vs) {
		t.Fatalf("full scan: %d entries, model %d", len(ks), len(m))
	}
	for trial := 0; trial < 50; trial++ {
		k := key()
		if trial%5 == 0 {
			k = k[:len(k)-2] // a proper prefix of a key is no key
		}
		i := m.lowerBound(k)
		found := i < len(m) && bytes.Equal(m[i].k, k)
		if v, ok, err := tr.Get(k); err != nil || ok != found || ok && !bytes.Equal(v, m[i].v) {
			t.Fatalf("Get(%q) = %q, %v, %v; model has it: %v", k, v, ok, err, found)
		}
	}
	for trial := 0; trial < 50; trial++ {
		lo, hi := key(), key()
		if trial%7 == 0 {
			hi = nil
		}
		want := m.span(lo, hi)
		if ks, vs := scanRange(t, tr, lo, hi); !want.matches(ks, vs) {
			t.Fatalf("range [%q,%q): %d entries, model %d", lo, hi, len(ks), len(want))
		}
	}
	for _, prefix := range []string{"", "g", "g0/", "g2/", "g4/", "g9/", "g1/01", "g3/019999"} {
		want := m.prefixed([]byte(prefix))
		ks, vs := scanRange(t, tr, []byte(prefix), PrefixSuccessor([]byte(prefix)))
		if !want.matches(ks, vs) {
			t.Fatalf("prefix %q: %d entries, model %d", prefix, len(ks), len(want))
		}
	}

	// Reseek mid-scan: read one leaf, leap forward, drain the rest. The
	// leap keeps the range's upper bound.
	for trial := 0; trial < 30; trial++ {
		lo, hi := key(), key()
		if bytes.Compare(lo, hi) > 0 {
			lo, hi = hi, lo
		}
		c := tr.SeekBatchRange(lo, hi)
		var ks, vs [][]byte
		if _, err := c.NextLeaf(func(k, v []byte) {
			ks = append(ks, append([]byte(nil), k...))
			vs = append(vs, append([]byte(nil), v...))
		}); err != nil {
			t.Fatal(err)
		}
		target := key()
		if len(ks) > 0 && bytes.Compare(target, ks[len(ks)-1]) <= 0 {
			target = append(append([]byte(nil), ks[len(ks)-1]...), 0)
		}
		want := append(m.span(lo, hi)[:len(ks):len(ks)], m.span(target, hi)...)
		c.Reseek(target)
		if ks, vs = drain(t, tr, c, ks, vs); !want.matches(ks, vs) {
			t.Fatalf("range [%q,%q) reseeked to %q: %d entries, model %d", lo, hi, target, len(ks), len(want))
		}
	}

	// Visits in key order through one walk, each stopping after a few
	// cells, and a last one that runs to the end.
	los := make([][]byte, 40)
	for i := range los {
		los[i] = key()
	}
	sort.Slice(los, func(i, j int) bool { return bytes.Compare(los[i], los[j]) < 0 })
	w := tr.LeafWalk()
	for i, lo := range los {
		limit := 1 + rng.Intn(8)
		if i == len(los)-1 {
			limit = len(m)
		}
		var ks, vs [][]byte
		if err := w.Visit(lo, func(k, v []byte) bool {
			ks = append(ks, append([]byte(nil), k...))
			vs = append(vs, append([]byte(nil), v...))
			return len(ks) < limit
		}); err != nil {
			t.Fatal(err)
		}
		want := m.span(lo, nil)
		if len(want) > limit {
			want = want[:limit]
		}
		if !want.matches(ks, vs) {
			t.Fatalf("Visit(%q) stopping after %d: %d entries, model %d", lo, limit, len(ks), len(want))
		}
		if pins := tr.pg.PinnedPages(); pins != 0 {
			t.Fatalf("%d pages pinned after Visit(%q)", pins, lo)
		}
	}
}

// TestLeafWalkRanges visits short ranges through one LeafWalk in sorted,
// reverse and seeded random order, on a pool small enough to evict leaves
// between visits, and checks each visit against the model and that no pin
// survives it.
func TestLeafWalkRanges(t *testing.T) {
	pg := newPager(t, 16)
	tr, err := Create(pg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	kvs := map[string]string{}
	for i := 0; i < n; i += 2 { // odd keys are absent: lower keys in gaps
		if err := tr.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
		kvs[string(key(i))] = string(val(i))
	}
	m := newModel(kvs)
	sorted := make([]int, n+1)
	for i := range sorted {
		sorted[i] = i
	}
	reverse := make([]int, len(sorted))
	for i, v := range sorted {
		reverse[len(sorted)-1-i] = v
	}
	random := rand.New(rand.NewSource(30)).Perm(n + 1)
	for name, order := range map[string][]int{"sorted": sorted, "reverse": reverse, "random": random} {
		w := tr.LeafWalk()
		for _, lo := range order {
			const span = 5
			var ks, vs [][]byte
			if err := w.Visit(key(lo), func(k, v []byte) bool {
				if len(ks) == span {
					return false
				}
				ks = append(ks, append([]byte(nil), k...))
				vs = append(vs, append([]byte(nil), v...))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			want := m.span(key(lo), nil)
			if len(want) > span {
				want = want[:span]
			}
			if !want.matches(ks, vs) {
				t.Fatalf("%s: Visit(%s) = %q, want %d cells", name, key(lo), ks, len(want))
			}
			if pins := pg.PinnedPages(); pins != 0 {
				t.Fatalf("%s: %d pages pinned after Visit(%s)", name, pins, key(lo))
			}
		}
	}
}

// TestLeafWalkSkipsDescent checks that a visit starting inside the leaf
// the previous visit ended in reads that one page, and that a visit
// elsewhere descends.
func TestLeafWalkSkipsDescent(t *testing.T) {
	pg := newPager(t, 256)
	tr, err := Create(pg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if err := tr.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	h, err := tr.Height()
	if err != nil {
		t.Fatal(err)
	}
	if h < 2 {
		t.Fatalf("height %d: the test needs a descent to skip", h)
	}
	reads := func() int64 { s := pg.Stats(); return s.CacheHits + s.CacheMisses }
	first := func(k, _ []byte) bool { return false }
	w := tr.LeafWalk()
	visit := func(lo int) int64 {
		before := reads()
		if err := w.Visit(key(lo), first); err != nil {
			t.Fatal(err)
		}
		return reads() - before
	}
	if got := visit(100); got != int64(h) {
		t.Errorf("first visit read %d pages, want a descent of %d", got, h)
	}
	if got := visit(101); got != 1 {
		t.Errorf("visit in the remembered leaf read %d pages, want 1", got)
	}
	if got := visit(4900); got != int64(1+h) {
		t.Errorf("visit far away read %d pages, want the remembered leaf plus a descent of %d", got, h)
	}
}

// TestPrefixSuccessor pins the range-bound helper's edge cases.
func TestPrefixSuccessor(t *testing.T) {
	cases := []struct {
		in   []byte
		want []byte
	}{
		{[]byte("abc"), []byte("abd")},
		{[]byte{0x01, 0xff}, []byte{0x02}},
		{[]byte{0xff, 0xff}, nil},
		{nil, nil},
		{[]byte{0x00}, []byte{0x01}},
	}
	for _, c := range cases {
		if got := PrefixSuccessor(c.in); !bytes.Equal(got, c.want) {
			t.Errorf("PrefixSuccessor(%x) = %x, want %x", c.in, got, c.want)
		}
	}
}
