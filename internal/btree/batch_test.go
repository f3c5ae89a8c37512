package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// buildRandomTree inserts n random-ish keys and returns the sorted key
// set actually stored.
func buildRandomTree(t *testing.T, n int, seed int64) (*Tree, [][]byte) {
	t.Helper()
	pg := newPager(t, 256)
	tr, err := Create(pg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("k-%06d-%04d", rng.Intn(n*4), i%7))
		v := []byte(fmt.Sprintf("v-%d", i))
		if err := tr.Insert(k, v); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		seen[string(k)] = true
	}
	keys := make([][]byte, 0, len(seen))
	for k := range seen {
		keys = append(keys, []byte(k))
	}
	sortKeys(keys)
	return tr, keys
}

func sortKeys(keys [][]byte) {
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && bytes.Compare(keys[j-1], keys[j]) > 0; j-- {
			keys[j-1], keys[j] = keys[j], keys[j-1]
		}
	}
}

// collectTupleAtATime drains a range with the classic cursor.
func collectTupleAtATime(t *testing.T, tr *Tree, lo, hi []byte) (ks, vs [][]byte) {
	t.Helper()
	err := tr.ScanRange(lo, hi, func(k, v []byte) bool {
		ks = append(ks, append([]byte(nil), k...))
		vs = append(vs, append([]byte(nil), v...))
		return true
	})
	if err != nil {
		t.Fatalf("ScanRange: %v", err)
	}
	return ks, vs
}

// collectBatch drains the same range with the batched API.
func collectBatch(t *testing.T, tr *Tree, lo, hi []byte) (ks, vs [][]byte) {
	t.Helper()
	var b Batch
	err := tr.ScanRangeBatch(lo, hi, &b, func(b *Batch) bool {
		for i := 0; i < b.Len(); i++ {
			ks = append(ks, append([]byte(nil), b.Key(i)...))
			vs = append(vs, append([]byte(nil), b.Value(i)...))
		}
		return true
	})
	if err != nil {
		t.Fatalf("ScanRangeBatch: %v", err)
	}
	return ks, vs
}

func equalSlices(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestBatchScanEquivalence compares batch and tuple-at-a-time scans over
// random trees and random range bounds: both must return byte-identical
// sequences.
func TestBatchScanEquivalence(t *testing.T) {
	for _, n := range []int{0, 1, 10, 500, 3000} {
		tr, keys := buildRandomTree(t, n, int64(n)+1)
		// Full scan.
		k1, v1 := collectTupleAtATime(t, tr, nil, nil)
		k2, v2 := collectBatch(t, tr, nil, nil)
		if !equalSlices(k1, k2) || !equalSlices(v1, v2) {
			t.Fatalf("n=%d: full scan mismatch (%d vs %d entries)", n, len(k1), len(k2))
		}
		if len(k1) != len(keys) {
			t.Fatalf("n=%d: scan returned %d keys, tree has %d", n, len(k1), len(keys))
		}
		// Random sub-ranges, including empty and degenerate ones.
		rng := rand.New(rand.NewSource(int64(n) * 31))
		for trial := 0; trial < 20; trial++ {
			var lo, hi []byte
			if len(keys) > 0 {
				lo = keys[rng.Intn(len(keys))]
				hi = keys[rng.Intn(len(keys))]
				if bytes.Compare(lo, hi) > 0 {
					lo, hi = hi, lo
				}
			}
			k1, v1 := collectTupleAtATime(t, tr, lo, hi)
			k2, v2 := collectBatch(t, tr, lo, hi)
			if !equalSlices(k1, k2) || !equalSlices(v1, v2) {
				t.Fatalf("n=%d trial %d: range [%q,%q) mismatch (%d vs %d)", n, trial, lo, hi, len(k1), len(k2))
			}
		}
	}
}

// TestBatchPrefixEquivalence compares ScanPrefix and ScanPrefixBatch.
func TestBatchPrefixEquivalence(t *testing.T) {
	pg := newPager(t, 128)
	tr, err := Create(pg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 900; i++ {
		k := []byte(fmt.Sprintf("p%d/%05d", i%9, i))
		if err := tr.Insert(k, val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, prefix := range []string{"p0/", "p4/", "p8/", "p9/", "", "p"} {
		var k1, v1, k2, v2 [][]byte
		err := tr.ScanPrefix([]byte(prefix), func(k, v []byte) bool {
			k1 = append(k1, append([]byte(nil), k...))
			v1 = append(v1, append([]byte(nil), v...))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		var b Batch
		err = tr.ScanPrefixBatch([]byte(prefix), &b, func(b *Batch) bool {
			for i := 0; i < b.Len(); i++ {
				k2 = append(k2, append([]byte(nil), b.Key(i)...))
				v2 = append(v2, append([]byte(nil), b.Value(i)...))
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if !equalSlices(k1, k2) || !equalSlices(v1, v2) {
			t.Fatalf("prefix %q: mismatch (%d vs %d entries)", prefix, len(k1), len(k2))
		}
	}
}

// TestBatchEarlyStop checks that returning false from the callback stops
// the scan without error.
func TestBatchEarlyStop(t *testing.T) {
	tr, keys := buildRandomTree(t, 2000, 7)
	if len(keys) == 0 {
		t.Fatal("empty tree")
	}
	var got int
	var b Batch
	err := tr.ScanRangeBatch(nil, nil, &b, func(b *Batch) bool {
		got += b.Len()
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if got == 0 || got >= len(keys) {
		t.Fatalf("early stop visited %d of %d keys", got, len(keys))
	}
}

// TestBatchCursorResume checks NextBatch leaf-at-a-time iteration against
// a full collect, and that cursors see updates-free trees consistently
// without holding pins between calls.
func TestBatchCursorResume(t *testing.T) {
	tr, keys := buildRandomTree(t, 1200, 99)
	c := tr.FirstBatch()
	var got [][]byte
	var b Batch
	for {
		ok, err := c.NextBatch(&b)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if b.Len() == 0 {
			t.Fatal("NextBatch reported ok with an empty batch")
		}
		for i := 0; i < b.Len(); i++ {
			got = append(got, append([]byte(nil), b.Key(i)...))
		}
	}
	if !equalSlices(got, keys) {
		t.Fatalf("batch cursor returned %d keys, want %d", len(got), len(keys))
	}
}

// TestLeafWalkRanges visits short ranges through one LeafWalk in sorted,
// reverse and seeded random order, on a pool small enough to evict leaves
// between visits, and checks each visit against ScanRange and that no pin
// survives it.
func TestLeafWalkRanges(t *testing.T) {
	pg := newPager(t, 16)
	tr, err := Create(pg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for i := 0; i < n; i += 2 { // odd keys are absent: lower keys in gaps
		if err := tr.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
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
			var got [][]byte
			if err := w.Visit(key(lo), func(k, _ []byte) bool {
				if len(got) == span {
					return false
				}
				got = append(got, append([]byte(nil), k...))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			var want [][]byte
			if err := tr.ScanRange(key(lo), nil, func(k, _ []byte) bool {
				want = append(want, append([]byte(nil), k...))
				return len(want) < span
			}); err != nil {
				t.Fatal(err)
			}
			if !equalSlices(got, want) {
				t.Fatalf("%s: Visit(%s) = %q, want %q", name, key(lo), got, want)
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
