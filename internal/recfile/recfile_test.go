package recfile

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"testing"
)

func TestWriteReadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := TempPath(dir, "rt")
	w, err := CreateWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 1000; i++ {
		rec := []byte(fmt.Sprintf("record-%d-%s", i, bytes.Repeat([]byte("x"), i%50)))
		want = append(want, rec)
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 1000 {
		t.Fatalf("count=%d", w.Count())
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Remove()
	for pass := 0; pass < 2; pass++ { // second pass tests Reset
		for i := 0; ; i++ {
			rec, err := r.Next()
			if err == io.EOF {
				if i != len(want) {
					t.Fatalf("pass %d: got %d records, want %d", pass, i, len(want))
				}
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec, want[i]) {
				t.Fatalf("pass %d record %d mismatch", pass, i)
			}
		}
		if err := r.Reset(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEmptyFile(t *testing.T) {
	dir := t.TempDir()
	path := TempPath(dir, "empty")
	w, _ := CreateWriter(path)
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	r, _ := OpenReader(path)
	defer r.Remove()
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestEmptyRecords(t *testing.T) {
	dir := t.TempDir()
	path := TempPath(dir, "zero")
	w, _ := CreateWriter(path)
	w.Append(nil)
	w.Append([]byte{})
	w.Append([]byte("x"))
	w.Finish()
	r, _ := OpenReader(path)
	defer r.Remove()
	for i, wantLen := range []int{0, 0, 1} {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("rec %d: %v", i, err)
		}
		if len(rec) != wantLen {
			t.Fatalf("rec %d: len=%d want %d", i, len(rec), wantLen)
		}
	}
}

func sortAll(t *testing.T, recs [][]byte, budget int) ([][]byte, SortStats) {
	t.Helper()
	s := NewSorter(t.TempDir(), bytes.Compare, budget)
	for _, r := range recs {
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out [][]byte
	for {
		rec, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, append([]byte(nil), rec...))
	}
	return out, s.Stats()
}

func randRecords(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = []byte(fmt.Sprintf("%08d-%d", rng.Intn(n*10), i))
	}
	return recs
}

func checkSorted(t *testing.T, in, out [][]byte) {
	t.Helper()
	if len(out) != len(in) {
		t.Fatalf("sorted %d records, want %d", len(out), len(in))
	}
	want := make([][]byte, len(in))
	copy(want, in)
	sort.SliceStable(want, func(i, j int) bool { return bytes.Compare(want[i], want[j]) < 0 })
	for i := range out {
		if !bytes.Equal(out[i], want[i]) {
			t.Fatalf("record %d: got %q want %q", i, out[i], want[i])
		}
	}
}

func TestSortInMemory(t *testing.T) {
	recs := randRecords(5000, 1)
	out, stats := sortAll(t, recs, 1<<30)
	checkSorted(t, recs, out)
	if !stats.InMemory {
		t.Fatal("expected in-memory sort")
	}
}

func TestSortExternalSingleMerge(t *testing.T) {
	recs := randRecords(20000, 2)
	out, stats := sortAll(t, recs, 32<<10) // tiny budget forces many runs
	checkSorted(t, recs, out)
	if stats.InMemory || stats.Runs == 0 && stats.Spilled == 0 {
		t.Fatalf("expected spilling, stats=%+v", stats)
	}
}

func TestSortExternalMultiPass(t *testing.T) {
	recs := randRecords(60000, 3)
	s := NewSorter(t.TempDir(), bytes.Compare, 8<<10)
	s.fanin = 4 // force multi-pass merging
	for _, r := range recs {
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out [][]byte
	for {
		rec, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, append([]byte(nil), rec...))
	}
	checkSorted(t, recs, out)
	if s.Stats().MergePasses == 0 {
		t.Fatalf("expected multi-pass merge, stats=%+v", s.Stats())
	}
}

func TestSortEmpty(t *testing.T) {
	out, _ := sortAll(t, nil, 1024)
	if len(out) != 0 {
		t.Fatalf("empty sort produced %d records", len(out))
	}
}

func TestSortStable(t *testing.T) {
	// Records with equal keys must retain insertion order (stability
	// matters for hierarchical document order with duplicate prefixes),
	// in memory and through one or several merge passes, where every key
	// recurs in every run.
	var recs [][]byte
	for i := 0; i < 3000; i++ {
		recs = append(recs, []byte(fmt.Sprintf("key-%03d|%06d", i%13, i)))
	}
	cmp := func(a, b []byte) int { return bytes.Compare(a[:7], b[:7]) }
	for _, tc := range []struct {
		name          string
		budget, fanin int
		path          func(SortStats) bool
	}{
		{"in-memory", 1 << 20, DefaultFanin, func(st SortStats) bool { return st.InMemory }},
		{"single-merge", 16 << 10, DefaultFanin, func(st SortStats) bool { return st.Runs > 1 && st.MergePasses == 0 }},
		{"multi-pass", 2 << 10, 4, func(st SortStats) bool { return st.MergePasses >= 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSorter(t.TempDir(), cmp, tc.budget)
			s.fanin = tc.fanin
			for _, r := range recs {
				if err := s.Add(r); err != nil {
					t.Fatal(err)
				}
			}
			it, err := s.Sort()
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			if !tc.path(s.Stats()) {
				t.Fatalf("sort took the wrong path: %+v", s.Stats())
			}
			var last []byte
			n := 0
			for ; ; n++ {
				rec, err := it.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if last != nil && bytes.Compare(last, rec) >= 0 {
					t.Fatalf("record %d: %s after %s: out of order or unstable", n, rec, last)
				}
				last = append(last[:0], rec...)
			}
			if n != len(recs) {
				t.Fatalf("sorted %d records, want %d", n, len(recs))
			}
		})
	}
}

// Add copies records into the run's arena, so it allocates per arena
// growth, not per record.
func TestSorterAddAllocs(t *testing.T) {
	const n = 10000
	rec := []byte("a record of some thirty bytes.")
	dir := t.TempDir()
	allocs := testing.AllocsPerRun(5, func() {
		s := NewSorter(dir, bytes.Compare, 1<<30)
		for i := 0; i < n; i++ {
			if err := s.Add(rec); err != nil {
				t.Fatal(err)
			}
		}
	})
	if per := allocs / n; per >= 0.05 {
		t.Fatalf("Add made %.3f allocations per record, want under 0.05", per)
	}
}
