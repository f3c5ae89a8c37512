package recfile

import (
	"container/heap"
	"io"
	"os"

	"xqdb/internal/limit"
)

// DefaultSortBudget is the in-memory run size used when Sorter.Budget is
// zero (4 MiB).
const DefaultSortBudget = 4 << 20

// DefaultFanin is the merge fan-in used when Sorter.Fanin is zero.
const DefaultFanin = 16

// maxBudget caps a run's budget, so arena offsets fit a uint32.
const maxBudget = 1 << 30

// SortStats reports what the external sort did.
type SortStats struct {
	Records     int64
	Runs        int   // initial sorted runs spilled
	MergePasses int   // extra merge passes beyond the final one
	Spilled     int64 // bytes written to run files
	InMemory    bool  // true if everything fit in the budget
}

// Sorter accumulates records and produces them in sorted order, spilling
// sorted runs to disk when the memory budget is exceeded and k-way merging
// them (textbook external merge sort).
//
// Error contract: when Add or Sort returns an error, the Sorter has
// already removed its run files and released its governor reservations;
// callers only need to stop using it. Abort does the same for a Sorter
// abandoned mid-accumulation (e.g. on deadline).
type Sorter struct {
	dir    string
	cmp    func(a, b []byte) int
	budget int
	fanin  int
	gov    *limit.Budget
	hook   func(op string) error

	// The current run: its records' bytes, back to back in arrival
	// order, and one span per record, which the run sort orders. Both
	// are reused by the next run once a run has spilled.
	arena    []byte
	cur      []span
	aux      []span // merge sort scratch, half as long as cur
	curBytes int
	reserved int
	runs     []string
	stats    SortStats
}

// NewSorter returns a Sorter writing run files into dir, ordering records
// by cmp. A budget of 0 selects DefaultSortBudget.
func NewSorter(dir string, cmp func(a, b []byte) int, budget int) *Sorter {
	if budget <= 0 {
		budget = DefaultSortBudget
	}
	budget = min(budget, maxBudget)
	return &Sorter{dir: dir, cmp: cmp, budget: budget, fanin: DefaultFanin}
}

// SetGovernor makes the sorter draw its in-memory bytes from the per-query
// budget; when a reservation is refused the current run spills early.
func (s *Sorter) SetGovernor(gov *limit.Budget) { s.gov = gov }

// SetHook installs a fault-injection hook consulted on run-file writes.
func (s *Sorter) SetHook(h func(op string) error) { s.hook = h }

// span locates one record of the current run in the arena.
type span struct{ off, n uint32 }

func (s *Sorter) rec(p span) []byte { return s.arena[p.off : p.off+p.n : p.off+p.n] }

// Add appends one record (the slice is copied).
func (s *Sorter) Add(rec []byte) error {
	need := len(rec) + memRecOverhead
	s.cur = append(s.cur, span{uint32(len(s.arena)), uint32(len(rec))})
	s.arena = append(s.arena, rec...)
	s.curBytes += need
	s.stats.Records++
	if s.curBytes >= s.budget || !s.gov.Reserve(need) {
		return s.spill()
	}
	s.reserved += need
	return nil
}

func (s *Sorter) sortCur() {
	if cap(s.aux) < len(s.cur)/2 {
		s.aux = make([]span, cap(s.cur)/2)
	}
	s.mergeSort(s.cur, s.aux[:len(s.cur)/2])
}

// mergeSort sorts recs by cmp, equal records in arrival order: a top-down
// merge sort that moves the left half into aux (len(recs)/2 long) before
// each merge, and skips a merge whose halves are already in order.
func (s *Sorter) mergeSort(recs, aux []span) {
	if len(recs) <= 12 {
		for i := 1; i < len(recs); i++ {
			for j := i; j > 0 && s.less(recs[j], recs[j-1]); j-- {
				recs[j], recs[j-1] = recs[j-1], recs[j]
			}
		}
		return
	}
	mid := len(recs) / 2
	s.mergeSort(recs[:mid], aux)
	s.mergeSort(recs[mid:], aux)
	if !s.less(recs[mid], recs[mid-1]) {
		return
	}
	left := aux[:copy(aux, recs[:mid])]
	i, j, k := 0, mid, 0
	for i < len(left) && j < len(recs) {
		if s.less(recs[j], left[i]) {
			recs[k] = recs[j]
			j++
		} else {
			recs[k] = left[i]
			i++
		}
		k++
	}
	copy(recs[k:], left[i:])
}

func (s *Sorter) less(a, b span) bool { return s.cmp(s.rec(a), s.rec(b)) < 0 }

// Abort discards accumulated state, removes every run file, and releases
// governor reservations. For callers that stop sorting early (deadline,
// upstream error) before Sort produced an Iterator.
func (s *Sorter) Abort() { s.cleanup() }

func (s *Sorter) cleanup() {
	for _, p := range s.runs {
		os.Remove(p)
	}
	s.runs = nil
	s.arena, s.cur, s.aux = nil, nil, nil
	s.curBytes = 0
	s.gov.Release(s.reserved)
	s.reserved = 0
}

func (s *Sorter) spill() error {
	if len(s.cur) == 0 {
		return nil
	}
	s.sortCur()
	path := TempPath(s.dir, "sortrun")
	w, err := CreateWriter(path)
	if err != nil {
		s.cleanup()
		return err
	}
	w.Hook = s.hook
	for _, p := range s.cur {
		if err := w.Append(s.rec(p)); err != nil {
			w.Abort()
			s.cleanup()
			return err
		}
	}
	if err := w.Finish(); err != nil {
		os.Remove(path)
		s.cleanup()
		return err
	}
	s.stats.Spilled += w.Bytes()
	s.stats.Runs++
	s.runs = append(s.runs, path)
	s.arena, s.cur = s.arena[:0], s.cur[:0]
	s.curBytes = 0
	s.gov.Release(s.reserved)
	s.reserved = 0
	return nil
}

// Stats returns sort statistics; complete after Sort has been called.
func (s *Sorter) Stats() SortStats { return s.stats }

// Iterator yields sorted records. Close releases and deletes any run files.
type Iterator struct {
	// in-memory case: the sorter's own run, whose governor reservations
	// the iterator returns when it closes
	mem *Sorter
	idx int
	// merge case
	h       *mergeHeap
	spare   []byte // the record Next returned last, free on the next call
	readers []*Reader
}

// Sort finishes accumulation and returns an iterator over all records in
// cmp order. The Sorter must not be used after Sort (except to read
// Stats). On error all run files have been removed.
func (s *Sorter) Sort() (*Iterator, error) {
	if len(s.runs) == 0 {
		s.sortCur()
		s.stats.InMemory = true
		return &Iterator{mem: s}, nil
	}
	if err := s.spill(); err != nil {
		return nil, err
	}
	// Reduce the number of runs to at most fanin with intermediate passes.
	for len(s.runs) > s.fanin {
		var next []string
		for i := 0; i < len(s.runs); i += s.fanin {
			end := i + s.fanin
			if end > len(s.runs) {
				end = len(s.runs)
			}
			merged, err := s.mergeToFile(s.runs[i:end])
			if err != nil {
				for _, p := range next {
					os.Remove(p)
				}
				s.cleanup()
				return nil, err
			}
			next = append(next, merged)
		}
		s.runs = next
		s.stats.MergePasses++
	}
	it, err := s.openMerge(s.runs)
	if err != nil {
		// openMerge's partial Close removed the runs it had opened;
		// sweep the rest.
		s.cleanup()
		return nil, err
	}
	return it, nil
}

func (s *Sorter) mergeToFile(runs []string) (string, error) {
	it, err := s.openMerge(runs)
	if err != nil {
		return "", err
	}
	defer it.Close()
	path := TempPath(s.dir, "sortmerge")
	w, err := CreateWriter(path)
	if err != nil {
		return "", err
	}
	w.Hook = s.hook
	for {
		rec, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			w.Abort()
			return "", err
		}
		if err := w.Append(rec); err != nil {
			w.Abort()
			return "", err
		}
	}
	if err := w.Finish(); err != nil {
		os.Remove(path)
		return "", err
	}
	s.stats.Spilled += w.Bytes()
	return path, nil
}

func (s *Sorter) openMerge(runs []string) (*Iterator, error) {
	h := &mergeHeap{cmp: s.cmp}
	it := &Iterator{h: h}
	for runIdx, path := range runs {
		r, err := OpenReader(path)
		if err != nil {
			it.Close()
			return nil, err
		}
		it.readers = append(it.readers, r)
		rec, err := r.Next()
		if err == io.EOF {
			continue
		}
		if err != nil {
			it.Close()
			return nil, err
		}
		h.items = append(h.items, mergeItem{rec: rec, src: r, run: runIdx})
	}
	heap.Init(h)
	return it, nil
}

// Next returns the next record in sorted order, or io.EOF. The slice is
// valid until the following Next call.
func (it *Iterator) Next() ([]byte, error) {
	if s := it.mem; s != nil {
		if it.idx >= len(s.cur) {
			return nil, io.EOF
		}
		it.idx++
		return s.rec(s.cur[it.idx-1]), nil
	}
	if it.h.Len() == 0 {
		return nil, io.EOF
	}
	// The head record goes out as it is; its source refills into the
	// buffer of the record returned last, which the caller has given up.
	top := &it.h.items[0]
	out := top.rec
	top.src.buf = it.spare
	rec, err := top.src.Next()
	switch {
	case err == io.EOF:
		heap.Pop(it.h)
	case err != nil:
		return nil, err
	default:
		top.rec = rec
		heap.Fix(it.h, 0)
	}
	it.spare = out
	return out, nil
}

// Close releases readers, deletes run files, and returns governor
// reservations. Safe to call before exhaustion and more than once.
func (it *Iterator) Close() error {
	var err error
	for _, r := range it.readers {
		if e := r.f.Close(); err == nil {
			err = e
		}
		if e := os.Remove(r.path); err == nil {
			err = e
		}
	}
	it.readers = nil
	it.h = nil
	if s := it.mem; s != nil {
		s.gov.Release(s.reserved)
		s.reserved = 0
		it.mem = nil
	}
	return err
}

type mergeItem struct {
	rec []byte // head record, in src's buffer
	src *Reader
	run int // run index; ties break toward earlier runs to keep Sort stable
}

type mergeHeap struct {
	items []mergeItem
	cmp   func(a, b []byte) int
}

func (h *mergeHeap) Len() int { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool {
	c := h.cmp(h.items[i].rec, h.items[j].rec)
	if c != 0 {
		return c < 0
	}
	return h.items[i].run < h.items[j].run
}
func (h *mergeHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x any)    { h.items = append(h.items, x.(mergeItem)) }
func (h *mergeHeap) Pop() any {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}
