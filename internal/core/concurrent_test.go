package core

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"xqdb/internal/limit"
	"xqdb/internal/plancache"
	"xqdb/internal/store"
)

func concurrentFixture(t *testing.T, n int) *store.Store {
	t.Helper()
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<x>%d</x>", i)
	}
	b.WriteString("</r>")
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.LoadString(b.String()); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestConcurrentQueriesRaceClean runs many queries on ONE engine from many
// goroutines. Under -race this is the regression test for the old
// engine-global mutable state (e.counters, e.current): every run must
// produce the right bytes and its own counters.
func TestConcurrentQueriesRaceClean(t *testing.T) {
	st := concurrentFixture(t, 500)
	e := New(st, Config{Mode: ModeM4, SortBudget: 32 << 10, MemBudget: 1 << 20})

	queries := []struct{ src, want string }{
		{`for $x in /r/x return if ($x/text() = "7") then <hit/> else ()`, "<hit/>"},
		{`for $x in /r/x return if ($x/text() = "41") then <a/> else ()`, "<a/>"},
		{`for $x in //x return if ($x/text() = "499") then <last/> else ()`, "<last/>"},
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				q := queries[(g+i)%len(queries)]
				res, err := e.NewHandle().Query(q.src)
				if err != nil {
					t.Errorf("concurrent query: %v", err)
					return
				}
				if res.XML != q.want {
					t.Errorf("concurrent query returned %q, want %q", res.XML, q.want)
					return
				}
				if res.Counters.RowsScanned == 0 {
					t.Error("per-query counters empty")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if e.Counters().RowsScanned == 0 {
		t.Error("Counters() after concurrent runs has no last-completed run")
	}
	if pins := st.PinnedPages(); pins != 0 {
		t.Errorf("concurrent queries leaked %d pinned pages", pins)
	}
}

// TestHandleCancelTargetsOwnQuery overlaps two queries on one engine and
// cancels only one of them through its own handle: the victim returns
// limit.ErrCanceled while queries on other handles keep succeeding — the
// regression test for the single e.current slot, under which a cancel
// could only ever hit the last-started query.
func TestHandleCancelTargetsOwnQuery(t *testing.T) {
	st := concurrentFixture(t, 2000)
	e := New(st, Config{Mode: ModeM4, SortBudget: 4 << 10, MemBudget: 1 << 20})

	victim := e.NewHandle()
	victimErr := make(chan error, 1)
	go func() {
		_, err := victim.Query(`for $x in //x return for $y in //x return if ($x/text() = $y/text()) then <m/> else ()`)
		victimErr <- err
	}()

	// While hammering the victim's handle, queries on fresh handles — the
	// later-started ones, which the old slot would have aborted instead —
	// must keep completing.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				victim.Cancel()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	deadline := time.After(30 * time.Second)
	for i := 0; ; i++ {
		select {
		case err := <-victimErr:
			close(done)
			if !errors.Is(err, limit.ErrCanceled) {
				t.Fatalf("victim returned %v, want %v", err, limit.ErrCanceled)
			}
			if i == 0 {
				t.Log("no bystander query overlapped the cancel window")
			}
			if dir, derr := st.TempDir(); derr == nil {
				if ents, _ := os.ReadDir(dir); len(ents) != 0 {
					t.Errorf("cancel leaked %d temp files", len(ents))
				}
			}
			return
		case <-deadline:
			close(done)
			t.Fatal("victim query never returned")
		default:
		}
		res, err := e.NewHandle().Query(`for $x in /r/x return if ($x/text() = "7") then <hit/> else ()`)
		if err != nil {
			close(done)
			t.Fatalf("bystander query %d hit the victim's cancel: %v", i, err)
		}
		if res.XML != "<hit/>" {
			close(done)
			t.Fatalf("bystander query returned %q", res.XML)
		}
	}
}

// TestHandleCancelBeforeQuery cancels a handle before its query starts:
// the query must abort at its first budget poll.
func TestHandleCancelBeforeQuery(t *testing.T) {
	st := concurrentFixture(t, 100)
	e := New(st, Config{Mode: ModeM4})
	h := e.NewHandle()
	h.Cancel()
	_, err := h.Query(`for $x in //x return $x`)
	if !errors.Is(err, limit.ErrCanceled) {
		t.Fatalf("pre-canceled handle ran to %v, want %v", err, limit.ErrCanceled)
	}
}

// TestEngineCancelAbortsAllInflight overlaps two queries and calls the
// engine-wide Cancel: both must return limit.ErrCanceled (the old slot
// canceled only the last-started one).
func TestEngineCancelAbortsAllInflight(t *testing.T) {
	st := concurrentFixture(t, 2000)
	e := New(st, Config{Mode: ModeM4, SortBudget: 4 << 10, MemBudget: 4 << 10})

	slow := `for $x in //x return for $y in //x return if ($x/text() = $y/text()) then <m/> else ()`
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := e.Query(slow)
			errs <- err
		}()
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				e.Cancel()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, limit.ErrCanceled) {
			t.Errorf("query %d returned %v, want %v", i, err, limit.ErrCanceled)
		}
	}
	close(done)
}

// TestQueryPlanCache exercises the cached query path end to end: first run
// misses and stores, a reformatted repeat hits with byte-identical output,
// an epoch bump misses again, and parse failures are never cached.
func TestQueryPlanCache(t *testing.T) {
	st := concurrentFixture(t, 200)
	cache := plancache.New(16)
	mk := func(epoch uint64) *Engine {
		return New(st, Config{Mode: ModeM4, PlanCache: cache,
			CacheDoc: plancache.DocVersion{Name: "doc", Epoch: epoch}})
	}
	e := mk(1)

	src := `for $x in /r/x return if ($x/text() = "7") then <hit/> else ()`
	r1, err := e.NewHandle().Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Error("first run reported a cache hit")
	}
	// Same query, different whitespace: must hit and return the same bytes.
	r2, err := e.NewHandle().Query("for   $x in /r/x\n return if ($x/text() = \"7\") then <hit/> else ()")
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Error("repeat run missed the cache")
	}
	if r1.XML != r2.XML {
		t.Errorf("cached run returned %q, uncached %q", r2.XML, r1.XML)
	}
	if r1.Counters != r2.Counters {
		t.Errorf("cached run counters differ: %+v vs %+v", r2.Counters, r1.Counters)
	}

	// A stats-epoch bump invalidates: the same text misses and recompiles.
	r3, err := mk(2).NewHandle().Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if r3.CacheHit {
		t.Error("stale-epoch run reported a cache hit")
	}
	if r3.XML != r1.XML {
		t.Errorf("post-bump run returned %q, want %q", r3.XML, r1.XML)
	}

	// Parse errors are not cached.
	before := cache.Len()
	if _, err := e.NewHandle().Query(`for $x in`); err == nil {
		t.Fatal("malformed query succeeded")
	}
	if cache.Len() != before {
		t.Error("parse failure grew the cache")
	}

	st2 := cache.Stats()
	if st2.Hits != 1 || st2.Puts != 2 {
		t.Errorf("cache stats = %+v, want 1 hit / 2 puts", st2)
	}
}

// TestQueryPlanCacheConcurrent runs the same cached query from many
// goroutines: every execution runs the one shared cached plan on its own
// context, so under -race this proves a shared cached plan is safe.
func TestQueryPlanCacheConcurrent(t *testing.T) {
	st := concurrentFixture(t, 300)
	e := New(st, Config{Mode: ModeM4, PlanCache: plancache.New(16),
		CacheDoc: plancache.DocVersion{Name: "doc", Epoch: 1}})
	src := `for $x in //x return if ($x/text() = "42") then <hit/> else ()`
	want, err := e.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := e.NewHandle().Query(src)
				if err != nil {
					t.Errorf("cached query: %v", err)
					return
				}
				if res.XML != want {
					t.Errorf("cached query returned %q, want %q", res.XML, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
