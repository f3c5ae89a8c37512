package core

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"xqdb/internal/limit"
	"xqdb/internal/plancache"
	"xqdb/internal/store"
)

// TestCancelAbortsQuery cancels a running query from another goroutine:
// the query must return the cancellation error, and the abort must leave
// no temp files and no pinned pages behind. A tiny budget keeps the
// operators on their spill paths when the cancel lands, so cleanup of
// in-flight run files is part of what is asserted.
func TestCancelAbortsQuery(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&b, "<x>%d</x>", i)
	}
	b.WriteString("</r>")
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.LoadString(b.String()); err != nil {
		t.Fatal(err)
	}
	e := New(st, Config{Mode: ModeM4, SortBudget: 4 << 10, MemBudget: 4 << 10})

	// Hammer Cancel until the query returns: the first calls may land
	// before the query installs its budget, so one shot is not enough.
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
	_, err = e.Query(`for $x in //x return for $y in //x return if ($x/text() = $y/text()) then <m/> else ()`)
	close(done)
	if !errors.Is(err, limit.ErrCanceled) {
		t.Fatalf("canceled query returned %v, want %v", err, limit.ErrCanceled)
	}

	if dir, derr := st.TempDir(); derr == nil {
		if ents, _ := os.ReadDir(dir); len(ents) != 0 {
			t.Errorf("cancel leaked %d temp files", len(ents))
		}
	}
	if pins := st.PinnedPages(); pins != 0 {
		t.Errorf("cancel leaked %d pinned pages", pins)
	}

	// The engine recovers: the next query runs on a fresh budget.
	out, err := e.Query(`for $x in /r/x return if ($x/text() = "7") then <hit/> else ()`)
	if err != nil {
		t.Fatalf("query after cancel: %v", err)
	}
	if out != "<hit/>" {
		t.Fatalf("query after cancel returned %q", out)
	}
}

// TestCancelBeforeQuerySkipsPlanning cancels a handle before its query
// starts: the query's budget exists before planning, so the planner stops
// at its first poll, the query returns the cancellation error, and no plan
// reaches the cache.
func TestCancelBeforeQuerySkipsPlanning(t *testing.T) {
	st := concurrentFixture(t, 50)
	cache := plancache.New(16)
	e := New(st, Config{Mode: ModeM4, PlanCache: cache})
	h := e.NewHandle()
	h.Cancel()
	if _, err := h.Query(`for $x in //x return $x`); !errors.Is(err, limit.ErrCanceled) {
		t.Fatalf("query on a canceled handle returned %v, want %v", err, limit.ErrCanceled)
	}
	if puts := cache.Stats().Puts; puts != 0 {
		t.Errorf("canceled query put %d plans into the cache, want 0", puts)
	}
}
