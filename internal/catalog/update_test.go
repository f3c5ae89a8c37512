package catalog

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"xqdb/internal/core"
	"xqdb/internal/fault"
	"xqdb/internal/plancache"
	"xqdb/internal/store"
)

func TestCatalogUpdateBumpsEpochAndInvalidatesPlans(t *testing.T) {
	cache := plancache.New(32)
	c, err := Open(t.TempDir(), Options{PlanCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.LoadString("d", doc(5)); err != nil {
		t.Fatal(err)
	}

	d, err := c.Acquire("d")
	if err != nil {
		t.Fatal(err)
	}
	e := d.Engine(core.Config{Mode: core.ModeM4})
	if _, err := e.Query(`//x`); err != nil {
		t.Fatal(err)
	}
	d.Release()
	if cache.Len() != 1 {
		t.Fatalf("cache len = %d, want 1", cache.Len())
	}
	epochBefore := c.List()[0].Epoch

	res, err := c.Update("d", `insert node <x>new</x> into /r`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Targets != 1 || res.Applied != 1 || res.Seq != 1 {
		t.Fatalf("res = %+v", res)
	}
	if cache.Len() != 0 {
		t.Fatalf("plan cache not invalidated: len = %d", cache.Len())
	}
	infos := c.List()
	if infos[0].Epoch != epochBefore+1 {
		t.Fatalf("epoch %d, want %d", infos[0].Epoch, epochBefore+1)
	}
	if infos[0].AppliedSeq != 1 || infos[0].WALBytes == 0 {
		t.Fatalf("info = %+v", infos[0])
	}

	// A fresh engine (fresh cache identity) must see the new node.
	d, err = c.Acquire("d")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Release()
	got, err := d.Engine(core.Config{Mode: core.ModeM4}).Query(`//x/text()`)
	if err != nil {
		t.Fatal(err)
	}
	if got != "01234new" {
		t.Fatalf("after update: %q", got)
	}
}

func TestCatalogUpdateNoTargetsKeepsEpoch(t *testing.T) {
	c, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.LoadString("d", doc(3)); err != nil {
		t.Fatal(err)
	}
	before := c.List()[0].Epoch
	res, err := c.Update("d", `delete node //missing`)
	if err != nil || res.Applied != 0 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if after := c.List()[0].Epoch; after != before {
		t.Fatalf("no-op update bumped epoch %d -> %d", before, after)
	}
}

func TestCatalogUpdateConcurrentWithQueries(t *testing.T) {
	c, err := Open(t.TempDir(), Options{PlanCache: plancache.New(64)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.LoadString("d", doc(50)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				d, err := c.Acquire("d")
				if err != nil {
					errs <- err
					return
				}
				_, err = d.Engine(core.Config{Mode: core.ModeM4}).Query(`//x`)
				d.Release()
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				stmt := fmt.Sprintf(`insert node <y>g%d-%d</y> into /r`, g, i)
				if _, err := c.Update("d", stmt); err != nil {
					errs <- fmt.Errorf("update: %w", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	d, err := c.Acquire("d")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Release()
	got, err := d.Engine(core.Config{Mode: core.ModeM2}).Query(`//y`)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got) / len("<y>g0-0</y>"); n != 10 {
		t.Fatalf("want 10 inserted <y> nodes, got %d: %s", n, got)
	}
	if d.Store().AppliedSeq() != 10 {
		t.Fatalf("applied seq = %d", d.Store().AppliedSeq())
	}
}

// TestCatalogAbortedUpdateKeepsEpoch fails a multi-target insert part
// way (pages dirtied by an open update stay pinned, and an 8-frame pool
// runs out after the first targets). The aborted statement reports
// nothing applied, so the document keeps its epoch and its cached plans.
func TestCatalogAbortedUpdateKeepsEpoch(t *testing.T) {
	cache := plancache.New(32)
	c, err := Open(t.TempDir(), Options{Store: store.Options{CacheFrames: 8}, PlanCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.LoadString("d", doc(1000)); err != nil {
		t.Fatal(err)
	}
	query := func() {
		t.Helper()
		d, err := c.Acquire("d")
		if err != nil {
			t.Fatal(err)
		}
		defer d.Release()
		if got, err := d.Engine(core.Config{Mode: core.ModeM4}).Query(`//y`); err != nil || got != "" {
			t.Fatalf("//y = %q, err %v", got, err)
		}
	}
	query()
	before := c.List()[0].Epoch

	res, err := c.Update("d", `insert node <y>new</y> into //x`)
	if err == nil {
		t.Fatal("the statement fit the pool: the test no longer reaches the abort path")
	}
	if res.Targets != 1000 || res.Applied != 0 || res.Seq != 0 {
		t.Fatalf("aborted statement: res = %+v", res)
	}
	if info := c.List()[0]; info.Epoch != before || info.AppliedSeq != 0 {
		t.Fatalf("aborted statement moved the document: epoch %d -> %d, seq %d", before, info.Epoch, info.AppliedSeq)
	}
	hits := cache.Stats().Hits
	query()
	if got := cache.Stats().Hits; got != hits+1 {
		t.Fatalf("cached plan missed after the aborted statement (hits %d -> %d)", hits, got)
	}
}

// TestCatalogRecoverReplaysWALAfterCrashedUpdate pins the crash-sweep ×
// WAL-recovery interaction: a crash between the WAL flush and the stats
// rewrite must either fully recover the update on reopen (WAL flushed)
// or fully discard it (crash before the flush) — and the catalog's
// version sweep must not touch the surviving version directory.
func TestCatalogRecoverReplaysWALAfterCrashedUpdate(t *testing.T) {
	root := t.TempDir()
	for _, tc := range []struct {
		name     string
		crashAt  string
		wantSeq  uint64
		wantText string
	}{
		{"after-wal-flush", fault.CrashAfterWALAppend, 1, "012new"},
		{"before-wal-flush", "wal:flush", 0, "012"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := &fault.Injector{}
			dir := filepath.Join(root, tc.name)
			c, err := Open(dir, Options{Store: store.Options{IOHook: inj.Hook}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.LoadString("d", doc(3)); err != nil {
				t.Fatal(err)
			}
			inj.ArmAt(tc.crashAt, 1)
			_, err = c.Update("d", `insert node <x>new</x> into /r`)
			if err == nil {
				t.Fatal("injected crash did not surface")
			}
			inj.Disarm()
			// Simulate the process dying: no flush, no checkpoint.
			d, err := c.Acquire("d")
			if err != nil {
				t.Fatal(err)
			}
			d.Store().CrashClose()

			c2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer c2.Close()
			d2, err := c2.Acquire("d")
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Release()
			if got := d2.Store().AppliedSeq(); got != tc.wantSeq {
				t.Fatalf("applied seq = %d, want %d", got, tc.wantSeq)
			}
			got, err := d2.Engine(core.Config{Mode: core.ModeM4}).Query(`//x/text()`)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.wantText {
				t.Fatalf("after recovery: %q, want %q", got, tc.wantText)
			}
			// The version directory must still be the swept survivor.
			if _, err := os.Stat(filepath.Join(dir, "docs", "d", "v1", "ok")); err != nil {
				t.Fatalf("version dir missing: %v", err)
			}
		})
	}
}
