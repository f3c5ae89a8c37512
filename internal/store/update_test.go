package store

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"xqdb/internal/fault"
	"xqdb/internal/xasr"
)

func xml(t *testing.T, s *Store) string {
	t.Helper()
	b, err := s.AppendSubtree(nil, RootIn)
	if err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return string(b)
}

// begin starts a Tx and fails the test on error.
func begin(t *testing.T, s *Store) *Tx {
	t.Helper()
	tx, err := s.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	return tx
}

func commit(t *testing.T, tx *Tx) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

// lookupLabel returns the in label of the first element with the label.
func lookupLabel(t *testing.T, s *Store, label string) uint32 {
	t.Helper()
	var in uint32
	found := false
	if err := s.ScanAll(func(tp xasr.Tuple) bool {
		if tp.Type == xasr.TypeElem && tp.Value == label {
			in, found = tp.In, true
			return false
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("no element %q", label)
	}
	return in
}

func TestInsertIntoGapLabels(t *testing.T) {
	s := newStore(t, figure2, Options{})
	tx := begin(t, s)
	authors := lookupLabel(t, s, "authors")
	if err := tx.InsertSubtree(authors, InsertInto, `<name>Cyd</name>`); err != nil {
		t.Fatalf("insert: %v", err)
	}
	commit(t, tx)
	want := `<journal><authors><name>Ana</name><name>Bob</name><name>Cyd</name></authors><title>DB</title></journal>`
	if got := xml(t, s); got != want {
		t.Errorf("got %s\nwant %s", got, want)
	}
	if s.AppliedSeq() != 1 {
		t.Errorf("AppliedSeq = %d", s.AppliedSeq())
	}
	if got := s.Stats().Card("name"); got != 3 {
		t.Errorf("Card(name) = %d", got)
	}
}

func TestInsertBeforeAfter(t *testing.T) {
	s := newStore(t, figure2, Options{})
	tx := begin(t, s)
	title := lookupLabel(t, s, "title")
	if err := tx.InsertSubtree(title, InsertBefore, `<year>2006</year>`); err != nil {
		t.Fatalf("before: %v", err)
	}
	if err := tx.InsertSubtree(tx.Translate(title), InsertAfter, `<pages>1-10</pages>`); err != nil {
		t.Fatalf("after: %v", err)
	}
	commit(t, tx)
	want := `<journal><authors><name>Ana</name><name>Bob</name></authors><year>2006</year><title>DB</title><pages>1-10</pages></journal>`
	if got := xml(t, s); got != want {
		t.Errorf("got %s\nwant %s", got, want)
	}
}

func TestDeleteSubtree(t *testing.T) {
	s := newStore(t, figure2, Options{})
	tx := begin(t, s)
	authors := lookupLabel(t, s, "authors")
	if err := tx.DeleteSubtree(authors); err != nil {
		t.Fatalf("delete: %v", err)
	}
	commit(t, tx)
	if got := xml(t, s); got != `<journal><title>DB</title></journal>` {
		t.Errorf("got %s", got)
	}
	st := s.Stats()
	if st.Card("name") != 0 || st.Card("authors") != 0 {
		t.Errorf("stale label cards: name=%d authors=%d", st.Card("name"), st.Card("authors"))
	}
	if _, ok := st.LabelSubtreeSum["authors"]; ok {
		t.Error("subtree-sum entry survived the last element")
	}
	if got, ok := st.DistinctTexts("name"); ok && got != 0 {
		t.Errorf("distinct texts for deleted label: %d", got)
	}
	if st.Nodes != 4 || st.Elems != 2 || st.Texts != 1 {
		t.Errorf("counts after delete: %d/%d/%d", st.Nodes, st.Elems, st.Texts)
	}
}

func TestReplaceSubtree(t *testing.T) {
	s := newStore(t, figure2, Options{})
	tx := begin(t, s)
	title := lookupLabel(t, s, "title")
	if err := tx.ReplaceSubtree(title, `<title>XML Storage</title>`); err != nil {
		t.Fatalf("replace: %v", err)
	}
	commit(t, tx)
	want := `<journal><authors><name>Ana</name><name>Bob</name></authors><title>XML Storage</title></journal>`
	if got := xml(t, s); got != want {
		t.Errorf("got %s\nwant %s", got, want)
	}
	if got, ok := s.Stats().DistinctTexts("title"); !ok || got != 1 {
		t.Errorf("distinct texts after replace: %d (ok=%v)", got, ok)
	}
}

// TestRelabelFallback pins stride 1 so there is no headroom at all: every
// insert must relabel, escalating to the root.
func TestRelabelFallback(t *testing.T) {
	s := newStore(t, figure2, Options{LabelStride: 1})
	for i := 0; i < 5; i++ {
		tx := begin(t, s)
		authors := lookupLabel(t, s, "authors")
		if err := tx.InsertSubtree(authors, InsertInto, fmt.Sprintf("<name>N%d</name>", i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		commit(t, tx)
	}
	want := `<journal><authors><name>Ana</name><name>Bob</name><name>N0</name><name>N1</name><name>N2</name><name>N3</name><name>N4</name></authors><title>DB</title></journal>`
	if got := xml(t, s); got != want {
		t.Errorf("got %s\nwant %s", got, want)
	}
	if got := s.Stats().Card("name"); got != 7 {
		t.Errorf("Card(name) = %d", got)
	}
	if got, ok := s.Stats().SubtreeSum("authors"); !ok || got != 14 {
		t.Errorf("SubtreeSum(authors) = %d (ok=%v), want 14", got, ok)
	}
}

// TestTranslateComposesAcrossRelabels pins stride 1 so every insert
// relabels, then applies one insert per pre-captured target inside a
// single Tx. Each target label must translate through ALL earlier
// relabels, not just the first one that touched it (a flat old→new map
// returns stale intermediate labels here and redirects inserts to the
// wrong nodes — historically surfacing as "cannot insert into a text
// node").
func TestTranslateComposesAcrossRelabels(t *testing.T) {
	doc := `<r><x>a</x><x>b</x><x>c</x><x>d</x><x>e</x><x>f</x><x>g</x><x>h</x></r>`
	s := newStore(t, doc, Options{LabelStride: 1})
	var targets []xasr.Tuple
	if err := s.ScanAll(func(tp xasr.Tuple) bool {
		if tp.Type == xasr.TypeElem && tp.Value == "x" {
			targets = append(targets, tp)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(targets) != 8 {
		t.Fatalf("targets = %d", len(targets))
	}
	tx := begin(t, s)
	for i, tg := range targets {
		if err := tx.InsertSubtree(tx.Translate(tg.In), InsertInto, `<z>new</z>`); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	commit(t, tx)
	want := `<r><x>a<z>new</z></x><x>b<z>new</z></x><x>c<z>new</z></x><x>d<z>new</z></x>` +
		`<x>e<z>new</z></x><x>f<z>new</z></x><x>g<z>new</z></x><x>h<z>new</z></x></r>`
	if got := xml(t, s); got != want {
		t.Errorf("got %s\nwant %s", got, want)
	}
	if got := s.Stats().Card("z"); got != 8 {
		t.Errorf("Card(z) = %d", got)
	}
}

// TestTranslateDeadTargetSurvivesRelabel deletes a subtree, forces a
// relabel that recycles the freed labels, and checks the deleted target
// still translates to a dead position: DeleteSubtree must fail with
// ErrNoNode instead of deleting whatever node inherited the label.
func TestTranslateDeadTargetSurvivesRelabel(t *testing.T) {
	s := newStore(t, `<r><a><b>t</b></a><x>a</x></r>`, Options{LabelStride: 1})
	a := lookupLabel(t, s, "a")
	b := lookupLabel(t, s, "b")
	x := lookupLabel(t, s, "x")
	tx := begin(t, s)
	if err := tx.DeleteSubtree(tx.Translate(a)); err != nil {
		t.Fatalf("delete a: %v", err)
	}
	// Dense labels: this insert relabels the whole root interior, reusing
	// the labels the deleted <a> subtree freed.
	if err := tx.InsertSubtree(tx.Translate(x), InsertInto, `<z>n</z>`); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := tx.DeleteSubtree(tx.Translate(b)); !errors.Is(err, ErrNoNode) {
		t.Fatalf("deleted target resolved after relabel: %v", err)
	}
	commit(t, tx)
	if got := xml(t, s); got != `<r><x>a<z>n</z></x></r>` {
		t.Errorf("got %s", got)
	}
}

func TestAbortRestoresEverything(t *testing.T) {
	s := newStore(t, figure2, Options{})
	before := xml(t, s)
	statsBefore := fmt.Sprintf("%+v", *s.Stats())
	tx := begin(t, s)
	authors := lookupLabel(t, s, "authors")
	if err := tx.DeleteSubtree(authors); err != nil {
		t.Fatal(err)
	}
	if err := tx.InsertSubtree(lookupLabel(t, s, "title"), InsertInto, `junk`); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if got := xml(t, s); got != before {
		t.Errorf("abort left %s", got)
	}
	if got := fmt.Sprintf("%+v", *s.Stats()); got != statsBefore {
		t.Errorf("stats changed across abort:\n got %s\nwant %s", got, statsBefore)
	}
	if s.AppliedSeq() != 0 {
		t.Errorf("seq advanced on abort: %d", s.AppliedSeq())
	}
	if s.PinnedPages() != 0 {
		t.Errorf("leaked pins: %d", s.PinnedPages())
	}
}

func TestErrBusyAndErrNoNode(t *testing.T) {
	s := newStore(t, figure2, Options{})
	tx := begin(t, s)
	if _, err := s.Begin(); !errors.Is(err, ErrBusy) {
		t.Fatalf("second Begin: %v", err)
	}
	if err := tx.DeleteSubtree(99999); !errors.Is(err, ErrNoNode) {
		t.Fatalf("missing target: %v", err)
	}
	tx.Abort()
	tx2 := begin(t, s)
	tx2.Abort()
}

func TestUpdatePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadString(figure2); err != nil {
		t.Fatal(err)
	}
	statsPath := filepath.Join(dir, statsFileName)
	loaded := readFile(t, statsPath)
	tx := begin(t, s)
	if err := tx.InsertSubtree(lookupLabel(t, s, "authors"), InsertInto, `<name>Dee</name>`); err != nil {
		t.Fatal(err)
	}
	commit(t, tx)
	// Statistics are persisted at Load and a clean Close, never per commit.
	if !bytes.Equal(readFile(t, statsPath), loaded) {
		t.Error("Commit rewrote stats.bin")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var sf statsFile
	if err := gob.NewDecoder(bytes.NewReader(readFile(t, statsPath))).Decode(&sf); err != nil {
		t.Fatal(err)
	}
	if sf.AppliedSeq != 1 {
		t.Errorf("stats.bin stamp after Close = %d, want 1", sf.AppliedSeq)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := xml(t, s2); got != `<journal><authors><name>Ana</name><name>Bob</name><name>Dee</name></authors><title>DB</title></journal>` {
		t.Errorf("reopened: %s", got)
	}
	st := s2.Stats()
	if st.Card("name") != 3 {
		t.Errorf("Card(name) = %d", st.Card("name"))
	}
	if got, ok := st.DistinctTexts("name"); !ok || got != 3 {
		t.Errorf("DistinctTexts(name) = %d (ok=%v), want 3", got, ok)
	}
	if got, ok := st.SubtreeSum("authors"); !ok || got != 6 {
		t.Errorf("SubtreeSum(authors) = %d (ok=%v), want 6", got, ok)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReadOnlyOpenRebuildsStaleStats crashes right after a checkpoint, so
// the WAL needs no redo but stats.bin still carries the Load stamp: a
// read-only open must rescan rather than serve the stale file.
func TestReadOnlyOpenRebuildsStaleStats(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CheckpointBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadString(figure2); err != nil {
		t.Fatal(err)
	}
	for i := 0; s.LastCheckpointLSN() == 0; i++ {
		if i == 50 {
			t.Fatal("no checkpoint fired")
		}
		tx := begin(t, s)
		if err := tx.InsertSubtree(lookupLabel(t, s, "authors"), InsertInto, fmt.Sprintf("<name>N%d</name>", i)); err != nil {
			t.Fatal(err)
		}
		commit(t, tx)
	}
	doc := xml(t, s)
	s.CrashClose()

	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatalf("read-only open: %v", err)
	}
	defer ro.Close()
	got := *ro.Stats()
	want := statsOf(t, doc)
	got.MaxIn = want.MaxIn // a label-space bound, not a document property
	if !reflect.DeepEqual(&got, want) {
		t.Errorf("read-only stats:\n got %+v\nwant %+v", got, *want)
	}
}

func TestCommitCrashAfterWALFlushRecovers(t *testing.T) {
	dir := t.TempDir()
	var inj fault.Injector
	s, err := Open(dir, Options{IOHook: inj.Hook})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadString(figure2); err != nil {
		t.Fatal(err)
	}
	tx := begin(t, s)
	if err := tx.InsertSubtree(lookupLabel(t, s, "authors"), InsertInto, `<name>Eve</name>`); err != nil {
		t.Fatal(err)
	}
	inj.ArmAt(fault.CrashAfterWALAppend, 1)
	err = tx.Commit()
	inj.Disarm()
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Commit: %v", err)
	}
	s.CrashClose()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s2.Close()
	if s2.AppliedSeq() != 1 {
		t.Errorf("AppliedSeq = %d", s2.AppliedSeq())
	}
	if got := xml(t, s2); got != `<journal><authors><name>Ana</name><name>Bob</name><name>Eve</name></authors><title>DB</title></journal>` {
		t.Errorf("recovered: %s", got)
	}
	// Commits never rewrite the stats file (only Load and a clean Close
	// do), so it still carries the Load stamp and recovery must have
	// rescanned: the new name must be counted.
	if s2.Stats().Card("name") != 3 {
		t.Errorf("recovered Card(name) = %d", s2.Stats().Card("name"))
	}
	if got, ok := s2.Stats().DistinctTexts("name"); !ok || got != 3 {
		t.Errorf("recovered distinct texts = %d (ok=%v)", got, ok)
	}
}

func TestCommitCrashBeforeWALFlushDiscards(t *testing.T) {
	dir := t.TempDir()
	var inj fault.Injector
	s, err := Open(dir, Options{IOHook: inj.Hook})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadString(figure2); err != nil {
		t.Fatal(err)
	}
	tx := begin(t, s)
	if err := tx.InsertSubtree(lookupLabel(t, s, "authors"), InsertInto, `<name>Gus</name>`); err != nil {
		t.Fatal(err)
	}
	inj.ArmAt("wal:flush", 1)
	err = tx.Commit()
	inj.Disarm()
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Commit: %v", err)
	}
	s.CrashClose()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s2.Close()
	if s2.AppliedSeq() != 0 {
		t.Errorf("AppliedSeq = %d", s2.AppliedSeq())
	}
	if got := xml(t, s2); got != figure2 {
		t.Errorf("discarded update leaked: %s", got)
	}
}

// statsOf re-shreds the document in a fresh store and returns the exact
// statistics the shredder computes for it.
func statsOf(t *testing.T, doc string) *xasr.Stats {
	t.Helper()
	ref := newStore(t, doc, Options{})
	return ref.Stats()
}

// TestRandomUpdateScriptStatsExact runs a pinned-seed random update
// script, aborting a share of its units, and checks the incrementally
// maintained statistics byte-match a fresh re-shred of the resulting
// document.
func TestRandomUpdateScriptStatsExact(t *testing.T) {
	for _, stride := range []uint32{1, 8} {
		t.Run(fmt.Sprintf("stride%d", stride), func(t *testing.T) {
			s := newStore(t, figure2, Options{LabelStride: stride})
			rng := rand.New(rand.NewSource(20260808))
			labels := []string{"name", "title", "authors", "note", "year"}
			for op := 0; op < 120; op++ {
				tx := begin(t, s)
				var elems []xasr.Tuple
				if err := s.ScanAll(func(tp xasr.Tuple) bool {
					if tp.Type == xasr.TypeElem {
						elems = append(elems, tp)
					}
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if len(elems) == 0 {
					tx.Abort()
					break
				}
				target := elems[rng.Intn(len(elems))]
				lbl := labels[rng.Intn(len(labels))]
				frag := fmt.Sprintf("<%s>v%d</%s>", lbl, rng.Intn(10), lbl)
				var err error
				switch rng.Intn(4) {
				case 0:
					err = tx.InsertSubtree(target.In, InsertInto, frag)
				case 1:
					err = tx.InsertSubtree(target.In, InsertPos(1+rng.Intn(2)), frag)
				case 2:
					err = tx.ReplaceSubtree(target.In, frag)
				default:
					// Keep the document non-empty: never delete or
					// replace away a top-level element's whole subtree.
					if len(elems) > 3 && target.ParentIn != RootIn {
						err = tx.DeleteSubtree(target.In)
					} else {
						err = tx.InsertSubtree(target.In, InsertAfter, frag)
					}
				}
				if err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				// Every 5th unit is rolled back after doing its work: its
				// statistics delta must vanish with it.
				if op%5 == 4 {
					tx.Abort()
				} else {
					commit(t, tx)
				}
			}

			got := s.Stats()
			want := statsOf(t, xml(t, s))
			if got.Nodes != want.Nodes || got.Elems != want.Elems || got.Texts != want.Texts {
				t.Errorf("counts: got %d/%d/%d want %d/%d/%d",
					got.Nodes, got.Elems, got.Texts, want.Nodes, want.Elems, want.Texts)
			}
			if got.SumDepth != want.SumDepth {
				t.Errorf("SumDepth: got %d want %d", got.SumDepth, want.SumDepth)
			}
			if !reflect.DeepEqual(got.LabelCount, want.LabelCount) {
				t.Errorf("LabelCount:\n got %v\nwant %v", got.LabelCount, want.LabelCount)
			}
			if !reflect.DeepEqual(got.LabelSubtreeSum, want.LabelSubtreeSum) {
				t.Errorf("LabelSubtreeSum:\n got %v\nwant %v", got.LabelSubtreeSum, want.LabelSubtreeSum)
			}
			if !reflect.DeepEqual(got.LabelDistinctTexts, want.LabelDistinctTexts) {
				t.Errorf("LabelDistinctTexts:\n got %v\nwant %v", got.LabelDistinctTexts, want.LabelDistinctTexts)
			}
			if s.PinnedPages() != 0 {
				t.Errorf("leaked pins: %d", s.PinnedPages())
			}
		})
	}
}

// TestCheckpointAfterBigUpdates checks the auto-checkpoint keeps the WAL
// bounded.
func TestCheckpointAfterBigUpdates(t *testing.T) {
	s := newStore(t, figure2, Options{CheckpointBytes: 4 << 10})
	for i := 0; i < 20; i++ {
		tx := begin(t, s)
		if err := tx.InsertSubtree(RootIn, InsertInto, fmt.Sprintf("<extra>e%d</extra>", i)); err != nil {
			t.Fatal(err)
		}
		commit(t, tx)
	}
	if got := s.WALBytes(); got > 8<<10 {
		t.Errorf("WAL grew unbounded: %d bytes", got)
	}
	if s.LastCheckpointLSN() == 0 {
		t.Error("no checkpoint recorded")
	}
}
