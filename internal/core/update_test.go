package core

import (
	"strings"
	"testing"

	"xqdb/internal/store"
)

func updEngine(t *testing.T, doc string) *Engine {
	t.Helper()
	return updEngineOpts(t, doc, store.Options{})
}

func updEngineOpts(t *testing.T, doc string, opts store.Options) *Engine {
	t.Helper()
	st, err := store.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.LoadString(doc); err != nil {
		t.Fatalf("Load: %v", err)
	}
	return New(st, Config{Mode: ModeM4})
}

func TestEngineUpdateInsert(t *testing.T) {
	e := updEngine(t, `<journal><authors><name>Ana</name></authors><title>DB</title></journal>`)
	res, err := e.Update(`insert node <name>Bob</name> into /journal/authors`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Targets != 1 || res.Applied != 1 || res.Seq != 1 {
		t.Fatalf("res = %+v", res)
	}
	got, err := e.Query(`//name`)
	if err != nil {
		t.Fatal(err)
	}
	if got != "<name>Ana</name><name>Bob</name>" {
		t.Fatalf("after insert: %s", got)
	}
}

func TestEngineUpdateDeleteMultiTarget(t *testing.T) {
	e := updEngine(t, `<j><a><name>Ana</name><name>Bob</name></a><name>Cyd</name></j>`)
	res, err := e.Update(`delete node //name`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Targets != 3 || res.Applied != 3 {
		t.Fatalf("res = %+v", res)
	}
	got, err := e.Query(`/j`)
	if err != nil {
		t.Fatal(err)
	}
	if got != "<j><a/></j>" {
		t.Fatalf("after delete: %s", got)
	}
}

func TestEngineUpdateNestedDeleteSkips(t *testing.T) {
	// //a selects both the outer and the inner a; deleting the outer one
	// consumes the inner target, which must be skipped, not fail.
	e := updEngine(t, `<r><a><a><x/></a></a><b/></r>`)
	res, err := e.Update(`delete node //a`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Targets != 2 || res.Applied != 2 {
		t.Fatalf("res = %+v", res)
	}
	if got, _ := e.Query(`/r`); got != "<r><b/></r>" {
		t.Fatalf("after delete: %s", got)
	}
}

func TestEngineUpdateReplace(t *testing.T) {
	e := updEngine(t, `<j><title>Old</title><year>1999</year></j>`)
	if _, err := e.Update(`replace node /j/title with <title>New</title>`); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.Query(`/j`); got != "<j><title>New</title><year>1999</year></j>" {
		t.Fatalf("after replace: %s", got)
	}
}

func TestEngineUpdateTextTarget(t *testing.T) {
	e := updEngine(t, `<j><t>keep</t><t>drop</t></j>`)
	res, err := e.Update(`delete node /j/t/text()`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Targets != 2 {
		t.Fatalf("res = %+v", res)
	}
	if got, _ := e.Query(`/j`); got != "<j><t/><t/></j>" {
		t.Fatalf("after delete: %s", got)
	}
}

func TestEngineUpdateNoTargetsIsNoop(t *testing.T) {
	e := updEngine(t, `<j><t>x</t></j>`)
	res, err := e.Update(`delete node //missing`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Targets != 0 || res.Applied != 0 || res.Seq != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestEngineUpdateInvalidatesM1DOM(t *testing.T) {
	e := updEngine(t, `<j><t>x</t></j>`)
	e.cfg.Mode = ModeM1
	before, err := e.Query(`//t`)
	if err != nil || before != "<t>x</t>" {
		t.Fatalf("before: %q, %v", before, err)
	}
	if _, err := e.Update(`insert node <t>y</t> into /j`); err != nil {
		t.Fatal(err)
	}
	after, err := e.Query(`//t`)
	if err != nil {
		t.Fatal(err)
	}
	if after != "<t>x</t><t>y</t>" {
		t.Fatalf("M1 served a stale DOM: %q", after)
	}
}

func TestEngineUpdateAllModesSeeChanges(t *testing.T) {
	engines := newEngines(t, `<j><a><name>Ana</name></a></j>`)
	if _, err := engines[ModeM4].Update(`insert node <name>Bob</name>, <name>Cyd</name> after /j/a/name`); err != nil {
		t.Fatal(err)
	}
	want, err := engines[ModeM1].Query(`//name`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(want, "Bob") || !strings.Contains(want, "Cyd") {
		t.Fatalf("reference missing inserts: %s", want)
	}
	for m, e := range engines {
		got, err := e.Query(`//name`)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if got != want {
			t.Errorf("%s disagrees after update:\n got: %s\nwant: %s", m, got, want)
		}
	}
}

// TestEngineUpdateMultiTargetRelabels pins stride 1 so every applied
// insert relabels, moving the remaining targets' labels: each target must
// translate through the composition of all earlier relabels.
func TestEngineUpdateMultiTargetRelabels(t *testing.T) {
	doc := `<r><x>a</x><x>b</x><x>c</x><x>d</x><x>e</x><x>f</x><x>g</x><x>h</x></r>`
	e := updEngineOpts(t, doc, store.Options{LabelStride: 1})
	res, err := e.Update(`insert node <z>new</z> into /r/x`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Targets != 8 || res.Applied != 8 {
		t.Fatalf("res = %+v", res)
	}
	want := `<r><x>a<z>new</z></x><x>b<z>new</z></x><x>c<z>new</z></x><x>d<z>new</z></x>` +
		`<x>e<z>new</z></x><x>f<z>new</z></x><x>g<z>new</z></x><x>h<z>new</z></x></r>`
	if got, _ := e.Query(`/r`); got != want {
		t.Fatalf("after insert:\n got: %s\nwant: %s", got, want)
	}
}

// TestEngineUpdateMultiTargetReplaceRelabels is the delete/replace face
// of the same hazard: a stale or recycled translation here silently
// replaces the wrong subtree (ErrNoNode is a benign nested-target skip,
// so nothing would fail loudly).
func TestEngineUpdateMultiTargetReplaceRelabels(t *testing.T) {
	doc := `<r><x>a</x><x>b</x><x>c</x><x>d</x><x>e</x><x>f</x><x>g</x><x>h</x></r>`
	e := updEngineOpts(t, doc, store.Options{LabelStride: 1})
	res, err := e.Update(`replace node /r/x with <y>v</y>`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Targets != 8 || res.Applied != 8 {
		t.Fatalf("res = %+v", res)
	}
	want := `<r><y>v</y><y>v</y><y>v</y><y>v</y><y>v</y><y>v</y><y>v</y><y>v</y></r>`
	if got, _ := e.Query(`/r`); got != want {
		t.Fatalf("after replace:\n got: %s\nwant: %s", got, want)
	}
}

func TestEngineUpdateParseErrors(t *testing.T) {
	e := updEngine(t, `<j><t>x</t></j>`)
	if _, err := e.Update(`delete node t`); err == nil {
		t.Fatal("unrooted path accepted")
	}
	if _, err := e.Update(`insert node <a>{//x}</a> into /j`); err == nil {
		t.Fatal("non-constant fragment accepted")
	}
}

// wideUpdDoc is a flat document of n <a> elements, wide enough that
// inserting into all of them dirties more pages than a tiny pool holds.
func wideUpdDoc(n int) string {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < n; i++ {
		sb.WriteString("<a><b>" + strings.Repeat("t", 40) + "</b></a>")
	}
	sb.WriteString("</r>")
	return sb.String()
}

// TestEngineUpdateAbortReportsNothingApplied makes a multi-target insert
// fail part way: pages dirtied by an open update stay pinned, so on an
// 8-frame pool the statement exhausts the pool after its first targets.
// The aborted statement must report nothing applied and leave the
// sequence and the document unchanged.
func TestEngineUpdateAbortReportsNothingApplied(t *testing.T) {
	doc := wideUpdDoc(400)
	opts := store.Options{CacheFrames: 8}
	// One target fits the pool, so the failure below comes after the
	// statement's first target was done.
	if res, err := updEngineOpts(t, doc, opts).Update(`insert node <x>new</x> into /r`); err != nil || res.Applied != 1 {
		t.Fatalf("single-target insert on the small pool: res=%+v err=%v", res, err)
	}
	e := updEngineOpts(t, doc, opts)
	res, err := e.Update(`insert node <x>new</x> into //a`)
	if err == nil {
		t.Fatal("the statement fit the pool: the test no longer reaches the abort path")
	}
	if res.Targets != 400 || res.Applied != 0 || res.Seq != 0 {
		t.Fatalf("aborted statement: res = %+v", res)
	}
	if seq := e.st.AppliedSeq(); seq != 0 {
		t.Fatalf("applied seq moved to %d", seq)
	}
	if got, err := e.Query(`//x`); err != nil || got != "" {
		t.Fatalf("aborted insert left %q (err %v)", got, err)
	}
}
