package store

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xqdb/internal/fault"
	"xqdb/internal/xasr"
	"xqdb/internal/xmlgen"
)

// writerDocs are the testbed's four documents plus one that packs the
// serializer's edge cases: childless elements written as <a></a> and <a/>,
// text that needs escaping, and mixed content.
func writerDocs() map[string]string {
	return map[string]string{
		"handmade":     xmlgen.Figure2,
		"dblp-excerpt": xmlgen.DBLP(xmlgen.DBLPConfig{Entries: 40, Seed: 16}),
		"dblp":         xmlgen.DBLP(xmlgen.DBLPConfig{Entries: 400, Seed: 250}),
		"treebank":     xmlgen.Treebank(xmlgen.TreebankConfig{Sentences: 20, Seed: 80}),
		"edges":        `<r><a/><b>x &amp; y &lt; z &gt; w</b><c><a></a>t&amp;<d><e/></d></c>tail &lt;&gt;</r>`,
	}
}

// checkWriterMatchesReference serializes every node of s through one
// SubtreeWriter in document, reverse and seeded random order and compares
// each result with AppendSubtreeTuple. Document order mostly starts in the
// remembered leaf, random order mostly descends.
func checkWriterMatchesReference(t *testing.T, s *Store) {
	t.Helper()
	var nodes []xasr.Tuple
	if err := s.ScanAll(func(tp xasr.Tuple) bool {
		nodes = append(nodes, tp)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(nodes))
	for i, tp := range nodes {
		b, err := s.AppendSubtreeTuple(nil, tp)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = string(b)
	}
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	reverse := make([]int, len(order))
	for i := range order {
		reverse[i] = len(order) - 1 - i
	}
	orders := []struct {
		name string
		idx  []int
	}{
		{"document", order},
		{"reverse", reverse},
		{"random", rand.New(rand.NewSource(30)).Perm(len(nodes))},
	}
	w := s.NewSubtreeWriter()
	var dst []byte
	for _, o := range orders {
		for _, i := range o.idx {
			var err error
			dst, err = w.Append(append(dst[:0], "prefix"...), nodes[i].In)
			if err != nil {
				t.Fatalf("%s order: Append(%d): %v", o.name, nodes[i].In, err)
			}
			if got := string(dst[len("prefix"):]); !strings.HasPrefix(string(dst), "prefix") || got != want[i] {
				t.Fatalf("%s order: Append(%d) = %q, want %q", o.name, nodes[i].In, dst, "prefix"+want[i])
			}
		}
		if pins := s.PinnedPages(); pins != 0 {
			t.Fatalf("%s order: %d pages pinned", o.name, pins)
		}
	}

	// Labels no node carries: the first gap between two nodes, if any,
	// and the gap after the last node.
	missing := []uint32{nodes[len(nodes)-1].Out + 1}
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1].In+1 < nodes[i].In {
			missing = append(missing, nodes[i-1].In+1)
			break
		}
	}
	for _, in := range missing {
		got, err := w.Append([]byte("kept"), in)
		if err == nil || err.Error() != fmt.Sprintf("store: no node with in=%d", in) {
			t.Errorf("Append(missing in=%d) error = %v", in, err)
		}
		if string(got) != "kept" {
			t.Errorf("Append(missing in=%d) changed dst to %q", in, got)
		}
	}
}

// TestSubtreeWriterMatchesReference checks the engine's writer against the
// reference serializer for every node of the testbed documents, with dense
// and gap labels, on a pool small enough to evict leaves between calls.
func TestSubtreeWriterMatchesReference(t *testing.T) {
	for name, doc := range writerDocs() {
		for _, stride := range []uint32{1, DefaultLabelStride} {
			t.Run(fmt.Sprintf("%s/stride%d", name, stride), func(t *testing.T) {
				s := newStore(t, doc, Options{LabelStride: stride, CacheFrames: 16})
				checkWriterMatchesReference(t, s)
			})
		}
	}
}

// TestSubtreeWriterAfterRelabel runs a pinned-seed update script whose
// inserts pile into the same gaps until they relabel, so leaves carry
// out != in+1 labels of every spacing and deleted labels leave holes, and
// then checks the writer against the reference again, reopened on a small
// pool.
func TestSubtreeWriterAfterRelabel(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadString(xmlgen.DBLP(xmlgen.DBLPConfig{Entries: 40, Seed: 16})); err != nil {
		t.Fatal(err)
	}
	relabels := 0
	rng := rand.New(rand.NewSource(20261017))
	frags := []string{"<note/>", "<note>a &lt; b</note>", "<x><y/>t</x>", "<z></z>"}
	for op := 0; op < 60; op++ {
		var elems []xasr.Tuple
		if err := s.ScanAll(func(tp xasr.Tuple) bool {
			if tp.Type == xasr.TypeElem && tp.ParentIn != RootIn {
				elems = append(elems, tp)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		// Most inserts go into one of the first few elements, so their
		// gaps run out and the inserts relabel.
		target := elems[rng.Intn(4)]
		if rng.Intn(3) == 0 {
			target = elems[rng.Intn(len(elems))]
		}
		frag := frags[rng.Intn(len(frags))]
		tx := begin(t, s)
		switch rng.Intn(5) {
		case 0:
			err = tx.ReplaceSubtree(target.In, frag)
		case 1:
			err = tx.DeleteSubtree(target.In)
		case 2:
			err = tx.InsertSubtree(target.In, InsertBefore, frag)
		default:
			err = tx.InsertSubtree(target.In, InsertInto, frag)
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if len(tx.moved) > 0 {
			relabels++
		}
		commit(t, tx)
	}
	if relabels == 0 {
		t.Fatal("the update script never relabeled")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, Options{CacheFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkWriterMatchesReference(t, s)
}

// TestSubtreeWriterReadFault fails a page read in the middle of a subtree
// that spans many leaves: the writer must return the injected error, leave
// no page pinned, and serialize correctly again afterwards.
func TestSubtreeWriterReadFault(t *testing.T) {
	var inj fault.Injector
	s := newStore(t, xmlgen.DBLP(xmlgen.DBLPConfig{Entries: 400, Seed: 250}), Options{IOHook: inj.Hook, CacheFrames: 16})
	want, err := s.AppendSubtree(nil, RootIn)
	if err != nil {
		t.Fatal(err)
	}
	w := s.NewSubtreeWriter()
	inj.Arm(0) // count, never fail
	if _, err := w.Append(nil, RootIn); err != nil {
		t.Fatal(err)
	}
	reads := inj.Ops()
	if reads < 8 {
		t.Fatalf("serializing the root read %d pages from the file: the pool is not small enough", reads)
	}

	inj.ArmAt("page:read", reads/2)
	got, err := w.Append([]byte("kept"), RootIn)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Append with a failing read: err = %v, want %v", err, fault.ErrInjected)
	}
	if string(got) != "kept" {
		t.Errorf("failed Append changed dst to %.20q", got)
	}
	if pins := s.PinnedPages(); pins != 0 {
		t.Errorf("%d pages pinned after the failed Append", pins)
	}

	inj.Disarm()
	got, err = w.Append(nil, RootIn)
	if err != nil || string(got) != string(want) {
		t.Errorf("Append after the fault: err = %v, output equal = %v", err, string(got) == string(want))
	}
}
