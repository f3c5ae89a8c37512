package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"xqdb/internal/recfile"
	"xqdb/internal/xmlgen"
)

// The load's external sort is one kernel at every budget: a budget so
// small that each of the three sorts spills hundreds of runs and merges
// them in more than one pass writes the same page file, byte for byte, and
// the same statistics as the default budget, under which the sorts stay in
// memory.
func TestLoadSameAtAnySortBudget(t *testing.T) {
	docs := map[string]string{
		"dblp":     xmlgen.DBLP(xmlgen.DBLPConfig{Entries: 300, Seed: 7}),
		"treebank": xmlgen.Treebank(xmlgen.TreebankConfig{Sentences: 12, Seed: 7}),
	}
	type loaded struct {
		data  []byte
		st    *Store
		sorts []recfile.SortStats
	}
	load := func(t *testing.T, doc string, budget int) loaded {
		dir := t.TempDir()
		s, err := Open(dir, Options{SortBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.LoadString(doc); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, dataFileName))
		if err != nil {
			t.Fatal(err)
		}
		return loaded{data, s, s.loadSorts}
	}
	for name, doc := range docs {
		t.Run(name, func(t *testing.T) {
			tiny, dflt := load(t, doc, 2<<10), load(t, doc, 0)
			if len(tiny.sorts) != 3 || len(dflt.sorts) != 3 {
				t.Fatalf("got %d and %d sorts, want 3 each", len(tiny.sorts), len(dflt.sorts))
			}
			for i := range tiny.sorts {
				ts, ds := tiny.sorts[i], dflt.sorts[i]
				if ts.Runs < 2 || ts.MergePasses < 1 || !ds.InMemory || ts.Records != ds.Records {
					t.Fatalf("sort %d: tiny budget %+v, default %+v: want many runs and a merge pass against one in-memory run", i, ts, ds)
				}
			}
			if !bytes.Equal(tiny.data, dflt.data) {
				t.Fatalf("data.db differs between sort budgets (%d and %d bytes)", len(tiny.data), len(dflt.data))
			}
			if !reflect.DeepEqual(tiny.st.Stats(), dflt.st.Stats()) || !reflect.DeepEqual(tiny.st.textHashes, dflt.st.textHashes) {
				t.Fatal("statistics differ between sort budgets")
			}
		})
	}
}
