package xqdb

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestPublicAPIRoundtrip(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	doc, err := db.CreateDocument("journal", strings.NewReader(Figure2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := doc.Query(`<names>{ for $j in /journal return for $n in $j//name return $n }</names>`)
	if err != nil {
		t.Fatal(err)
	}
	want := `<names><name>Ana</name><name>Bob</name></names>`
	if got != want {
		t.Errorf("got %s want %s", got, want)
	}

	xml, err := doc.XML()
	if err != nil || xml != Figure2 {
		t.Errorf("XML roundtrip: %s (%v)", xml, err)
	}

	st := doc.Stats()
	if st.Nodes != 9 || st.Labels["name"] != 2 {
		t.Errorf("stats: %+v", st)
	}
}

func TestPublicAPIAllModes(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, err := db.CreateDocument("d", strings.NewReader(GenerateDBLP(50, 3)))
	if err != nil {
		t.Fatal(err)
	}
	q := `for $x in //article return for $t in $x/title return $t`
	want, err := doc.Query(q, QueryOptions{Mode: M1})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Mode{M2, M3, M4, NaiveTPM, M4BadStats} {
		got, err := doc.Query(q, QueryOptions{Mode: m})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if got != want {
			t.Errorf("%s disagrees with M1", m)
		}
	}
}

func TestPublicAPIPersistence(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateDocument("persist", strings.NewReader(Figure2)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	doc, err := db2.OpenDocument("persist")
	if err != nil {
		t.Fatal(err)
	}
	got, err := doc.Query(`/journal/title/text()`)
	if err != nil || got != "DB" {
		t.Errorf("got %q err %v", got, err)
	}
	if _, err := db2.OpenDocument("missing"); err == nil {
		t.Error("opening a missing document succeeded")
	}
}

func TestPublicAPIEval(t *testing.T) {
	got, err := Eval(Figure2, `for $n in //name return $n/text()`)
	if err != nil || got != "AnaBob" {
		t.Errorf("Eval: %q, %v", got, err)
	}
	if err := ParseQuery(`for $x in`); err == nil {
		t.Error("ParseQuery accepted garbage")
	}
	if err := ParseQuery(`/a/b`); err != nil {
		t.Errorf("ParseQuery rejected valid query: %v", err)
	}
}

func TestPublicAPITimeout(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, err := db.CreateDocument("d", strings.NewReader(GenerateDBLP(2000, 9)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = doc.Query(
		`for $x in //author return for $y in //author return if ($x/text() = $y/text()) then <m/> else ()`,
		QueryOptions{Mode: M2, Timeout: time.Millisecond})
	if !IsTimeout(err) {
		t.Fatalf("want timeout, got %v", err)
	}
}

func TestPublicAPIExplain(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, err := db.CreateDocument("j", strings.NewReader(Figure2))
	if err != nil {
		t.Fatal(err)
	}
	out, err := doc.Explain(`for $j in /journal return $j//name`)
	if err != nil || !strings.Contains(out, "physical plan") {
		t.Errorf("explain: %v\n%s", err, out)
	}
}

func TestGenerators(t *testing.T) {
	d1 := GenerateDBLP(100, 5)
	d2 := GenerateDBLP(100, 5)
	if d1 != d2 {
		t.Error("DBLP generator is not deterministic")
	}
	if !strings.Contains(d1, "<article>") || !strings.Contains(d1, "<author>") {
		t.Error("DBLP document lacks expected structure")
	}
	t1 := GenerateTreebank(10, 5)
	if t1 != GenerateTreebank(10, 5) {
		t.Error("Treebank generator is not deterministic")
	}
	if !strings.Contains(t1, "<S>") {
		t.Error("Treebank document lacks sentences")
	}
	// Generated documents must be loadable and queryable.
	if _, err := Eval(d1, `for $a in //author return $a`); err != nil {
		t.Errorf("DBLP document not queryable: %v", err)
	}
}

// TestCDATAAfterMarkup: a CDATA section right after a tag is read in
// place, by M1 over the parsed document and by every engine over a stored
// one; CDATA after text and before more text makes one text node.
func TestCDATAAfterMarkup(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i, c := range []struct {
		doc, query, want string
		nodes            int64
	}{
		{`<r><a><![CDATA[x]]></a></r>`, `//a`, `<a>x</a>`, 4},
		{`<r><a><![CDATA[x]]></a></r>`, `/r`, `<r><a>x</a></r>`, 4},
		{`<r><a><b/><![CDATA[c]]><d/></a></r>`, `/r`, `<r><a><b/>c<d/></a></r>`, 6},
		{`<r><a>p<![CDATA[q]]>r</a></r>`, `//a`, `<a>pqr</a>`, 4},
		{`<r><a><![CDATA[x<&]]>y</a></r>`, `//a/text()`, `x&lt;&amp;y`, 4},
	} {
		if got, err := Eval(c.doc, c.query); err != nil || got != c.want {
			t.Errorf("Eval(%s, %s) = %q (%v), want %q", c.doc, c.query, got, err, c.want)
		}
		doc, err := db.CreateDocument(fmt.Sprintf("d%d", i), strings.NewReader(c.doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []Mode{M1, M2, M3, M4, NaiveTPM, M4BadStats} {
			if got, err := doc.Query(c.query, QueryOptions{Mode: m}); err != nil || got != c.want {
				t.Errorf("%s over stored %s: %s = %q (%v), want %q", m, c.doc, c.query, got, err, c.want)
			}
		}
		if st := doc.Stats(); st.Nodes != c.nodes {
			t.Errorf("stored %s: %d nodes, want %d", c.doc, st.Nodes, c.nodes)
		}
		doc.Close()
	}
}
