package xq_test

import (
	"testing"

	"xqdb/internal/testbed"
	"xqdb/internal/xq"
)

// FuzzParse feeds arbitrary text to both parsers: each must return an AST
// or an error, never panic. The seed corpus is the testbed's query
// workload plus update statements of every kind.
func FuzzParse(f *testing.F) {
	for _, q := range testbed.CorrectnessQueries() {
		f.Add(q)
	}
	for _, q := range testbed.MixedTwigQueries() {
		f.Add(q)
	}
	for _, u := range []string{
		`insert node <x>new</x> into /r`,
		`insert node <a><b>t</b>text</a> before //b`,
		`insert node <c/> after /r/a/text()`,
		`replace node //title with <title>T &amp; U</title>`,
		`delete node //author`,
		`delete node /r/*`,
	} {
		f.Add(u)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if e, err := xq.Parse(src); err == nil && e == nil {
			t.Errorf("Parse(%q) returned neither an AST nor an error", src)
		}
		if u, err := xq.ParseUpdate(src); err == nil && u == nil {
			t.Errorf("ParseUpdate(%q) returned neither an AST nor an error", src)
		}
	})
}
