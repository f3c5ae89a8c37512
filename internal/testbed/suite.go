package testbed

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"xqdb/internal/core"
	"xqdb/internal/exec"
	"xqdb/internal/limit"
	"xqdb/internal/opt"
	"xqdb/internal/plancache"
	"xqdb/internal/store"
)

// CorrectnessOutcome records one (document, query, engine) check against
// the milestone 1 reference.
type CorrectnessOutcome struct {
	Doc   string
	Query int // 1-based index into CorrectnessQueries
	Mode  core.Mode
	Pass  bool
	Err   error
	Got   string
	Want  string
}

// RunCorrectness loads each document into a store under dir and runs the
// correctness queries on every engine mode, comparing against the
// milestone 1 reference output.
func RunCorrectness(dir string, docs []Doc, modes []core.Mode) ([]CorrectnessOutcome, error) {
	var out []CorrectnessOutcome
	queries := CorrectnessQueries()
	for _, doc := range docs {
		st, err := store.Open(filepath.Join(dir, "correctness-"+doc.Name), store.Options{})
		if err != nil {
			return nil, err
		}
		if err := st.LoadString(doc.XML); err != nil {
			st.Close()
			return nil, err
		}
		ref := core.New(st, core.Config{Mode: core.ModeM1})
		for qi, q := range queries {
			want, err := ref.Query(q)
			if err != nil {
				st.Close()
				return nil, fmt.Errorf("testbed: reference failed on %q over %s: %w", q, doc.Name, err)
			}
			for _, m := range modes {
				if m == core.ModeM1 {
					continue
				}
				e := core.New(st, core.Config{Mode: m})
				got, err := e.Query(q)
				oc := CorrectnessOutcome{Doc: doc.Name, Query: qi + 1, Mode: m, Got: got, Want: want, Err: err}
				oc.Pass = err == nil && got == want
				out = append(out, oc)
			}
		}
		st.Close()
	}
	return out, nil
}

// SummarizeCorrectness renders a pass/fail matrix.
func SummarizeCorrectness(outcomes []CorrectnessOutcome) string {
	type key struct {
		doc  string
		mode core.Mode
	}
	pass := map[key]int{}
	total := map[key]int{}
	var docs []string
	var modes []core.Mode
	seenDoc := map[string]bool{}
	seenMode := map[core.Mode]bool{}
	for _, o := range outcomes {
		k := key{o.Doc, o.Mode}
		total[k]++
		if o.Pass {
			pass[k]++
		}
		if !seenDoc[o.Doc] {
			seenDoc[o.Doc] = true
			docs = append(docs, o.Doc)
		}
		if !seenMode[o.Mode] {
			seenMode[o.Mode] = true
			modes = append(modes, o.Mode)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", "engine")
	for _, d := range docs {
		fmt.Fprintf(&b, " %14s", d)
	}
	b.WriteString("\n")
	for _, m := range modes {
		fmt.Fprintf(&b, "%-14s", m)
		for _, d := range docs {
			k := key{d, m}
			fmt.Fprintf(&b, " %7d/%-6d", pass[k], total[k])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// EffConfig parameterizes the efficiency suite.
type EffConfig struct {
	// Entries scales the DBLP-shaped document.
	Entries int
	// Seed makes the document deterministic.
	Seed int64
	// Timeout is the per-query cap; timed-out engines are assigned the
	// cap, as in the paper ("engines that needed more than 2400 seconds
	// were stopped and assigned 2400").
	Timeout time.Duration
	// CacheFrames bounds the buffer pool (the paper's 20 MB memory cap:
	// frames × page size). 0 = pager default.
	CacheFrames int
	// SortBudget bounds operator memory.
	SortBudget int
	// MemBudget caps each query's total buffered bytes across all its
	// operators (0 = unlimited); over-budget operators spill to disk.
	MemBudget int
	// Modes are the engines to compare.
	Modes []core.Mode
	// Opt overrides the optimizer configuration of the TPM-based modes
	// (M3/M4 and their variants) — the hook the xqbench -join flag uses
	// to force one join operator family across the whole suite.
	Opt *opt.Config
	// BatchSize follows core.Config.BatchSize: 0 uses the executor
	// default. Only the TPM-based modes have a batched executor; M1/M2
	// ignore it.
	BatchSize int
	// PlanCache, when set, is shared by every TPM-based engine in the run
	// (modes key separately by optimizer config); the caller reads the
	// hit rate off it afterward. M1/M2 ignore it.
	PlanCache *plancache.Cache
}

// EffCell is one engine/test measurement.
type EffCell struct {
	Seconds  float64
	TimedOut bool
	Err      error
	// Allocs is the heap allocation count of the run (runtime.MemStats
	// Mallocs delta — a coarse but comparable allocs/op figure).
	Allocs uint64
	// Counters are the query's executor counters: unlike Seconds they
	// repeat exactly for a given document, so shape checks assert on them.
	Counters exec.Counters
}

// EffRow is one engine's row of the Figure 7 table.
type EffRow struct {
	Mode  core.Mode
	Cells [5]EffCell
	Total float64
	// Batch is the operator batch capacity the engine ran with (core
	// semantics: 0 = executor default).
	Batch int
	// SpilledBytes is the engine's total spill traffic across the five
	// tests (non-zero only when a budget forces operators to disk).
	SpilledBytes int64
	// Allocs is the engine's total heap allocation count across the five
	// tests.
	Allocs uint64
}

// RunEfficiency loads the efficiency document once and times every engine
// on the five tests.
func RunEfficiency(dir string, cfg EffConfig) ([]EffRow, error) {
	if cfg.Entries <= 0 {
		cfg.Entries = 2000
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if len(cfg.Modes) == 0 {
		cfg.Modes = []core.Mode{core.ModeM4, core.ModeM4BadStats, core.ModeM3, core.ModeNaiveTPM, core.ModeM2}
	}
	st, err := store.Open(filepath.Join(dir, "efficiency"), store.Options{
		CacheFrames: cfg.CacheFrames,
		SortBudget:  cfg.SortBudget,
	})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	if err := st.LoadString(EfficiencyDoc(cfg.Entries, cfg.Seed)); err != nil {
		return nil, err
	}

	tests := EfficiencyTests()
	capSec := cfg.Timeout.Seconds()
	var rows []EffRow
	for _, m := range cfg.Modes {
		row := EffRow{Mode: m, Batch: cfg.BatchSize}
		e := core.New(st, core.Config{Mode: m, Timeout: cfg.Timeout, SortBudget: cfg.SortBudget, MemBudget: cfg.MemBudget, Opt: cfg.Opt, BatchSize: cfg.BatchSize,
			PlanCache: cfg.PlanCache, CacheDoc: plancache.DocVersion{Name: "efficiency", Epoch: 1}})
		for i, test := range tests {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			start := time.Now()
			_, err := e.Query(test.Query)
			elapsed := time.Since(start).Seconds()
			runtime.ReadMemStats(&ms)
			cell := EffCell{Seconds: elapsed, Allocs: ms.Mallocs - before, Counters: e.Counters()}
			row.SpilledBytes += cell.Counters.SpilledBytes
			row.Allocs += cell.Allocs
			if errors.Is(err, limit.ErrTimeout) {
				cell.TimedOut = true
				cell.Seconds = capSec // assigned the cap, per the paper
			} else if err != nil {
				cell.Err = err
				cell.Seconds = capSec
			}
			row.Cells[i] = cell
			row.Total += cell.Seconds
		}
		rows = append(rows, row)
	}
	// Figure 7 lists engines by total time.
	sort.Slice(rows, func(i, j int) bool { return rows[i].Total < rows[j].Total })
	return rows, nil
}

// FormatFigure7 renders the efficiency results in the layout of Figure 7:
// one row per engine, user time per test in seconds, and the total.
func FormatFigure7(rows []EffRow) string {
	var b strings.Builder
	b.WriteString("Engine         batch    Test 1    Test 2    Test 3    Test 4    Test 5     Total\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s%5s", r.Mode, batchLabel(r.Batch))
		for _, c := range r.Cells {
			mark := " "
			if c.TimedOut {
				mark = "*"
			}
			fmt.Fprintf(&b, "%9.2f%s", c.Seconds, mark)
		}
		fmt.Fprintf(&b, "%9.2f\n", r.Total)
	}
	b.WriteString("(* = stopped at the cap and assigned the cap, as in the paper)\n")
	return b.String()
}

// batchLabel renders a core.Config.BatchSize value for the table: the
// executor default shows its real capacity.
func batchLabel(n int) string {
	if n == 0 {
		n = exec.DefaultBatchSize
	}
	return fmt.Sprint(n)
}

// WriteReport writes a full testbed report (correctness matrix + Figure 7
// table) to path.
func WriteReport(path, correctness, figure7 string) error {
	var b strings.Builder
	b.WriteString("# Testbed report\n\n## Correctness tests (passed/total per document)\n\n")
	b.WriteString(correctness)
	b.WriteString("\n## Efficiency tests (Figure 7)\n\n")
	b.WriteString(figure7)
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// EquivMismatch records a query whose serialized result differed between
// two optimizer configurations.
type EquivMismatch struct {
	Doc   string
	Query string
	A, B  string
	ErrA  error
	ErrB  error
}

// CacheMismatch records a query whose cached execution diverged from its
// uncached one — different bytes, different error state, or a repeat run
// that failed to hit the cache.
type CacheMismatch struct {
	Doc      string
	Query    string
	Uncached string
	Cached   string
	ErrU     error
	ErrC     error
	// NoHit marks a repeat of a cacheable query that missed the cache.
	NoHit bool
}

// RunCacheEquivalence evaluates every query on every document twice
// through a plan-cached engine — priming miss, then hit — and compares
// the hit's bytes against an uncached engine's result. Byte-identical
// output over the full suite means running the shared cached plan again,
// after the run that put it, changes no semantics.
func RunCacheEquivalence(dir string, docs []Doc, queries []string) ([]CacheMismatch, error) {
	var out []CacheMismatch
	for _, doc := range docs {
		st, err := store.Open(filepath.Join(dir, "cache-equiv-"+doc.Name), store.Options{})
		if err != nil {
			return nil, err
		}
		if err := st.LoadString(doc.XML); err != nil {
			st.Close()
			return nil, err
		}
		plain := core.New(st, core.Config{Mode: core.ModeM4})
		cached := core.New(st, core.Config{Mode: core.ModeM4,
			PlanCache: plancache.New(0),
			CacheDoc:  plancache.DocVersion{Name: doc.Name, Epoch: 1}})
		for _, q := range queries {
			want, errU := plain.Query(q)
			if _, errPrime := cached.NewHandle().Query(q); (errPrime == nil) != (errU == nil) {
				out = append(out, CacheMismatch{Doc: doc.Name, Query: q, Uncached: want, ErrU: errU, ErrC: errPrime})
				continue
			}
			res, errC := cached.NewHandle().Query(q)
			switch {
			case (errC == nil) != (errU == nil):
				out = append(out, CacheMismatch{Doc: doc.Name, Query: q, Uncached: want, ErrU: errU, ErrC: errC})
			case errC == nil && res.XML != want:
				out = append(out, CacheMismatch{Doc: doc.Name, Query: q, Uncached: want, Cached: res.XML})
			case errC == nil && !res.CacheHit:
				out = append(out, CacheMismatch{Doc: doc.Name, Query: q, NoHit: true})
			}
		}
		st.Close()
	}
	return out, nil
}

// RunEquivalence evaluates every query on every document under two M4
// optimizer configurations and reports the mismatches. It is the harness
// for operator-ablation equivalence checks: byte-identical serialized
// results on the full suite mean the ablated operator changes no
// semantics, only cost.
func RunEquivalence(dir string, docs []Doc, queries []string, a, b opt.Config) ([]EquivMismatch, error) {
	var out []EquivMismatch
	for _, doc := range docs {
		st, err := store.Open(filepath.Join(dir, "equiv-"+doc.Name), store.Options{})
		if err != nil {
			return nil, err
		}
		if err := st.LoadString(doc.XML); err != nil {
			st.Close()
			return nil, err
		}
		ea := core.New(st, core.Config{Mode: core.ModeM4, Opt: &a})
		eb := core.New(st, core.Config{Mode: core.ModeM4, Opt: &b})
		for _, q := range queries {
			ra, errA := ea.Query(q)
			rb, errB := eb.Query(q)
			if ra != rb || (errA == nil) != (errB == nil) {
				out = append(out, EquivMismatch{Doc: doc.Name, Query: q, A: ra, B: rb, ErrA: errA, ErrB: errB})
			}
		}
		st.Close()
	}
	return out, nil
}
