package testbed

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"xqdb/internal/core"
	"xqdb/internal/fault"
	"xqdb/internal/limit"
	"xqdb/internal/opt"
	"xqdb/internal/store"
)

// RobustSeedCI is the pinned seed the CI fault-injection step runs at.
const RobustSeedCI = 20260808

// RobustConfig parameterizes the robustness harness: the equivalence
// suite replayed under tiny memory budgets, deterministic I/O fault
// injection, and aggressive deadlines.
type RobustConfig struct {
	// Seed drives the choice of fault points; the same seed replays the
	// identical failure sequence.
	Seed int64
	// Budget is the per-query memory quota AND operator sort budget in
	// bytes (default 64 KiB — small enough that every buffering operator
	// spills on the suite documents).
	Budget int
	// FaultsPerQuery is how many distinct I/O operations to fail per
	// query (default 3); each fault point is one full re-execution with
	// exactly the Nth I/O of the query failing.
	FaultsPerQuery int
	// Timeout bounds each non-deadline run (default 30s — generous, so
	// timing never masquerades as a robustness failure).
	Timeout time.Duration
	// TightDeadline is the aggressive per-query deadline of the abort
	// pass (default 500µs): most suite queries cannot finish, so the
	// pass exercises mid-stream cancellation on every operator.
	TightDeadline time.Duration
	// CacheFrames bounds the buffer pool (default 32 frames — small
	// enough that suite queries must re-read pages from the file, so
	// the fault injector sees real page I/O to fail).
	CacheFrames int
	// Opt, when set, configures the optimizer of the budgeted and
	// deadlined engines — the hook for replaying the suite with a
	// forced operator family (the reference engine stays cost-based, so
	// every comparison doubles as a cross-config equivalence check).
	Opt *opt.Config
	// BatchSize follows core.Config.BatchSize for the budgeted and
	// deadlined engines (0 = executor default); the clean reference
	// always runs at the default so every comparison
	// doubles as a batch-vs-reference equivalence check.
	BatchSize int
	// Docs are the documents to replay on (default Documents(1)).
	Docs []Doc
	// Queries are the queries to replay (default the correctness suite,
	// the efficiency tests, and chain/branch shapes that drive the twig
	// and ancestor-ordered structural operators into their spill paths).
	Queries []string
}

// RobustFailure records one robustness violation: a panic, a leaked
// resource, or a completed run whose bytes differ from the clean
// reference.
type RobustFailure struct {
	Doc   string
	Query string
	Phase string // "budget", "fault@N", "deadline"
	Kind  string // "panic", "temp-leak", "pin-leak", "mismatch", "error"
	Got   string
	Want  string
	Err   error
}

func (f RobustFailure) String() string {
	return fmt.Sprintf("%s [%s/%s] %q: err=%v got=%.80q want=%.80q",
		f.Kind, f.Doc, f.Phase, f.Query, f.Err, f.Got, f.Want)
}

// RobustReport summarizes one harness run.
type RobustReport struct {
	Queries      int   // (doc, query) pairs replayed
	FaultRuns    int   // fault-armed executions
	FaultFired   int   // fault runs where the armed fault actually triggered
	FaultErrors  int   // fault runs that surfaced an error (clean aborts)
	Timeouts     int   // deadline-pass runs aborted by the tight deadline
	SpilledBytes int64 // total spill traffic of the budgeted clean runs
	SpillRuns    int64
	Failures     []RobustFailure
}

// RunRobustness replays the suite under resource pressure. For every
// (document, query) pair it runs four phases, asserting after each that
// no temp files and no pager pins leaked and that nothing panicked:
//
//  1. a clean unbudgeted run, establishing the reference bytes;
//  2. a clean run at cfg.Budget (memory quota + sort budget) — must
//     complete byte-identically, degrading to disk instead of failing;
//  3. cfg.FaultsPerQuery fault runs, each failing exactly the Nth I/O
//     operation (page reads/writes and temp-file writes share one
//     counter) for a deterministically chosen N — a run either
//     completes byte-identically or returns an error, never panics;
//  4. a run under cfg.TightDeadline — must either complete
//     byte-identically or abort with the deadline error.
//
// Everything is derived from cfg.Seed, so a failure replays exactly.
func RunRobustness(dir string, cfg RobustConfig) (RobustReport, error) {
	if cfg.Budget <= 0 {
		cfg.Budget = 64 << 10
	}
	if cfg.FaultsPerQuery <= 0 {
		cfg.FaultsPerQuery = 3
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.TightDeadline <= 0 {
		cfg.TightDeadline = 500 * time.Microsecond
	}
	if cfg.CacheFrames <= 0 {
		cfg.CacheFrames = 32
	}
	if cfg.Docs == nil {
		cfg.Docs = Documents(1)
	}
	if cfg.Queries == nil {
		cfg.Queries = append([]string(nil), CorrectnessQueries()...)
		for _, et := range EfficiencyTests() {
			cfg.Queries = append(cfg.Queries, et.Query)
		}
		cfg.Queries = append(cfg.Queries,
			// Multi-branch twig and ancestor-first chains: the shapes
			// whose path-solution lists and anc output lists overflow a
			// 64 KiB budget on the suite documents.
			`for $x in //inproceedings return for $a in $x//author return for $ti in $x//title return for $y in $x//year return $a`,
			`for $j in //dblp return for $x in $j//inproceedings return for $a in $x//author return $a`,
			`for $s in //S return for $np in $s//NP return for $nn in $np//NN return $nn`,
		)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var rep RobustReport
	for _, doc := range cfg.Docs {
		inj := &fault.Injector{}
		st, err := store.Open(filepath.Join(dir, "robust-"+doc.Name), store.Options{
			IOHook:      inj.Hook,
			CacheFrames: cfg.CacheFrames,
		})
		if err != nil {
			return rep, err
		}
		if err := st.LoadString(doc.XML); err != nil {
			st.Close()
			return rep, fmt.Errorf("testbed: loading %s: %w", doc.Name, err)
		}

		clean := core.New(st, core.Config{Mode: core.ModeM4, Timeout: cfg.Timeout})
		budgeted := core.New(st, core.Config{
			Mode: core.ModeM4, Opt: cfg.Opt, Timeout: cfg.Timeout,
			SortBudget: cfg.Budget, MemBudget: cfg.Budget,
			FaultHook: inj.Hook, BatchSize: cfg.BatchSize,
		})
		deadlined := core.New(st, core.Config{
			Mode: core.ModeM4, Opt: cfg.Opt, Timeout: cfg.TightDeadline,
			SortBudget: cfg.Budget, MemBudget: cfg.Budget,
			FaultHook: inj.Hook, BatchSize: cfg.BatchSize,
		})

		for _, q := range cfg.Queries {
			rep.Queries++
			fail := func(phase, kind, got, want string, err error) {
				rep.Failures = append(rep.Failures, RobustFailure{
					Doc: doc.Name, Query: q, Phase: phase, Kind: kind,
					Got: got, Want: want, Err: err,
				})
			}

			// Phase 1: unbudgeted reference bytes.
			want, err, panicked := safeQuery(clean, q)
			if panicked {
				fail("reference", "panic", "", "", err)
				continue
			}
			if err != nil {
				return rep, fmt.Errorf("testbed: reference failed on %q over %s: %w", q, doc.Name, err)
			}

			// Phase 2: tiny budget, counting the query's I/O operations.
			// Spilling is graceful degradation — the run must still
			// complete with the same bytes.
			inj.Arm(0) // reset the op counter, stay disarmed
			got, err, panicked := safeQuery(budgeted, q)
			ops := inj.Ops()
			switch {
			case panicked:
				fail("budget", "panic", "", "", err)
			case err != nil:
				fail("budget", "error", got, want, err)
			case got != want:
				fail("budget", "mismatch", got, want, nil)
			}
			rep.SpilledBytes += budgeted.Counters().SpilledBytes
			rep.SpillRuns += int64(budgeted.Counters().SpillRuns)
			rep.Failures = append(rep.Failures, leakChecks(st, doc.Name, q, "budget")...)

			// Phase 3: deterministic fault points across the query's I/O
			// sequence. Each run either completes byte-identically or
			// aborts with an error — and always cleans up.
			for k := 0; k < cfg.FaultsPerQuery && ops > 0; k++ {
				n := 1 + rng.Int63n(ops)
				inj.Arm(n)
				got, err, panicked := safeQuery(budgeted, q)
				rep.FaultRuns++
				if inj.Fired() {
					rep.FaultFired++
				}
				inj.Disarm()
				switch {
				case panicked:
					fail(fmt.Sprintf("fault@%d", n), "panic", "", "", err)
				case err != nil:
					rep.FaultErrors++ // a clean abort is the expected outcome
				case got != want:
					fail(fmt.Sprintf("fault@%d", n), "mismatch", got, want, nil)
				}
				rep.Failures = append(rep.Failures, leakChecks(st, doc.Name, q, fmt.Sprintf("fault@%d", n))...)
			}

			// Phase 4: aggressive deadline — complete identically or
			// abort with the deadline error, never anything else.
			got, err, panicked = safeQuery(deadlined, q)
			switch {
			case panicked:
				fail("deadline", "panic", "", "", err)
			case errors.Is(err, limit.ErrTimeout) || errors.Is(err, limit.ErrCanceled):
				rep.Timeouts++
			case err != nil:
				fail("deadline", "error", got, want, err)
			case got != want:
				fail("deadline", "mismatch", got, want, nil)
			}
			rep.Failures = append(rep.Failures, leakChecks(st, doc.Name, q, "deadline")...)
		}
		st.Close()
	}
	return rep, nil
}

// safeQuery runs one query, converting a panic into an error so the
// harness can keep replaying (and record the violation).
func safeQuery(e *core.Engine, q string) (res string, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	res, err = e.Query(q)
	return res, err, false
}

// leakChecks asserts the post-query invariants: the store's temp
// directory holds no spill files and the buffer pool holds no pins. Any
// leaked temp files are removed so one leak is reported once, not on
// every later check.
func leakChecks(st *store.Store, doc, q, phase string) []RobustFailure {
	var out []RobustFailure
	if dir, err := st.TempDir(); err == nil {
		if ents, err := os.ReadDir(dir); err == nil && len(ents) > 0 {
			names := make([]string, 0, len(ents))
			for _, e := range ents {
				names = append(names, e.Name())
				os.Remove(filepath.Join(dir, e.Name()))
			}
			out = append(out, RobustFailure{
				Doc: doc, Query: q, Phase: phase, Kind: "temp-leak",
				Err: fmt.Errorf("%d leaked temp files: %v", len(names), names),
			})
		}
	}
	if pins := st.PinnedPages(); pins != 0 {
		out = append(out, RobustFailure{
			Doc: doc, Query: q, Phase: phase, Kind: "pin-leak",
			Err: fmt.Errorf("%d pages still pinned", pins),
		})
	}
	return out
}
