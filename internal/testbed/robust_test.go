package testbed

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"xqdb/internal/core"
	"xqdb/internal/opt"
	"xqdb/internal/store"
)

// TestRobustnessSuite is the resource-governance acceptance harness: the
// correctness + efficiency queries on all four documents, replayed under
// a 64 KiB budget, deterministic I/O fault injection, and an aggressive
// deadline. Zero panics, zero leaked temp files, zero leaked pager pins,
// byte-identical results whenever a run completes — and the tiny budget
// must actually force spilling, or the pass proves nothing.
func TestRobustnessSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("robustness suite in -short mode")
	}
	twig, ok := opt.ForceJoin("twig")
	if !ok {
		t.Fatal("ForceJoin(twig)")
	}
	anc, ok := opt.ForceJoin("structural-anc")
	if !ok {
		t.Fatal("ForceJoin(structural-anc)")
	}
	// The cost-based planner may legitimately avoid spilling at a tiny
	// budget (the spill surcharge steers it to streaming plans), so the
	// spill-counter assertion applies to the forced families, which have
	// no such escape. The anc family runs at 8 KiB: its output lists only
	// buffer under nested ancestors, and the suite documents' nesting
	// peaks below 64 KiB of list memory.
	families := []struct {
		name      string
		cfg       *opt.Config
		budget    int
		mustSpill bool
	}{
		{"auto", nil, 0, false},
		{"twig", &twig, 0, true},
		{"structural-anc", &anc, 8 << 10, true},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			cfg := RobustConfig{Seed: RobustSeedCI, Opt: fam.cfg, Budget: fam.budget}
			rep, err := RunRobustness(t.TempDir(), cfg)
			if err != nil {
				t.Fatalf("robustness harness (seed %d): %v", cfg.Seed, err)
			}
			t.Logf("robustness: %d queries, %d fault runs (%d fired, %d clean aborts), %d deadline aborts, spilled=%dB in %d runs",
				rep.Queries, rep.FaultRuns, rep.FaultFired, rep.FaultErrors, rep.Timeouts, rep.SpilledBytes, rep.SpillRuns)
			for i, f := range rep.Failures {
				if i >= 10 {
					t.Errorf("... and %d more failures", len(rep.Failures)-10)
					break
				}
				t.Errorf("seed=%d: %s", cfg.Seed, f)
			}
			if rep.FaultRuns == 0 || rep.FaultFired == 0 {
				t.Errorf("fault pass never triggered: %d runs, %d fired", rep.FaultRuns, rep.FaultFired)
			}
			if fam.mustSpill && (rep.SpilledBytes == 0 || rep.SpillRuns == 0) {
				t.Errorf("64 KiB budget forced no spilling (spilled=%dB runs=%d) — budget not exercised", rep.SpilledBytes, rep.SpillRuns)
			}
			if rep.Timeouts == 0 {
				t.Error("tight-deadline pass aborted nothing — deadline not exercised")
			}
		})
	}
}

// TestRobustnessBatchSizes replays the robustness harness — tiny budgets,
// fault injection, tight deadlines — with the budgeted and deadlined
// engines pinned to an adversarial batch capacity (a prime that straddles
// run boundaries). The clean reference stays at the default capacity, so
// every byte comparison doubles as a batch-vs-reference equivalence check
// under spill and abort pressure.
func TestRobustnessBatchSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("robustness suite in -short mode")
	}
	cfg := RobustConfig{Seed: RobustSeedCI, BatchSize: 7}
	rep, err := RunRobustness(t.TempDir(), cfg)
	if err != nil {
		t.Fatalf("robustness harness (seed %d): %v", cfg.Seed, err)
	}
	t.Logf("robustness: %d queries, %d fault runs (%d fired), %d deadline aborts, spilled=%dB",
		rep.Queries, rep.FaultRuns, rep.FaultFired, rep.Timeouts, rep.SpilledBytes)
	for i, f := range rep.Failures {
		if i >= 10 {
			t.Errorf("... and %d more failures", len(rep.Failures)-10)
			break
		}
		t.Errorf("seed=%d: %s", cfg.Seed, f)
	}
	if rep.Timeouts == 0 {
		t.Error("tight-deadline pass aborted nothing — per-batch polling not exercised")
	}
}

// TestSpillCountersUnderTinyBudget pins the spill discipline to the two
// operators the budget work targeted: a forced holistic twig join and a
// forced ancestor-ordered structural join, each on a document large
// enough that 64 KiB cannot hold the intermediate lists. Results must
// stay byte-identical to the unbudgeted run, and the spill counters must
// show the operators actually went to disk.
func TestSpillCountersUnderTinyBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("spill-counter suite in -short mode")
	}
	docs := map[string]Doc{}
	for _, d := range Documents(2) { // ~800-entry DBLP: far past 64 KiB of vartuples
		docs[d.Name] = d
	}
	cases := []struct {
		name       string
		force      string
		doc        Doc
		budget     int
		query      string
		wantTuples bool // the operator's own list spill, not just a sorter run
	}{
		// Path-solution lists + merge partitions + governed output sort.
		{"twig", "twig", docs["dblp"], 64 << 10,
			`for $x in //inproceedings return for $a in $x//author return for $ti in $x//title return for $y in $x//year return $a`, true},
		// Anc output lists buffer only under nested ancestors (treebank's
		// recursive NPs); the suite nesting peaks below 64 KiB of list
		// memory, so the quota that forces the segment-chain spill is 8 KiB.
		{"structural-anc", "structural-anc", docs["treebank"], 8 << 10,
			`for $np in //NP return for $nn in $np//NN return $nn`, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := store.Open(filepath.Join(t.TempDir(), "spill"), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if err := st.LoadString(tc.doc.XML); err != nil {
				t.Fatal(err)
			}
			forced, ok := opt.ForceJoin(tc.force)
			if !ok {
				t.Fatalf("ForceJoin(%s)", tc.force)
			}
			clean := core.New(st, core.Config{Mode: core.ModeM4, Opt: &forced})
			want, err := clean.Query(tc.query)
			if err != nil {
				t.Fatalf("unbudgeted: %v", err)
			}
			tiny := core.New(st, core.Config{
				Mode: core.ModeM4, Opt: &forced,
				SortBudget: tc.budget, MemBudget: tc.budget,
			})
			got, err := tiny.Query(tc.query)
			if err != nil {
				t.Fatalf("%d-byte budget: %v", tc.budget, err)
			}
			if got != want {
				t.Fatalf("budgeted bytes differ:\n got: %.160q\nwant: %.160q", got, want)
			}
			c := tiny.Counters()
			if c.SpilledBytes == 0 || c.SpillRuns == 0 {
				t.Errorf("%s at %dB did not spill: spilled=%dB runs=%d tuples=%d",
					tc.name, tc.budget, c.SpilledBytes, c.SpillRuns, c.SpilledTuples)
			}
			if tc.wantTuples && c.SpilledTuples == 0 {
				t.Errorf("%s at %dB spilled no tuples from its own lists (spilled=%dB runs=%d)",
					tc.name, tc.budget, c.SpilledBytes, c.SpillRuns)
			}
			t.Logf("%s: spilled=%dB runs=%d tuples=%d", tc.name, c.SpilledBytes, c.SpillRuns, c.SpilledTuples)
			if dir, err := st.TempDir(); err == nil {
				if ents, _ := os.ReadDir(dir); len(ents) != 0 {
					t.Errorf("leaked %d temp files after budgeted run", len(ents))
				}
			}
		})
	}
}

// TestFuzzUnderTinyBudget replays the randomized cross-engine
// equivalence fuzz with every engine under test capped at 64 KiB of
// operator and buffer memory: the spill paths of every operator family
// must produce the same bytes as the in-memory naive reference.
func TestFuzzUnderTinyBudget(t *testing.T) {
	iters := 60
	if s := os.Getenv("XQDB_FUZZ_ITERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			iters = n
		}
	}
	if testing.Short() {
		iters = 8
	}
	cfg := FuzzConfig{Seed: FuzzSeedCI, Iterations: iters, Budget: 64 << 10}
	mismatches, checks, err := RunFuzz(t.TempDir(), cfg)
	if err != nil {
		t.Fatalf("tiny-budget fuzz (seed %d): %v", cfg.Seed, err)
	}
	t.Logf("tiny-budget fuzz: %d iterations, %d engine checks, seed %d", iters, checks, cfg.Seed)
	for i, m := range mismatches {
		if i >= 10 {
			t.Errorf("... and %d more mismatches", len(mismatches)-10)
			break
		}
		t.Errorf("seed=%d iter=%d doc=%s engine=%s batch=%d\nquery: %s\n got: %.160q (err %v)\nwant: %.160q (err %v)",
			cfg.Seed, m.Iter, m.Doc, m.Engine, m.Batch, m.Query, m.Got, m.GotErr, m.Want, m.WantErr)
	}
}
