package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"xqdb/bench/layers"
)

// The smoke test runs all four workloads, untraced and traced, at toy
// scale against a real xqserver built from this checkout.

var (
	testServer string // xqserver binary
	testRoot   string // stands in for the checkout root (.bench_build goes here)
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "xqdb-bench-test-")
	if err != nil {
		panic(err)
	}
	testRoot = dir
	testServer = filepath.Join(dir, "xqserver")
	if out, err := exec.Command("go", "build", "-o", testServer, "xqdb/cmd/xqserver").CombinedOutput(); err != nil {
		os.Stderr.Write(out)
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

const toyScale = 20

func toyOptions(trace int) options {
	return options{Seed: 7, Seconds: 0.3, Trace: trace, Scale: toyScale, Root: testRoot, Server: testServer}
}

// exactCounts are the layer metrics that must repeat between two replays
// of one seed; that is what lets a later change rest a claim on them.
var exactCounts = []string{"plancache.hit_ratio", "pager.pages_read_per_op", "pager.hit_ratio",
	"wal.bytes_per_stmt", "exec.rows_scanned_per_row_out", "exec.spill_bytes_per_op", "store.lookup_pages"}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads() {
		// In parallel: nothing here asserts a time, and the counts that must
		// repeat belong to one replay's own stores and caches.
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			smoke(t, w)
		})
	}
}

func smoke(t *testing.T, w workload) {
	for _, trace := range []int{0, 1} {
		rec, err := runOnce(w, toyOptions(trace))
		if err != nil {
			t.Fatalf("%s trace %d: %v", w.Name, trace, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
			t.Errorf("%s trace %d: %d of %d operations failed: %v", w.Name, trace, rec.Failed, rec.Attempted, rec.Failures)
		}
		defs := endToEnd
		if trace == 1 {
			defs = perLayer()
		}
		if len(rec.Metrics) != len(defs) {
			t.Errorf("%s trace %d: %d metrics printed, want %d", w.Name, trace, len(rec.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := rec.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("%s trace %d: metric %s missing", w.Name, trace, d.Name)
			case m.Unit != d.Unit || m.Unit == "":
				t.Errorf("%s: metric %s has unit %q, want %q", w.Name, d.Name, m.Unit, d.Unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: metric %s = %v", w.Name, d.Name, m.Value)
			case m.Value < 0 && d.Name != "server.handle_self_us": // a difference of two timings
				t.Errorf("%s: metric %s = %v", w.Name, d.Name, m.Value)
			case trace == 0 && m.Value == 0:
				t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
			}
		}
		var out bytes.Buffer
		rec.print(&out)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || len(last.Metrics) != len(defs) {
			t.Errorf("%s trace %d: last line is not the result object: %v", w.Name, trace, err)
		}
		if trace == 0 {
			continue
		}
		// A second replay of the same seed must repeat the counts.
		toy := w.scaled(toyScale)
		dir := t.TempDir()
		spec := replaySpec(toy, toy.generate(7), 7, filepath.Join(dir, "layers"), filepath.Join(dir, "spans.json"))
		spec.ProbeScale = toyScale
		again, err := layers.Run(spec)
		if err != nil {
			t.Fatalf("%s: second replay: %v", w.Name, err)
		}
		for _, name := range exactCounts {
			if rec.Metrics[name].Value != again.Values[name] {
				t.Errorf("%s: %s = %v then %v at one seed", w.Name, name, rec.Metrics[name].Value, again.Values[name])
			}
		}
	}
}

// space_amp is an exact count too: same seed, same bytes on disk.
func TestSpaceAmpRepeats(t *testing.T) {
	w, _ := findWorkload("scan-bulk")
	w = w.scaled(toyScale)
	var stored []int64
	for range 2 {
		srv, _, _, err := setUpOnce(w, e2eConfig{ServerBin: testServer, Docs: w.generate(7)}, filepath.Join(t.TempDir(), "store"))
		if err != nil {
			t.Fatal(err)
		}
		n, err := srv.storeBytes()
		srv.stop()
		if err != nil {
			t.Fatal(err)
		}
		stored = append(stored, n)
	}
	if stored[0] != stored[1] || stored[0] == 0 {
		t.Errorf("%d bytes stored, then %d, at one seed", stored[0], stored[1])
	}
}

// BENCHMARK.json must name exactly what the driver prints.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the driver %q", i, bf.Workloads[i].Name, w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the driver", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the driver %+v", i, got, d)
		}
	}
	layer := perLayer()
	if len(bf.PerLayer) != len(layer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the driver", len(bf.PerLayer), len(layer))
	}
	for i, d := range layer {
		if got := bf.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the driver %+v", i, got, d)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10.5], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10.5, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if s := spread([]float64{10.5, 1, 2, 3, 4, 5, 6, 7, 8, 9}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestCompareFlagsRegressionAndNoise(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50s []float64) string {
		path := filepath.Join(dir, name)
		for i, v := range p50s {
			r := newRecord("point-hot", options{Seed: int64(i), Root: dir})
			r.Correct, r.Attempted = true, 1
			r.Metrics["query_p50_ms"] = metric{v, "ms"}
			if err := r.appendTo(path); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	bench := filepath.Join("..", "BENCHMARK.json")
	base := write("a.json", []float64{1.00, 1.01, 0.99, 1.00, 1.02})
	for name, o := range map[string]options{"seconds": {Seconds: 5}, "scale": {Scale: 20}, "trace": {Trace: 1}} {
		o.Root = dir
		r := newRecord("point-hot", o)
		r.Correct, r.Attempted = true, 1
		path := filepath.Join(dir, name+".json")
		if err := r.appendTo(path); err != nil {
			t.Fatal(err)
		}
		if _, err := compareFiles(io.Discard, bench, base, path); err == nil {
			t.Errorf("runs with another %s were compared", name)
		}
	}
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, bench, base, write("same.json", []float64{1.03, 1.02, 1.04, 1.03, 1.02})); err != nil || regressed {
		t.Errorf("3%% slower flagged as a regression (err=%v):\n%s", err, out.String())
	}
	out.Reset()
	if regressed, err := compareFiles(&out, bench, base, write("slow.json", []float64{1.5, 1.5, 1.5, 1.5, 1.5})); err != nil || !regressed {
		t.Errorf("50%% slower not flagged (err=%v):\n%s", err, out.String())
	}
	out.Reset()
	if regressed, err := compareFiles(&out, bench, base, write("noisyslow.json", []float64{0.9, 2.1, 1.5, 1.0, 2.0})); err != nil || regressed || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a slower set whose spread exceeds the bound is unresolved, not a regression (err=%v):\n%s", err, out.String())
	}
	out.Reset()
	if _, err := compareFiles(&out, bench, base, write("noisy.json", []float64{0.6, 1.4, 1.0, 0.7, 1.3})); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound not marked unresolved (err=%v):\n%s", err, out.String())
	}
}
