package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// schemaVersion is bumped when a record's shape or a metric's meaning
// changes; -compare refuses to mix versions.
const schemaVersion = 1

// record is one run as written to a result file (one JSON object per
// line): where and how it ran, what it measured, and from how many
// samples.
type record struct {
	Schema     int               `json:"schema"`
	Commit     string            `json:"commit"`
	Host       string            `json:"host"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Go         string            `json:"go"`
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      int               `json:"trace"`
	Scale      int               `json:"scale"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Failures   []string          `json:"failures,omitempty"`
	Samples    map[string]int    `json:"samples"`
	Metrics    map[string]metric `json:"metrics"`
}

func newRecord(workload string, o options) *record {
	host, _ := os.Hostname()
	return &record{
		Schema:     schemaVersion,
		Commit:     commit(o.Root),
		Host:       host,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Workload:   workload,
		Seed:       o.Seed,
		Seconds:    o.Seconds,
		Trace:      o.Trace,
		Scale:      o.Scale,
		Samples:    map[string]int{},
		Metrics:    map[string]metric{},
	}
}

// commit names the code under test; a checkout that is not a git
// repository has none.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// print writes every metric by name with its unit, the sample counts and
// the error ratio, then the result line.
func (r *record) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %d  commit %s  go %s  nproc %d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Commit, r.Go, r.NProc)
	defs := endToEnd
	if r.Trace != 0 {
		defs = perLayer()
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	keys := make([]string, 0, len(r.Samples))
	for k := range r.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "samples.%-26s %14d count\n", k, r.Samples[k])
	}
	fmt.Fprintf(w, "%-34s %14.6g ratio (%d failed of %d attempted)\n", "error_ratio",
		float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "failure: %s\n", f)
	}
	w.Write(append(mustJSON(resultLine{r.Correct, r.Attempted, r.Failed, r.Metrics}), '\n'))
}

func (r *record) appendTo(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(mustJSON(r), '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Schema != schemaVersion {
			return nil, fmt.Errorf("%s: schema %d, this driver reads %d", path, r.Schema, schemaVersion)
		}
		recs = append(recs, &r)
	}
	return recs, sc.Err()
}

// runSet runs every workload (or the one named) o.Set times on seeds
// o.Seed, o.Seed+1, … and prints each metric's median and spread.
func runSet(o options) error {
	ws := workloads()
	if o.Workload != "" {
		w, ok := findWorkload(o.Workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.Workload)
		}
		ws = []workload{w}
	}
	var recs []*record
	for _, w := range ws {
		for i := 0; i < o.Set; i++ {
			run := o
			run.Seed = o.Seed + int64(i)
			rec, err := runOnce(w, run)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, run.Seed, err)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: correct=%v failed=%d/%d\n", w.Name, run.Seed, rec.Correct, rec.Failed, rec.Attempted)
			recs = append(recs, rec)
		}
	}
	printSummary(os.Stdout, recs)
	for _, r := range recs {
		if !r.Correct {
			return fmt.Errorf("%s seed %d: %d of %d operations failed: %v", r.Workload, r.Seed, r.Failed, r.Attempted, r.Failures)
		}
	}
	return nil
}

// series groups metric values by (workload, metric) in run order.
func series(recs []*record) map[[2]string][]float64 {
	s := map[[2]string][]float64{}
	for _, r := range recs {
		for name, m := range r.Metrics {
			k := [2]string{r.Workload, name}
			s[k] = append(s[k], m.Value)
		}
	}
	return s
}

// metricOrder lists (workload, metric) pairs present in s in the order of
// the workload and metric tables.
func metricOrder(s map[[2]string][]float64) [][2]string {
	var keys [][2]string
	defs := append(append([]metricDef(nil), endToEnd...), perLayer()...)
	for _, w := range workloads() {
		for _, d := range defs {
			if k := [2]string{w.Name, d.Name}; len(s[k]) > 0 {
				keys = append(keys, k)
			}
		}
	}
	return keys
}

func printSummary(w io.Writer, recs []*record) {
	s := series(recs)
	fmt.Fprintf(w, "%-13s %-34s %4s %14s %9s\n", "workload", "metric", "runs", "median", "spread")
	for _, k := range metricOrder(s) {
		fmt.Fprintf(w, "%-13s %-34s %4d %14.6g %8.2f%%\n", k[0], k[1], len(s[k]), median(s[k]), 100*spread(s[k]))
	}
}

// benchmarkFile is the part of BENCHMARK.json that -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareFiles applies BENCHMARK.json's bounds to two sets of runs: one
// row per (workload, end-to-end metric) with both medians and the spread
// of the noisier set. A metric whose spread exceeds its bound is unresolved,
// neither unchanged nor regressed. It reports whether any metric regressed.
func compareFiles(w io.Writer, benchPath, aPath, bPath string) (regressed bool, err error) {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	if len(a) == 0 || len(b) == 0 {
		return false, fmt.Errorf("%s holds %d runs and %s %d; need both", aPath, len(a), bPath, len(b))
	}
	for _, r := range append(append([]*record(nil), a...), b...) {
		// Run length, document scale and tracing change every number.
		if r.Seconds != a[0].Seconds || r.Scale != a[0].Scale || r.Trace != a[0].Trace {
			return false, fmt.Errorf("runs are not comparable: %s seed %d ran with seconds=%g scale=%d trace=%d, the first run of %s with seconds=%g scale=%d trace=%d",
				r.Workload, r.Seed, r.Seconds, r.Scale, r.Trace, aPath, a[0].Seconds, a[0].Scale, a[0].Trace)
		}
		if !r.Correct {
			fmt.Fprintf(w, "FAILED RUN   %s seed %d: %d of %d operations failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
			regressed = true
		}
	}
	sa, sb := series(a), series(b)
	fmt.Fprintf(w, "%-13s %-16s %-5s %12s %12s %8s %7s %6s  %s\n",
		"workload", "metric", "unit", "median a", "median b", "change", "spread", "bound", "verdict")
	for _, wl := range workloads() {
		for _, m := range bf.EndToEnd {
			k := [2]string{wl.Name, m.Name}
			if len(sa[k]) == 0 || len(sb[k]) == 0 {
				continue
			}
			ma, mb := median(sa[k]), median(sb[k])
			worse := (mb - ma) / ma // share of a's median by which b is worse
			if m.Better == "higher" {
				worse = -worse
			}
			sp := max(spread(sa[k]), spread(sb[k]))
			verdict := "ok"
			switch {
			case sp > m.Bound: // the runs cannot tell a change of this size from noise
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressed = true
			}
			fmt.Fprintf(w, "%-13s %-16s %-5s %12.6g %12.6g %+7.1f%% %6.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, m.Unit, ma, mb, 100*worse, 100*sp, 100*m.Bound, verdict)
		}
	}
	return regressed, nil
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
