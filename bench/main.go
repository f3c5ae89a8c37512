// Command bench is xqdb's benchmark driver (see README.md beside it and
// BENCHMARK.json at the repository root).
//
//	bash bench/run.sh --workload point-hot --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it starts a real xqserver, drives it over loopback HTTP
// from two closed-loop clients, byte-checks every answer and prints the
// end-to-end metrics. With --trace 1 it also replays the workload's first
// operations in-process with a span around each call into a layer, runs
// the per-layer probes, and prints the per-layer metrics. The last line of
// standard output is one JSON object with the run's verdict and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"xqdb/bench/layers"
)

// metricDef names one metric; the tables below and layers.Metrics are the
// benchmark's vocabulary and BENCHMARK.json repeats them (the smoke test
// checks that the two agree).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"load_mbps", "MB/s", "higher"},
	{"space_amp", "ratio", "lower"},
	{"query_p50_ms", "ms", "lower"},
	{"query_p95_ms", "ms", "lower"},
	{"query_qps", "1/s", "higher"},
	{"update_p50_ms", "ms", "lower"},
	{"update_p95_ms", "ms", "lower"},
	{"update_sps", "1/s", "higher"},
}

// serverLayer are the per-layer metrics taken from the server process of
// the end-to-end run; the rest of the per-layer table is layers.Metrics.
var serverLayer = []metricDef{
	{"server.cpu_ms_per_op", "ms", "lower"},
	{"server.rss_peak_mb", "MB", "lower"},
	{"server.query_p99_ms", "ms", "lower"},
	{"server.recovery_ms", "ms", "lower"},
}

func perLayer() []metricDef {
	defs := append([]metricDef(nil), serverLayer...)
	for _, m := range layers.Metrics {
		defs = append(defs, metricDef(m))
	}
	return defs
}

// warmup is the unrecorded time before the measured phase.
const warmup = 2 * time.Second

// options are the command's flags, and Scale, which only the smoke test
// sets: it divides document sizes, probe counts and the warm-up. Every
// number depends on it, so it is no flag; records carry it and -compare
// refuses to mix scales.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    int
	Scale    int
	Root     string
	Server   string
	Out      string
	Set      int
	PerText  bool
}

func main() {
	var o options
	flag.StringVar(&o.Workload, "workload", "", "workload to run (point-hot, compile-cold, scan-bulk, mixed-rw)")
	flag.Int64Var(&o.Seed, "seed", 1, "seed for documents and operation streams")
	flag.Float64Var(&o.Seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&o.Trace, "trace", 0, "0: end-to-end metrics; 1: traced replay and per-layer metrics")
	flag.StringVar(&o.Root, "root", ".", "checkout root (holds BENCHMARK.json and .bench_build)")
	flag.StringVar(&o.Server, "server", "", "path of the xqserver binary")
	flag.StringVar(&o.Out, "out", "", "append each run's result record to this file")
	flag.IntVar(&o.Set, "set", 0, "run every workload this many times on consecutive seeds and print medians and spreads")
	flag.BoolVar(&o.PerText, "texts", false, "also print each pooled text's, statement's and round's sample count and latency to standard error")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		regressed, err := compareFiles(os.Stdout, filepath.Join(o.Root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
	case o.Set > 0:
		if err := runSet(o); err != nil {
			fatal("%v", err)
		}
	default:
		w, ok := findWorkload(o.Workload)
		if !ok {
			fatal("unknown workload %q", o.Workload)
		}
		rec, err := runOnce(w, o)
		if err != nil {
			fatal("%s: %v", w.Name, err)
		}
		rec.print(os.Stdout)
		if !rec.Correct {
			os.Exit(1)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runOnce performs one invocation: the end-to-end run, and with tracing on
// the replay and probes as well.
func runOnce(w workload, o options) (*record, error) {
	if o.Server == "" {
		return nil, fmt.Errorf("-server is required (bench/run.sh passes it)")
	}
	o.Scale = max(o.Scale, 1)
	w = w.scaled(o.Scale)
	build := filepath.Join(o.Root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	measure := time.Duration(o.Seconds * float64(time.Second))
	if o.Trace != 0 {
		// The traced run splits its time between the server phase (for
		// the server.* metrics) and the in-process replay and probes.
		measure = measure * 2 / 5
		w.Setups = 1 // setup_s is an end-to-end metric; one set-up is enough here
	}
	docs := w.generate(o.Seed)
	e2e, err := runE2E(w, e2eConfig{
		ServerBin: o.Server,
		WorkDir:   work,
		Docs:      docs,
		Seed:      o.Seed,
		Warmup:    warmup / time.Duration(o.Scale),
		Measure:   measure,
		PerText:   o.PerText,
	})
	if err != nil {
		return nil, err
	}
	rec := newRecord(w.Name, o)
	rec.Attempted, rec.Failed, rec.Failures = e2e.Attempted, e2e.Failed, e2e.Failures
	rec.Samples = e2e.Samples
	if o.Trace == 0 {
		for _, m := range endToEnd {
			rec.Metrics[m.Name] = metric{e2e.Values[m.Name], m.Unit}
		}
	} else {
		for _, m := range serverLayer {
			rec.Metrics[m.Name] = metric{e2e.Values[m.Name], m.Unit}
		}
		spec := replaySpec(w, docs, o.Seed, filepath.Join(work, "layers"), filepath.Join(build, "spans-"+w.Name+".json"))
		spec.ProbeScale = o.Scale
		lr, err := layers.Run(spec)
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		for _, m := range layers.Metrics {
			rec.Metrics[m.Name] = metric{lr.Values[m.Name], m.Unit}
		}
		for k, n := range lr.Samples {
			rec.Samples[k] = n
		}
		rec.Attempted += lr.Attempted
		rec.Failed += lr.Failed
		rec.Failures = append(rec.Failures, lr.Failures...)
	}
	rec.Correct = rec.Failed == 0
	if o.Out != "" {
		if err := rec.appendTo(o.Out); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// replaySpec turns a workload into the layers package's input: generated
// documents and the first ReplayOps operations of the merged client
// streams. The layers package never sees the seed or the workload name.
func replaySpec(w workload, docs map[string][]byte, seed int64, dir, spanFile string) layers.Spec {
	spec := layers.Spec{Dir: dir, SpanFile: spanFile, UpdateDoc: w.UpdateDoc, Cycle: updateCycle()}
	for _, d := range w.Docs {
		spec.Docs = append(spec.Docs, layers.Doc{Name: d.Name, XML: docs[d.Name]})
	}
	streams := []*stream{newStream(w, seed, 0, w.ConcurrentWriter), newStream(w, seed, 1, false)}
	for i := 0; i < w.ReplayOps; i++ {
		o := streams[i%2].next()
		lo := layers.Op{Update: o.Kind == opUpdate, Body: o.body(w), XML: o.XML}
		if o.Kind == opQuery {
			lo.Doc = w.Reads[o.Text].Doc
			lo.Text = o.Text
			lo.Literal = o.Literal
		}
		spec.Ops = append(spec.Ops, lo)
	}
	for _, t := range w.Reads {
		spec.Texts = append(spec.Texts, layers.Text{Doc: t.Doc, Query: t.Q})
	}
	return spec
}
