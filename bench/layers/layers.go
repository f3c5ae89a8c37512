package layers

import (
	"fmt"
	"os"
	"path/filepath"
)

// Metric names one per-layer metric. Name is "<layer>.<what>".
type Metric struct {
	Name   string
	Unit   string
	Better string
}

// Metrics is the per-layer table, in README order. Times are medians per
// call; counts and ratios from the replay are exact, because the replay is
// single-goroutine over a fixed operation list.
var Metrics = []Metric{
	{"server.handle_self_us", "us", "lower"},
	{"core.query_hit_us", "us", "lower"},
	{"core.query_miss_us", "us", "lower"},
	{"plancache.hit_ratio", "ratio", "higher"},
	{"plancache.get_us", "us", "lower"},
	{"exec.clone_us", "us", "lower"},
	{"xq.parse_us", "us", "lower"},
	{"tpm.rewrite_us", "us", "lower"},
	{"opt.plan_us", "us", "lower"},
	{"opt.plan_allocs", "count", "lower"},
	{"exec.run_us", "us", "lower"},
	{"exec.run_allocs", "count", "lower"},
	{"exec.rows_scanned_per_row_out", "ratio", "lower"},
	{"exec.spill_bytes_per_op", "B", "lower"},
	{"exec.exchange_speedup_dop2", "ratio", "higher"},
	{"store.scan_mtuples_s", "M/s", "higher"},
	{"store.label_scan_mentries_s", "M/s", "higher"},
	{"store.child_probe_us", "us", "lower"},
	{"store.lookup_us", "us", "lower"},
	{"store.lookup_pages", "pages", "lower"},
	{"store.serialize_mbps", "MB/s", "higher"},
	{"xmltok.tokenize_mbps", "MB/s", "higher"},
	{"xasr.shred_mbps", "MB/s", "higher"},
	{"store.load_mbps", "MB/s", "higher"},
	{"store.tx_begin_us", "us", "lower"},
	{"store.tx_apply_us", "us", "lower"},
	{"store.tx_commit_us", "us", "lower"},
	{"wal.bytes_per_stmt", "B", "lower"},
	{"wal.fsync_share", "ratio", "lower"},
	{"wal.append_mbps", "MB/s", "higher"},
	{"wal.flush_ms", "ms", "lower"},
	{"wal.checkpoint_ms", "ms", "lower"},
	{"btree.get_us", "us", "lower"},
	{"btree.leaf_decode_mentries_s", "M/s", "higher"},
	{"btree.bulkload_mkeys_s", "M/s", "higher"},
	{"btree.insert_us", "us", "lower"},
	{"pager.read_hit_ns", "ns", "lower"},
	{"pager.read_miss_us", "us", "lower"},
	{"pager.hit_ratio", "ratio", "higher"},
	{"pager.pages_read_per_op", "pages", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// Doc is a generated document.
type Doc struct {
	Name string
	XML  []byte
}

// Text is one pooled query text of the workload.
type Text struct {
	Doc   string
	Query string
}

// Op is one operation of the replayed stream. A query's Body is what the
// server receives (Literal and the pooled text Text); its expected answer
// is Literal followed by that text's reference.
type Op struct {
	Update  bool
	Doc     string
	Body    string
	XML     bool
	Text    int
	Literal string
}

// Spec is everything a traced run needs: where to work, the generated
// inputs, and the operations to replay. It carries no seed and no
// workload name.
type Spec struct {
	Dir      string // scratch directory, created and removed by Run
	SpanFile string // where the spans go when the run ends
	Docs     []Doc
	Texts    []Text
	Ops      []Op
	// UpdateDoc is the DBLP document updates go to; Cycle is the
	// stationary update script the transaction probe runs on a private
	// copy of it.
	UpdateDoc string
	Cycle     []string
	// ProbeScale divides the probes' iteration counts and file sizes
	// (smoke tests); 0 and 1 mean full size.
	ProbeScale int
}

// Result is what a traced run measured.
type Result struct {
	Values    map[string]float64
	Samples   map[string]int
	Attempted int
	Failed    int
	Failures  []string
}

func (r *Result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		if len(r.Failures) < 5 {
			r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
		}
	}
}

// Run replays spec.Ops, runs the probes, writes the span file and returns
// the per-layer metrics.
func Run(spec Spec) (*Result, error) {
	if err := os.MkdirAll(spec.Dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(spec.Dir)
	res := &Result{Values: map[string]float64{}, Samples: map[string]int{}}
	tr := newTrace()
	if err := replay(spec, tr, res); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	var upd *Doc
	for i := range spec.Docs {
		if spec.Docs[i].Name == spec.UpdateDoc {
			upd = &spec.Docs[i]
		}
	}
	if upd == nil {
		return nil, fmt.Errorf("update document %q is not among the documents", spec.UpdateDoc)
	}
	scale := max(spec.ProbeScale, 1)
	if err := storeProbes(filepath.Join(spec.Dir, "probe-store"), upd.XML, spec.Cycle, scale, tr, res); err != nil {
		return nil, fmt.Errorf("store probes: %w", err)
	}
	if err := fileProbes(filepath.Join(spec.Dir, "probe-files"), scale, tr, res); err != nil {
		return nil, fmt.Errorf("file probes: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(spec.SpanFile), 0o755); err != nil {
		return nil, err
	}
	if err := tr.WriteFile(spec.SpanFile); err != nil {
		return nil, err
	}
	for _, m := range Metrics {
		if _, ok := res.Values[m.Name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
	}
	return res, nil
}
