// Package layers is the traced half of xqdb's benchmark: it replays a
// workload's first operations in-process on one goroutine with a span
// around each call into a layer's exported entry points, runs the
// per-layer probes, and reports the per-layer metrics. It touches no
// engine code: every number comes from calls any importer could make.
//
// It is the only part of the benchmark that imports xqdb's internal
// packages, and it keeps to the entry points named in README.md so that
// engine knobs can be deleted without editing the benchmark.
package layers

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call (or batch of N identical calls) into a layer.
// Times are nanoseconds since the trace began. Spans of one replayed
// operation share Op; Parent is the index of the enclosing span, -1 for a
// root.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	N      int    `json:"n,omitempty"`
}

// Trace keeps spans in memory until the run ends.
type Trace struct {
	t0    time.Time
	spans []Span
}

func newTrace() *Trace { return &Trace{t0: time.Now(), spans: make([]Span, 0, 1<<14)} }

// Begin opens a span and returns its index.
func (t *Trace) Begin(name string, parent, op int) int {
	t.spans = append(t.spans, Span{Name: name, Parent: parent, Op: op, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// End closes span id and returns its duration.
func (t *Trace) End(id int) time.Duration {
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// EndN closes a span that covered n identical calls and returns the time
// per call.
func (t *Trace) EndN(id, n int) time.Duration {
	d := t.End(id)
	t.spans[id].N = n
	return d / time.Duration(n)
}

// WriteFile writes the spans as one JSON document.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Note  string `json:"note"`
		Spans []Span `json:"spans"`
	}{
		Note:  "times are ns since the trace began; spans of one operation share op; parent indexes spans; n>1 marks a batch of n identical calls",
		Spans: t.spans,
	}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// samples accumulates durations under metric names.
type samples map[string][]time.Duration

func (s samples) add(name string, d time.Duration) { s[name] = append(s[name], d) }

// medianOf returns the median duration in the given unit (e.g.
// time.Microsecond), 0 with no samples.
func (s samples) medianOf(name string, unit time.Duration) float64 {
	vs := make([]float64, len(s[name]))
	for i, d := range s[name] {
		vs[i] = float64(d)
	}
	return median(vs) / float64(unit)
}

// median sorts vs in place; 0 with no values.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

func (s samples) sum(name string) time.Duration {
	var t time.Duration
	for _, d := range s[name] {
		t += d
	}
	return t
}
