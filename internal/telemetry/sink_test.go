package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sinkRegistry() (*Registry, *uint64) {
	reg := NewRegistry()
	var hits uint64
	reg.Counter("tlb.l1_hits", "count", "L1 TLB hits", func() uint64 { return hits })
	reg.Gauge("sim.mpki", "misses/1k", "", func() float64 { return float64(hits) / 2 })
	return reg, &hits
}

func TestJSONLSinkStream(t *testing.T) {
	reg, hits := sinkRegistry()
	sp := NewSampler(reg, 100)
	var buf bytes.Buffer
	if err := sp.SetSink(NewJSONLSink(&buf, "bfsim")); err != nil {
		t.Fatal(err)
	}
	*hits = 4
	sp.Tick(100)
	*hits = 10
	sp.Tick(250)
	if err := sp.FlushSink(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 samples", len(lines))
	}
	if lines[0]["type"] != "series-header" || lines[0]["tool"] != "bfsim" {
		t.Fatalf("header = %v", lines[0])
	}
	names, _ := lines[0]["names"].([]any)
	if len(names) != 2 || names[0] != "tlb.l1_hits" {
		t.Fatalf("header names = %v", names)
	}
	if lines[1]["type"] != "sample" || lines[1]["cycle"].(float64) != 100 {
		t.Fatalf("row 1 = %v", lines[1])
	}
	vals, _ := lines[2]["values"].([]any)
	if vals[0].(float64) != 10 || vals[1].(float64) != 5 {
		t.Fatalf("row 2 values = %v", vals)
	}
	// The in-memory series is unaffected by the sink.
	if sp.Len() != 2 {
		t.Fatalf("sampler kept %d samples", sp.Len())
	}
}

func TestPromSinkStream(t *testing.T) {
	reg, hits := sinkRegistry()
	sp := NewSampler(reg, 50)
	var buf bytes.Buffer
	if err := sp.SetSink(NewPromSink(&buf)); err != nil {
		t.Fatal(err)
	}
	*hits = 6
	sp.Tick(50)
	if err := sp.FlushSink(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE tlb_l1_hits counter",
		"# HELP tlb_l1_hits L1 TLB hits",
		"# TYPE sim_mpki gauge",
		"tlb_l1_hits 6 50",
		"sim_mpki 3 50",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom series missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, ".") && strings.Contains(out, "tlb.l1") {
		t.Fatal("metric names not sanitized")
	}
}

type failSink struct{ begun bool }

func (f *failSink) Begin(*Registry, uint64) error { f.begun = true; return nil }
func (f *failSink) Emit(Sample) error             { return errors.New("disk full") }
func (f *failSink) Flush() error                  { return nil }

func TestSinkEmitErrorLatched(t *testing.T) {
	reg, _ := sinkRegistry()
	sp := NewSampler(reg, 10)
	fs := &failSink{}
	if err := sp.SetSink(fs); err != nil || !fs.begun {
		t.Fatalf("SetSink err=%v begun=%v", err, fs.begun)
	}
	sp.Tick(10)
	sp.Tick(20)
	if err := sp.FlushSink(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("FlushSink err = %v", err)
	}
	// Samples still accumulate despite the failing sink.
	if sp.Len() != 2 {
		t.Fatalf("sampler kept %d samples", sp.Len())
	}
	// Detaching clears the latched error.
	if err := sp.SetSink(nil); err != nil {
		t.Fatal(err)
	}
	if err := sp.FlushSink(); err != nil {
		t.Fatalf("detached FlushSink err = %v", err)
	}
}

func TestWritePromSnapshot(t *testing.T) {
	reg, hits := sinkRegistry()
	*hits = 8
	h := reg.Histogram("sim.xlat", "cycles", "translation latency")
	h.Observe(3)
	h.Observe(3)
	h.Observe(100)
	var buf bytes.Buffer
	if err := WriteProm(&buf, reg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"tlb_l1_hits 8",
		"sim_mpki 4",
		"# TYPE sim_xlat histogram",
		`sim_xlat_bucket{le="3"} 2`,
		`sim_xlat_bucket{le="127"} 3`,
		`sim_xlat_bucket{le="+Inf"} 3`,
		"sim_xlat_sum 106",
		"sim_xlat_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom snapshot missing %q:\n%s", want, out)
		}
	}
}

// TestHistQuantileEdges pins quantile behaviour in the corners the
// report path can hit: an empty histogram, all mass in one bucket, and
// counts near saturation.
func TestHistQuantileEdges(t *testing.T) {
	empty := NewHist("e", "", "")
	for _, q := range []float64{0.5, 0.9, 0.99, 1} {
		if v := empty.Quantile(q); v != 0 {
			t.Fatalf("empty hist q%.2f = %v", q, v)
		}
	}
	if empty.Mean() != 0 || empty.Max() != 0 {
		t.Fatal("empty hist mean/max nonzero")
	}

	// Single bucket: every observation is the value 7 (bucket [4,7]).
	single := NewHist("s", "", "")
	for i := 0; i < 1000; i++ {
		single.Observe(7)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		v := single.Quantile(q)
		if v < 4 || v > 7 {
			t.Fatalf("single-bucket q%.2f = %v outside [4,7]", q, v)
		}
	}
	// Interpolation is capped at the observed max, never the bucket edge.
	if v := single.Quantile(1); v != 7 {
		t.Fatalf("q1.0 = %v, want the max 7", v)
	}

	// Saturating counts: sums near uint64 max must not overflow the rank
	// arithmetic into nonsense quantiles.
	sat := NewHist("sat", "", "")
	sat.Observe(math.MaxUint64)
	sat.Observe(math.MaxUint64)
	sat.Observe(1)
	if v := sat.Quantile(0.99); v < 1 {
		t.Fatalf("saturating q99 = %v", v)
	}
	if sat.Max() != math.MaxUint64 {
		t.Fatalf("max = %d", sat.Max())
	}
	if v := sat.Quantile(0.01); v != 1 {
		t.Fatalf("saturating q01 = %v, want 1", v)
	}
	// Quantile must stay finite and within the observed range.
	if v := sat.Quantile(1); math.IsInf(v, 0) || math.IsNaN(v) || v > math.MaxUint64 {
		t.Fatalf("saturating q1.0 = %v", v)
	}
}

// TestDiffDisjoint: snapshots over disjoint metric sets produce an
// empty diff (the comparison is only defined on the common registry)
// and partially overlapping sets compare only the overlap.
func TestDiffDisjoint(t *testing.T) {
	mk := func(label string, vals map[string]float64) *Snapshot {
		s := &Snapshot{Label: label}
		for n, v := range vals {
			s.Values = append(s.Values, MetricValue{Name: n, Value: v})
		}
		return s
	}
	a := mk("a", map[string]float64{"x.only_a": 1, "x.shared": 10})
	b := mk("b", map[string]float64{"x.only_b": 2, "x.shared": 4})
	d := Diff(a, b)
	if len(d.Rows) != 1 {
		t.Fatalf("diff rows = %+v, want only the shared metric", d.Rows)
	}
	r, ok := d.Row("x.shared")
	if !ok || r.A != 10 || r.B != 4 || r.Delta != -6 {
		t.Fatalf("shared row = %+v", r)
	}
	if _, ok := d.Row("x.only_a"); ok {
		t.Fatal("metric absent from b leaked into the diff")
	}
	// Fully disjoint: no rows, and String still renders a valid table.
	d2 := Diff(mk("a", map[string]float64{"m.a": 1}), mk("b", map[string]float64{"m.b": 1}))
	if len(d2.Rows) != 0 {
		t.Fatalf("disjoint diff rows = %+v", d2.Rows)
	}
	if !strings.Contains(d2.String(), "a vs b") {
		t.Fatal("empty diff table missing labels")
	}
}

// failWriter fails its writes and/or its close on demand.
type failWriter struct {
	bytes.Buffer
	writeErr, closeErr error
	closed             bool
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.writeErr != nil {
		return 0, w.writeErr
	}
	return w.Buffer.Write(p)
}

func (w *failWriter) Close() error { w.closed = true; return w.closeErr }

// TestStreamCloseMergesErrors: the close func always closes the writer
// and reports the first failure — a write (surfacing at the flush)
// before the close's own error.
func TestStreamCloseMergesErrors(t *testing.T) {
	errWrite, errClose := errors.New("write failed"), errors.New("close failed")
	for _, tc := range []struct {
		writeErr, closeErr, want error
	}{
		{nil, nil, nil},
		{errWrite, nil, errWrite},
		{nil, errClose, errClose},
		{errWrite, errClose, errWrite},
	} {
		reg, hits := sinkRegistry()
		sp := NewSampler(reg, 10)
		w := &failWriter{writeErr: tc.writeErr, closeErr: tc.closeErr}
		closeSeries, err := streamTo(sp, w, false, "bfsim")
		if err != nil {
			t.Fatal(err)
		}
		*hits = 3
		sp.Tick(10)
		if err := closeSeries(); !errors.Is(err, tc.want) || (err == nil) != (tc.want == nil) {
			t.Errorf("write=%v close=%v: close func returned %v, want %v", tc.writeErr, tc.closeErr, err, tc.want)
		}
		if !w.closed {
			t.Errorf("write=%v close=%v: writer left open", tc.writeErr, tc.closeErr)
		}
		if tc.writeErr == nil && !strings.Contains(w.String(), `"type":"sample"`) {
			t.Errorf("no sample streamed: %q", w.String())
		}
	}
}

// TestStreamFileFormats: the file's extension picks the format, and a
// path that cannot be created is reported up front.
func TestStreamFileFormats(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ file, want string }{
		{"s.jsonl", `"type":"series-header"`},
		{"s.prom", "# TYPE tlb_l1_hits counter"},
	} {
		reg, _ := sinkRegistry()
		sp := NewSampler(reg, 10)
		path := filepath.Join(dir, tc.file)
		closeSeries, err := StreamFile(sp, path, "bffleet")
		if err != nil {
			t.Fatal(err)
		}
		sp.Tick(10)
		if err := closeSeries(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), tc.want) {
			t.Errorf("%s: missing %q:\n%s", tc.file, tc.want, b)
		}
	}
	reg, _ := sinkRegistry()
	if _, err := StreamFile(NewSampler(reg, 10), filepath.Join(dir, "nosuch", "s.jsonl"), "bfsim"); err == nil {
		t.Error("StreamFile into a missing directory succeeded")
	}
}
