package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Sink receives time-series samples as the sampler takes them, instead
// of (or in addition to) the end-of-run Series export. Begin is called
// once when the sink is installed — before any sample — with the
// registry (for names, kinds and units) and the sampling interval; Emit
// once per sample in simulated-time order; Flush when the run ends.
//
// Sinks observe every sample taken after installation, including any
// before a warm-up Reset — a streaming consumer sees the whole run,
// while Series() keeps its post-reset semantics.
type Sink interface {
	Begin(reg *Registry, every uint64) error
	Emit(s Sample) error
	Flush() error
}

// SetSink installs sink and immediately calls its Begin. Installing nil
// detaches the current sink. Emit errors do not interrupt the simulation
// (Tick sits on the scheduling loop); the first one is latched and
// returned by FlushSink.
func (s *Sampler) SetSink(sink Sink) error {
	s.sink = sink
	s.sinkErr = nil
	if sink == nil {
		return nil
	}
	return sink.Begin(s.reg, s.every)
}

// FlushSink flushes the installed sink and reports the first error seen
// on any Emit or the flush itself.
func (s *Sampler) FlushSink() error {
	if s.sink == nil {
		return nil
	}
	if err := s.sink.Flush(); err != nil && s.sinkErr == nil {
		s.sinkErr = err
	}
	return s.sinkErr
}

func (s *Sampler) emit(sample Sample) {
	if s.sink == nil {
		return
	}
	if err := s.sink.Emit(sample); err != nil && s.sinkErr == nil {
		s.sinkErr = err
	}
}

// jsonlSeriesHeader is the first line of a JSONL series export.
type jsonlSeriesHeader struct {
	Type          string   `json:"type"` // "series-header"
	SchemaVersion int      `json:"schemaVersion"`
	Tool          string   `json:"tool"`
	EveryCycles   uint64   `json:"everyCycles"`
	Names         []string `json:"names"`
}

// jsonlSample is one sample row: values align with the header's names.
type jsonlSample struct {
	Type   string    `json:"type"` // "sample"
	Cycle  uint64    `json:"cycle"`
	Values []float64 `json:"values"`
}

// JSONLSink streams samples as JSON lines: one series-header line (the
// column names, in registration order), then one row per sample.
type JSONLSink struct {
	bw   *bufio.Writer
	enc  *json.Encoder
	tool string
}

// NewJSONLSink wraps w. tool records provenance in the header line.
func NewJSONLSink(w io.Writer, tool string) *JSONLSink {
	bw := bufio.NewWriter(w)
	return &JSONLSink{bw: bw, enc: json.NewEncoder(bw), tool: tool}
}

// Begin writes the header line.
func (j *JSONLSink) Begin(reg *Registry, every uint64) error {
	return j.enc.Encode(jsonlSeriesHeader{
		Type: "series-header", SchemaVersion: SchemaVersion, Tool: j.tool,
		EveryCycles: every, Names: reg.Names(),
	})
}

// Emit writes one sample row.
func (j *JSONLSink) Emit(s Sample) error {
	return j.enc.Encode(jsonlSample{Type: "sample", Cycle: s.Cycle, Values: s.Values})
}

// Flush drains the buffer.
func (j *JSONLSink) Flush() error { return j.bw.Flush() }

// StreamFile creates path and streams s's samples into it as they are
// taken: Prometheus text when path ends in .prom, JSON lines otherwise.
// The returned close flushes the sink and closes the file; it reports
// the first error of any emit, the flush or the close.
func StreamFile(s *Sampler, path, tool string) (close func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return streamTo(s, f, strings.HasSuffix(path, ".prom"), tool)
}

// streamTo is StreamFile over an open writer.
func streamTo(s *Sampler, w io.WriteCloser, prom bool, tool string) (func() error, error) {
	var sink Sink = NewJSONLSink(w, tool)
	if prom {
		sink = NewPromSink(w)
	}
	if err := s.SetSink(sink); err != nil {
		w.Close()
		return nil, err
	}
	return func() error {
		err := s.FlushSink()
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		return err
	}, nil
}

// promName sanitizes a metric name for the Prometheus exposition format
// (dots become underscores; the registry's names are otherwise clean).
func promName(name string) string {
	return strings.ReplaceAll(name, ".", "_")
}

// PromSink streams samples in Prometheus text exposition format, one
// timestamped row per metric per sample. The timestamp column is the
// simulated cycle (or epoch for fleet-driven samplers), not wall-clock
// milliseconds — the series is meant for offline tooling, which treats
// it as an opaque monotonic axis.
type PromSink struct {
	bw    *bufio.Writer
	names []string
}

// NewPromSink wraps w.
func NewPromSink(w io.Writer) *PromSink {
	return &PromSink{bw: bufio.NewWriter(w)}
}

// Begin writes one HELP/TYPE comment block per metric and captures the
// column order.
func (p *PromSink) Begin(reg *Registry, every uint64) error {
	fmt.Fprintf(p.bw, "# interval %d simulated units per sample; timestamps are simulated time\n", every)
	p.names = p.names[:0]
	for _, m := range reg.metrics {
		n := promName(m.name)
		p.names = append(p.names, n)
		if m.help != "" {
			fmt.Fprintf(p.bw, "# HELP %s %s\n", n, m.help)
		}
		fmt.Fprintf(p.bw, "# TYPE %s %s\n", n, m.kind)
	}
	return nil
}

// Emit writes one timestamped exposition row per metric.
func (p *PromSink) Emit(s Sample) error {
	for i, v := range s.Values {
		if i >= len(p.names) {
			break
		}
		fmt.Fprintf(p.bw, "%s %g %d\n", p.names[i], v, s.Cycle)
	}
	return nil
}

// Flush drains the buffer.
func (p *PromSink) Flush() error { return p.bw.Flush() }

// WriteProm writes a point-in-time Prometheus text snapshot of the
// registry: every metric with HELP/TYPE comments, then every histogram
// in the standard _bucket/_sum/_count form. Used for the flight
// recorder's metrics.prom and any "current state" export.
func WriteProm(w io.Writer, reg *Registry) error {
	bw := bufio.NewWriter(w)
	for _, m := range reg.metrics {
		n := promName(m.name)
		if m.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", n, m.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", n, m.kind)
		fmt.Fprintf(bw, "%s %g\n", n, m.fn())
	}
	for _, h := range reg.hists {
		d := h.Dump()
		n := promName(d.Name)
		if d.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", n, d.Help)
		}
		fmt.Fprintf(bw, "# TYPE %s histogram\n", n)
		var cum uint64
		for _, b := range d.Buckets {
			cum += b.Count
			fmt.Fprintf(bw, "%s_bucket{le=\"%d\"} %d\n", n, b.Le, cum)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", n, d.Count)
		fmt.Fprintf(bw, "%s_sum %d\n", n, d.Sum)
		fmt.Fprintf(bw, "%s_count %d\n", n, d.Count)
	}
	return bw.Flush()
}
