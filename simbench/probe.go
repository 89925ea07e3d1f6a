package main

import (
	"math"
	"sync/atomic"
	"time"

	"babelfish/internal/memdefs"
	"babelfish/internal/memsys"
	"babelfish/internal/sim"
)

// sampleEvery is the 1-in-N period at which the port probes time a
// memory access. A clock read costs tens of nanoseconds, about as much
// as the host time of one simulated instruction, so timing every access
// would double the run; every call is still counted exactly.
const sampleEvery = 64

// maxLeafSpans caps the sampled-call spans one probe keeps in memory.
// Past the cap the probe still counts and times calls; it only stops
// recording their spans.
const maxLeafSpans = 2000

// span is one timed interval of the benchmark's trace. Start and End are
// nanoseconds since the trace began; Parent is 0 for the root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records the benchmark's spans: workload, phase and step spans
// from the benchmark's own goroutine, and sampled layer-call spans from
// the probes. Probes may run on shard goroutines, so each keeps its own
// leaf buffer and reads the enclosing step's ID atomically; the tracer
// merges the buffers when the run ends.
type tracer struct {
	t0    time.Time
	spans []span       // span ID i is spans[i-1]
	cur   atomic.Int64 // innermost open span, the parent of probe spans

	gens []*genProbe
	data []*portProbe
	walk []*portProbe
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under parent (0 = the root) and makes it the parent
// of probe spans until it ends.
func (t *tracer) begin(name string, parent int64) int64 {
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.now()})
	t.cur.Store(id)
	return id
}

// end closes a span, hands probe parenthood back to its parent and
// returns the span's duration.
func (t *tracer) end(id int64) time.Duration {
	s := &t.spans[id-1]
	s.End = t.now()
	t.cur.Store(s.Parent)
	return time.Duration(s.End - s.Start)
}

// timed runs fn inside a span and returns its error.
func (t *tracer) timed(name string, parent int64, fn func() error) error {
	id := t.begin(name, parent)
	err := fn()
	t.end(id)
	return err
}

// durations returns the durations of every ended span with this name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// total sums the durations of every span with this name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, x := range t.durations(name) {
		d += x
	}
	return d
}

// leafBuf is one probe's private buffer of sampled-call spans.
type leafBuf struct {
	tr    *tracer
	name  string
	spans []span
}

func (b *leafBuf) add(start time.Time, d time.Duration) {
	if len(b.spans) >= maxLeafSpans {
		return
	}
	s := int64(start.Sub(b.tr.t0))
	b.spans = append(b.spans, span{Parent: b.tr.cur.Load(), Name: b.name, Start: s, End: s + int64(d)})
}

// allSpans merges the benchmark spans with every probe's leaf spans,
// numbering the leaves after the benchmark's own IDs.
func (t *tracer) allSpans() []span {
	out := append([]span(nil), t.spans...)
	id := int64(len(t.spans))
	add := func(b *leafBuf) {
		for _, s := range b.spans {
			id++
			s.ID = id
			out = append(out, s)
		}
	}
	for _, g := range t.gens {
		add(&g.buf)
	}
	for _, p := range t.data {
		add(&p.buf)
	}
	for _, p := range t.walk {
		add(&p.buf)
	}
	return out
}

// portProbe wraps a memsys.Port — a core's data-side port (sim.Core.Mem)
// or its walker's port (mmu.MMU.SetPort). It counts every access and
// times a deterministic 1-in-sampleEvery subset. One probe per core, so
// counters need no synchronization even under sharded stepping.
type portProbe struct {
	inner     memsys.Port
	calls     uint64
	sampled   uint64
	sampledNS int64
	buf       leafBuf
}

func (p *portProbe) Access(pa memdefs.PAddr, kind memdefs.AccessKind, write bool) (memdefs.Cycles, memsys.Where) {
	p.calls++
	if p.calls%sampleEvery != 0 {
		return p.inner.Access(pa, kind, write)
	}
	t0 := time.Now()
	c, w := p.inner.Access(pa, kind, write)
	d := time.Since(t0)
	p.sampled++
	p.sampledNS += int64(d)
	p.buf.add(t0, d)
	return c, w
}

func (p *portProbe) reset() { p.calls, p.sampled, p.sampledNS = 0, 0, 0 }

// probeMachine wraps every core's data port and walk port. Call it
// before the machine first runs.
func (t *tracer) probeMachine(m *sim.Machine) {
	for _, c := range m.Cores {
		d := &portProbe{inner: c.Mem, buf: leafBuf{tr: t, name: "cache.data"}}
		c.Mem = d
		w := &portProbe{inner: c.MMU.Port(), buf: leafBuf{tr: t, name: "mmu.walk"}}
		c.MMU.SetPort(w)
		t.data = append(t.data, d)
		t.walk = append(t.walk, w)
	}
}

// genProbe wraps a task's generator (sim.Task.Gen) and times every call:
// a call produces a whole batch of steps, so the clock cost is small
// beside the work. One probe per task; sharded stepping refills a task
// on one goroutine at a time.
//
// MutatesKernel and Starved forward to the inner generator and answer
// false when it does not implement them, which the scheduler treats
// exactly like an absent method. NextBatch changes how the scheduler
// pulls steps, so it is only offered (by batchGenProbe) when the inner
// generator batches.
type genProbe struct {
	inner sim.Generator
	calls uint64
	steps uint64
	ns    int64
	buf   leafBuf
}

func (g *genProbe) Next(s *sim.Step) bool {
	t0 := time.Now()
	ok := g.inner.Next(s)
	g.done(t0)
	if ok {
		g.steps++
	}
	return ok
}

func (g *genProbe) done(t0 time.Time) {
	d := time.Since(t0)
	g.calls++
	g.ns += int64(d)
	g.buf.add(t0, d)
}

func (g *genProbe) MutatesKernel() bool {
	km, ok := g.inner.(sim.KernelMutator)
	return ok && km.MutatesKernel()
}

func (g *genProbe) Starved() bool {
	st, ok := g.inner.(sim.Starver)
	return ok && st.Starved()
}

func (g *genProbe) reset() { g.calls, g.steps, g.ns = 0, 0, 0 }

type batchGenProbe struct {
	*genProbe
	batch sim.BatchGenerator
}

func (g *batchGenProbe) NextBatch(buf []sim.Step) int {
	t0 := time.Now()
	n := g.batch.NextBatch(buf)
	g.done(t0)
	g.steps += uint64(n)
	return n
}

// wrapGen returns a probe around gen.
func (t *tracer) wrapGen(gen sim.Generator) sim.Generator {
	g := &genProbe{inner: gen, buf: leafBuf{tr: t, name: "workloads.gen"}}
	t.gens = append(t.gens, g)
	if bg, ok := gen.(sim.BatchGenerator); ok {
		return &batchGenProbe{genProbe: g, batch: bg}
	}
	return g
}

// probeTask wraps a task's generator before the task first runs.
func (t *tracer) probeTask(task *sim.Task) { task.Gen = t.wrapGen(task.Gen) }

// resetProbes zeroes every probe's counters: the measured phase starts.
func (t *tracer) resetProbes() {
	for _, g := range t.gens {
		g.reset()
	}
	for _, p := range t.data {
		p.reset()
	}
	for _, p := range t.walk {
		p.reset()
	}
}

// probeTotals sums the probes' counters. Times are net of the clock's
// own cost: a timed interval includes about one clock read, half the
// measured cost of a timed interval, which is subtracted per timed call.
// Port times are the sampled calls' times scaled to every call.
type probeTotals struct {
	genCalls, genSteps           uint64
	dataCalls, walkCalls         uint64
	genNS, dataNS, walkNS        float64 // whole measured phase
	dataPerCallNS, walkPerCallNS float64
}

func (t *tracer) totals(clockNS float64) probeTotals {
	var s probeTotals
	var genNS float64
	for _, g := range t.gens {
		s.genCalls += g.calls
		s.genSteps += g.steps
		genNS += float64(g.ns)
	}
	s.genNS = math.Max(0, genNS-float64(s.genCalls)*clockNS/2)
	port := func(ps []*portProbe) (calls uint64, total, perCall float64) {
		var sampled uint64
		var ns float64
		for _, p := range ps {
			calls += p.calls
			sampled += p.sampled
			ns += float64(p.sampledNS)
		}
		if sampled == 0 {
			return calls, 0, 0
		}
		perCall = math.Max(0, ns/float64(sampled)-clockNS/2)
		return calls, perCall * float64(calls), perCall
	}
	s.dataCalls, s.dataNS, s.dataPerCallNS = port(t.data)
	s.walkCalls, s.walkNS, s.walkPerCallNS = port(t.walk)
	return s
}
