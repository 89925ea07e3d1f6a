// Package obs is the simulator's causal tracing layer: spans with
// deterministic IDs threaded through every level of the stack — fleet
// request, scheduler placement, node epoch, machine quantum, container
// task, MMU fault — plus exporters (Chrome trace-event JSON for
// Perfetto, compact JSONL) and a flight recorder that turns audit
// violations and OOM/condemnation events into self-contained post-mortem
// bundles.
//
// Determinism is the design constraint everything else bends around:
// span IDs derive from (seed, scope, sequence) with the rng.Mix hash —
// never from wall clocks or addresses — and every recorder is owned by
// exactly one sequential actor (one node's machine, or the fleet control
// plane), so a traced run exports byte-identical artifacts at any
// worker-pool width. Timebases are simulated: machine spans are stamped
// in core cycles, control-plane spans in epochs.
//
// The whole layer is opt-in and free when off: a disabled recorder is a
// nil pointer, and every instrumentation seam is a single nil check.
package obs

import (
	"fmt"

	"babelfish/internal/rng"
)

// SpanID identifies a span. Zero means "no span" (an absent parent).
type SpanID uint64

// Kind classifies a span.
type Kind uint8

const (
	// KRequest is a fleet container's whole-life request: queued at
	// cluster build (or re-queued after a failure) until placed.
	KRequest Kind = iota
	// KPlace is one successful scheduler placement.
	KPlace
	// KEpoch is one node's data-plane epoch (machine timebase).
	KEpoch
	// KQuantum is one scheduling quantum of a task on a core.
	KQuantum
	// KFault is the kernel fault handling inside one translation.
	KFault
	// KEvent is an instant control-plane event (a fleet Event).
	KEvent
	// KViolation is an audit violation discovered at a quiesce point.
	KViolation
	// KCell is one experiment-plan cell (bfbench's suite decomposition).
	KCell

	numKinds
)

var kindNames = [...]string{
	KRequest: "request", KPlace: "place", KEpoch: "epoch", KQuantum: "quantum",
	KFault: "fault", KEvent: "event", KViolation: "violation", KCell: "cell",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// NumKinds reports the number of defined span kinds.
func NumKinds() int { return int(numKinds) }

// Span is one causally-linked unit of work. Numeric subject fields use
// -1 for "not applicable"; Start/Dur are in the owning stream's simulated
// timebase (cycles for machine streams, epochs for the control plane).
type Span struct {
	ID     SpanID
	Parent SpanID
	Kind   Kind
	Name   string
	Node   int // fleet node, -1 outside the fleet
	Core   int // machine core, -1 for control-plane spans
	Task   int // fleet container ID, -1 outside the fleet
	PID    int // process ID on a machine, -1 when not process-bound
	Start  uint64
	Dur    uint64
	Detail string
}

// Options configures the layer for one run.
type Options struct {
	// Enabled switches span recording on.
	Enabled bool
	// Depth bounds each recorder's ring (0 = DefaultDepth).
	Depth int
	// FlightDir, when non-empty, arms the flight recorder: post-mortem
	// bundles are written under this directory.
	FlightDir string
}

// DefaultDepth is the per-recorder ring bound when Options.Depth is 0.
const DefaultDepth = 4096

// RingDepth resolves Options.Depth.
func (o Options) RingDepth() int {
	if o.Depth > 0 {
		return o.Depth
	}
	return DefaultDepth
}

// Recorder is a bounded ring of spans owned by one sequential actor.
// IDs are a pure function of (seed, scope, per-recorder sequence), so a
// run's span IDs are identical no matter how node stepping is scheduled
// across workers. Not safe for concurrent use — one recorder per actor.
type Recorder struct {
	seed   uint64
	scope  uint64
	seq    uint64
	buf    []Span
	next   int
	count  uint64
	parent SpanID
}

// NewRecorder builds a recorder for one actor. scope distinguishes
// actors sharing a seed (node ID, or ControlScope for the control
// plane); depth bounds the ring (<1 clamps to 1).
func NewRecorder(seed, scope uint64, depth int) *Recorder {
	if depth < 1 {
		depth = 1
	}
	return &Recorder{seed: seed, scope: scope, buf: make([]Span, depth)}
}

// ControlScope is the conventional scope of a fleet control-plane
// recorder (node recorders use their node ID).
const ControlScope = ^uint64(0)

// NewID mints the next deterministic span ID. Never zero.
func (r *Recorder) NewID() SpanID {
	r.seq++
	return SpanID(rng.Mix(r.seed^rng.Mix(r.scope)^r.seq) | 1)
}

// Record stores a span, minting its ID if unset, and returns the ID.
// The oldest span is evicted when the ring is full.
func (r *Recorder) Record(s Span) SpanID {
	if s.ID == 0 {
		s.ID = r.NewID()
	}
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	r.count++
	return s.ID
}

// SetParent installs the default parent for spans recorded by deeper
// layers (the node's current epoch span, say). Parent reads it back.
func (r *Recorder) SetParent(id SpanID) { r.parent = id }

// Parent returns the recorder's current default parent span.
func (r *Recorder) Parent() SpanID { return r.parent }

// Len reports the number of spans currently held.
func (r *Recorder) Len() int {
	if r.count < uint64(len(r.buf)) {
		return int(r.count)
	}
	return len(r.buf)
}

// Total reports the number of spans ever recorded (eviction included).
func (r *Recorder) Total() uint64 { return r.count }

// Spans returns the held spans oldest-first.
func (r *Recorder) Spans() []Span {
	n := r.Len()
	out := make([]Span, 0, n)
	start := 0
	if r.count >= uint64(len(r.buf)) {
		start = r.next
	}
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Find returns the most recent held span satisfying pred (tests and the
// causal-chain walker).
func (r *Recorder) Find(pred func(Span) bool) (Span, bool) {
	spans := r.Spans()
	for i := len(spans) - 1; i >= 0; i-- {
		if pred(spans[i]) {
			return spans[i], true
		}
	}
	return Span{}, false
}

// Ancestry walks the parent chain of the span with the given ID through
// the supplied spans, returning the chain from the span itself up to the
// root (or until a parent is missing from the set).
func Ancestry(spans []Span, id SpanID) []Span {
	byID := make(map[SpanID]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var chain []Span
	for id != 0 {
		s, ok := byID[id]
		if !ok {
			break
		}
		chain = append(chain, s)
		if s.Parent == id {
			break // defensive: self-parent must not loop
		}
		id = s.Parent
	}
	return chain
}
