// Package loadgen is the fleet's open-loop arrival engine: a
// deterministic, seeded, wall-clock-free request generator that turns a
// composable offered-load curve (constant RPS, linear ramp, diurnal
// sinusoid, flash crowd, or a replayed trace) into per-epoch
// per-container request admissions.
//
// Open-loop means arrivals never slow down because the system is
// struggling: the Shape is a pure function of the epoch number, so
// offered load holds during degradation and the backlog (queueing
// delay, shed/drop counts) becomes the measurement rather than an
// artifact. Every function here is deterministic in (shape, seed,
// epoch) — no wall clock, no global state — which is what lets the
// fleet stay byte-identical at any worker-pool width.
package loadgen

import (
	"math"

	"babelfish/internal/rng"
)

// Shape is an offered-load curve: Total returns the fleet-wide number
// of requests offered during 0-based epoch e. Totals are real-valued
// (e.g. 2.5 requests/epoch); Split's carry accumulator converts them
// into integer admissions without losing the fraction.
type Shape interface {
	Name() string
	Total(epoch int) float64
}

// Source assigns offered load to containers. Arrivals fills out[i]
// with the number of requests admitted to container i during the given
// 0-based epoch; len(out) is the container count. Sources may carry
// fractional state across consecutive epochs, but must self-reset when
// replayed from epoch 0 so one Source can drive several cluster runs
// (bffleet -arch both) identically.
type Source interface {
	Name() string
	Arrivals(epoch int, out []int)
}

// Constant offers a flat RPS requests per epoch, fleet-wide.
type Constant struct {
	RPS float64
}

func (c Constant) Name() string            { return "const" }
func (c Constant) Total(epoch int) float64 { return c.RPS }

// Ramp climbs linearly from Base at epoch 0 to Peak at epoch Epochs-1,
// then holds Peak.
type Ramp struct {
	Base, Peak float64
	Epochs     int
}

func (r Ramp) Name() string { return "ramp" }

func (r Ramp) Total(epoch int) float64 {
	if r.Epochs <= 1 || epoch >= r.Epochs-1 {
		return r.Peak
	}
	if epoch < 0 {
		return r.Base
	}
	frac := float64(epoch) / float64(r.Epochs-1)
	return r.Base + (r.Peak-r.Base)*frac
}

// Diurnal oscillates sinusoidally between Base (trough, at epoch 0)
// and Peak (crest, half a Period later).
type Diurnal struct {
	Base, Peak float64
	Period     int
}

func (d Diurnal) Name() string { return "diurnal" }

func (d Diurnal) Total(epoch int) float64 {
	if d.Period <= 0 {
		return d.Base
	}
	phase := 2 * math.Pi * float64(epoch) / float64(d.Period)
	return d.Base + (d.Peak-d.Base)*(1-math.Cos(phase))/2
}

// Flash offers Base everywhere except a flash crowd of Peak during
// epochs [Start, Start+Len).
type Flash struct {
	Base, Peak float64
	Start, Len int
}

func (f Flash) Name() string { return "flash" }

func (f Flash) Total(epoch int) float64 {
	if epoch >= f.Start && epoch < f.Start+f.Len {
		return f.Peak
	}
	return f.Base
}

// Split spreads a fleet-wide Shape across containers: each epoch's
// real-valued total is converted to an integer via a carry accumulator
// (so fractions are never lost, only deferred), divided evenly, and the
// remainder dealt round-robin from a seeded per-epoch rotation so no
// container is systematically favoured. containers is only advisory —
// Arrivals adapts to len(out) — but a positive value documents the
// intended fan-out.
//
// The returned Source self-resets whenever Arrivals rewinds (epoch 0 or
// any epoch below the last one served), so the same value can drive
// several cluster runs back to back and produce identical admissions.
func Split(shape Shape, containers int, seed uint64) Source {
	_ = containers
	return &splitSource{shape: shape, seed: seed}
}

type splitSource struct {
	shape Shape
	seed  uint64
	next  int     // next epoch the carry accumulator expects
	carry float64 // fractional requests owed from earlier epochs
}

func (s *splitSource) Name() string { return s.shape.Name() }

func (s *splitSource) Arrivals(epoch int, out []int) {
	for i := range out {
		out[i] = 0
	}
	if epoch < 0 {
		return
	}
	if epoch < s.next || epoch == 0 {
		s.next, s.carry = 0, 0 // rewound: a fresh run replays from scratch
	}
	// Roll the carry through any skipped epochs so admissions depend
	// only on the epoch sequence, not on which epochs were observed.
	n := 0
	for ; s.next <= epoch; s.next++ {
		want := s.carry + s.shape.Total(s.next)
		n = int(math.Floor(want))
		s.carry = want - math.Floor(want)
	}
	if n <= 0 || len(out) == 0 {
		return
	}
	base, rem := n/len(out), n%len(out)
	for i := range out {
		out[i] = base
	}
	start := int(rng.Finalize(s.seed^(uint64(epoch)+1)*rng.Gamma) % uint64(len(out)))
	for k := 0; k < rem; k++ {
		out[(start+k)%len(out)]++
	}
}
