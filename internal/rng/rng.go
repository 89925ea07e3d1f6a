// Package rng is the simulator's one source of seeded randomness: the
// splitmix64 hash and stream, the Gray et al. zipfian generator YCSB
// uses, and the seeded fault-injection rule. Every draw is a pure
// function of its seed, so runs are reproducible and independent of the
// standard library's seeding. Each stream here is pinned by the package
// tests: a changed bit moves every simulated result.
package rng

import "math"

// Gamma is the splitmix64 increment (2^64 / golden ratio).
const Gamma = 0x9e3779b97f4a7c15

// Finalize is the bare splitmix64 output mix: every input bit affects
// every output bit. Finalize(0) is 0.
func Finalize(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix is the stateless splitmix64 hash of x: the value a stream seeded
// with x returns first.
func Mix(x uint64) uint64 { return Finalize(x + Gamma) }

// unit maps the top 53 bits of x onto a uniform float in [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// RNG is a splitmix64 stream.
type RNG struct{ s uint64 }

// New seeds a stream.
func New(seed uint64) *RNG { return &RNG{s: seed} }

// Uint64 returns the next raw value.
func (r *RNG) Uint64() uint64 {
	r.s += Gamma
	return Finalize(r.s)
}

// Intn returns a uniform value in [0, n); 0 when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return unit(r.Uint64()) }

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Zipf draws zipfian-distributed item indices in [0, n) with the YCSB
// parameterization, using the Gray et al. algorithm YCSB itself uses.
// Low indices are the hottest.
type Zipf struct {
	n     int
	alpha float64
	zetan float64
	eta   float64
	// second is the rank-1 bound 1+0.5^θ, fixed per generator.
	second float64
	rng    *RNG
}

// NewZipf builds a zipfian generator over n items (n < 1 means 1) with
// skew theta, drawing from r.
func NewZipf(r *RNG, n int, theta float64) *Zipf {
	if n < 1 {
		n = 1
	}
	z := &Zipf{n: n, rng: r}
	z.zetan = zeta(n, theta)
	zeta2 := zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	z.second = 1.0 + math.Pow(0.5, theta)
	return z
}

func zeta(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next returns the next item index.
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < z.second {
		return 1
	}
	idx := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if idx >= z.n {
		idx = z.n - 1
	}
	if idx < 0 {
		idx = 0
	}
	return idx
}

// FaultRule is the seeded fault-injection decision shared by the
// allocation injector (faultinject) and the device injector (memsys).
// Nth and Prob compose (either may fire), gated by After and capped by
// MaxFaults. The decision for event seq is a pure function of the rule
// and seq, so identical runs inject identical faults.
type FaultRule struct {
	// Seed keys the probabilistic coin flips.
	Seed uint64
	// Nth, when non-zero, fires on every event with seq%Nth == 0.
	Nth uint64
	// Prob, when non-zero, fires each event with this probability,
	// decided by the hash of Seed^seq, so a coin flip does not depend
	// on the order the flips are made in.
	Prob float64
	// After suppresses the first After events.
	After uint64
	// MaxFaults, when non-zero, caps the total faults.
	MaxFaults uint64
}

// Fires reports whether event seq (counted from 1) takes a fault, given
// that injected faults have been taken so far. The caller counts the
// fault when it fires.
func (f *FaultRule) Fires(seq, injected uint64) bool {
	if seq <= f.After {
		return false
	}
	if f.MaxFaults > 0 && injected >= f.MaxFaults {
		return false
	}
	if f.Nth > 0 && seq%f.Nth == 0 {
		return true
	}
	return f.Prob > 0 && unit(Mix(f.Seed^seq)) < f.Prob
}
