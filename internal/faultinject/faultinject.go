// Package faultinject provides a deterministic, seeded allocation fault
// injector for memory-pressure chaos testing. It implements
// physmem.Injector and is wired into a Memory with SetInjector:
//
//	inj := faultinject.New(faultinject.Config{Nth: 100, Seed: 42})
//	mem.SetInjector(inj)
//
// Injection modes compose: an allocation fails when it matches the kind
// filter AND lies inside the [After, ∞) window AND (it is the Nth-multiple
// allocation OR the seeded coin flip at probability Prob comes up heads),
// until MaxFaults failures have been injected. With the zero Config no
// allocation ever fails. Past the kind filter the decision is
// rng.FaultRule's, the rule memsys also applies to device events: a pure
// function of (Config, seq), so identical runs inject identical faults
// regardless of goroutine timing.
package faultinject

import (
	"sync/atomic"

	"babelfish/internal/physmem"
	"babelfish/internal/rng"
)

// Config selects what to fail.
type Config struct {
	// Seed drives the probabilistic mode's hash; unused when Prob == 0.
	Seed uint64
	// Nth, when > 0, fails every allocation whose sequence number is a
	// multiple of Nth.
	Nth uint64
	// Prob, when > 0, fails each allocation with this probability
	// (deterministically derived from Seed and the sequence number).
	Prob float64
	// Kind, when not FrameFree, restricts injection to allocations of
	// that frame kind (FrameFree — the zero value — matches every kind,
	// since no allocation ever requests a free frame).
	Kind physmem.FrameKind
	// After, when > 0, suppresses injection for the first After
	// allocations — lets a workload deploy before the pressure starts.
	After uint64
	// MaxFaults, when > 0, stops injecting after that many failures.
	MaxFaults uint64
}

// Injector is a deterministic physmem.Injector.
type Injector struct {
	kind     physmem.FrameKind
	rule     rng.FaultRule
	injected atomic.Uint64
}

// New builds an injector from cfg.
func New(cfg Config) *Injector {
	return &Injector{
		kind: cfg.Kind,
		rule: rng.FaultRule{Seed: cfg.Seed, Nth: cfg.Nth, Prob: cfg.Prob, After: cfg.After, MaxFaults: cfg.MaxFaults},
	}
}

// Injected reports how many allocations this injector has failed.
func (i *Injector) Injected() uint64 { return i.injected.Load() }

// FailAlloc implements physmem.Injector. It is called with the Memory's
// lock held, so it must stay allocation-free and must not call back into
// the Memory.
func (i *Injector) FailAlloc(seq uint64, kind physmem.FrameKind) bool {
	if i.kind != physmem.FrameFree && kind != i.kind {
		return false
	}
	fail := i.rule.Fires(seq, i.injected.Load())
	if fail {
		i.injected.Add(1)
	}
	return fail
}

var _ physmem.Injector = (*Injector)(nil)
