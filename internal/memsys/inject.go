package memsys

import (
	"fmt"
	"sort"
	"strings"

	"babelfish/internal/rng"
)

// Mode selects what an injected fault does to the device's result.
type Mode int

const (
	// ModeDrop discards the result: a TLB/PWC hit becomes a miss (forcing
	// a re-walk or refetch), a delivered cache/DRAM line is detected as
	// corrupt and refetched. Drops are always absorbed by the machine —
	// they cost latency, never correctness.
	ModeDrop Mode = iota
	// ModePoison corrupts the surviving state instead of discarding it:
	// a hit TLB entry's identity tags are flipped in place (the entry can
	// never legitimately hit again, but it now claims an owner that does
	// not exist — exactly what AuditTLBs must catch). Only the TLB target
	// supports poison; drop-only devices reject it at parse time.
	ModePoison
)

func (m Mode) String() string {
	if m == ModePoison {
		return "poison"
	}
	return "drop"
}

// Target is a bitmask of memory-system injection points.
type Target uint

const (
	TargetTLB Target = 1 << iota
	TargetPWC
	TargetCache
	TargetDRAM
)

// TargetAll enables every injection point.
const TargetAll = TargetTLB | TargetPWC | TargetCache | TargetDRAM

var targetNames = map[string]Target{
	"tlb": TargetTLB, "pwc": TargetPWC, "cache": TargetCache, "dram": TargetDRAM,
	"all": TargetAll,
}

// ParseTargets parses a comma-separated target list ("tlb,cache", "all")
// into a bitmask.
func ParseTargets(s string) (Target, error) {
	var t Target
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		bit, ok := targetNames[strings.ToLower(part)]
		if !ok {
			return 0, fmt.Errorf("memsys: unknown injection target %q (want tlb, pwc, cache, dram or all)", part)
		}
		t |= bit
	}
	if t == 0 {
		return 0, fmt.Errorf("memsys: empty injection target list")
	}
	return t, nil
}

func (t Target) String() string {
	if t == 0 {
		return "none"
	}
	var names []string
	for name, bit := range targetNames {
		if name != "all" && t&bit != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// InjectConfig selects which device events take a fault. The decision
// is rng.FaultRule's, the same rule faultinject applies to allocations:
// a pure function of (InjectConfig, seq), so a run with the same seed and
// workload injects the same faults — chaos runs are repeatable.
type InjectConfig struct {
	// Seed perturbs the probabilistic coin flips.
	Seed uint64
	// Nth, when non-zero, injects on every Nth event (seq % Nth == 0).
	Nth uint64
	// Prob, when non-zero, injects each event with this probability,
	// decided by a hash of (Seed, seq).
	Prob float64
	// After suppresses injection for the first After events.
	After uint64
	// MaxFaults, when non-zero, caps the total injections.
	MaxFaults uint64
	// Mode selects drop (absorbed) or poison (must be caught by audit).
	Mode Mode
}

// Enabled reports whether this config can ever inject.
func (c InjectConfig) Enabled() bool { return c.Nth > 0 || c.Prob > 0 }

// Injector decides, per device event, whether to inject a fault. Each
// device instance owns its injector: the machine is single-goroutine per
// run, so the event sequence — and therefore the fault pattern — is
// deterministic.
type Injector struct {
	rule     rng.FaultRule
	mode     Mode
	seq      uint64
	injected uint64
}

// NewInjector returns an injector with the given policy. A nil *Injector
// is valid and never fires.
func NewInjector(cfg InjectConfig) *Injector {
	return &Injector{
		rule: rng.FaultRule{Seed: cfg.Seed, Nth: cfg.Nth, Prob: cfg.Prob, After: cfg.After, MaxFaults: cfg.MaxFaults},
		mode: cfg.Mode,
	}
}

// Fire advances the event sequence and reports whether this event takes a
// fault. Nil-safe: a nil injector never fires.
func (in *Injector) Fire() bool {
	if in == nil {
		return false
	}
	in.seq++
	hit := in.rule.Fires(in.seq, in.injected)
	if hit {
		in.injected++
	}
	return hit
}

// Skip advances the event sequence by n without evaluating the fault
// policy. Fleets of injectors sharing one config use it to phase-stagger
// Nth-mode patterns across instances (node i skips i events at arm
// time, so every-Nth faults roll across the fleet instead of striking
// every member in the same epoch). Nil-safe.
func (in *Injector) Skip(n uint64) {
	if in != nil {
		in.seq += n
	}
}

// Mode returns the configured fault mode (drop for a nil injector).
func (in *Injector) Mode() Mode {
	if in == nil {
		return ModeDrop
	}
	return in.mode
}

// Injected returns how many faults this injector has taken. Unlike device
// stats it is never reset: it counts the whole run.
func (in *Injector) Injected() uint64 {
	if in == nil {
		return 0
	}
	return in.injected
}

// Seq returns how many events this injector has seen.
func (in *Injector) Seq() uint64 {
	if in == nil {
		return 0
	}
	return in.seq
}
