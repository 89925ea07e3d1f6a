package faultinject

import (
	"errors"
	"testing"

	"babelfish/internal/physmem"
)

func TestEveryNth(t *testing.T) {
	inj := New(Config{Nth: 5})
	var fails []uint64
	for seq := uint64(1); seq <= 20; seq++ {
		if inj.FailAlloc(seq, physmem.FrameData) {
			fails = append(fails, seq)
		}
	}
	want := []uint64{5, 10, 15, 20}
	if len(fails) != len(want) {
		t.Fatalf("failed at %v, want %v", fails, want)
	}
	for i := range want {
		if fails[i] != want[i] {
			t.Fatalf("failed at %v, want %v", fails, want)
		}
	}
	if inj.Injected() != 4 {
		t.Fatalf("Injected() = %d, want 4", inj.Injected())
	}
}

func TestProbDeterministic(t *testing.T) {
	a := New(Config{Prob: 0.25, Seed: 99})
	b := New(Config{Prob: 0.25, Seed: 99})
	hits := 0
	for seq := uint64(1); seq <= 4000; seq++ {
		fa := a.FailAlloc(seq, physmem.FrameData)
		fb := b.FailAlloc(seq, physmem.FrameData)
		if fa != fb {
			t.Fatalf("seq %d: same seed diverged", seq)
		}
		if fa {
			hits++
		}
	}
	// 4000 trials at p=0.25: expect ~1000; allow a wide deterministic band.
	if hits < 800 || hits > 1200 {
		t.Fatalf("p=0.25 over 4000 trials hit %d times", hits)
	}
	// A different seed must give a different fault pattern.
	c := New(Config{Prob: 0.25, Seed: 100})
	same := true
	for seq := uint64(1); seq <= 200; seq++ {
		if c.FailAlloc(seq, physmem.FrameData) != a.FailAlloc(seq, physmem.FrameData) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 99 and 100 produced identical patterns over 200 allocations")
	}
}

func TestKindFilter(t *testing.T) {
	inj := New(Config{Nth: 1, Kind: physmem.FrameTable})
	if inj.FailAlloc(1, physmem.FrameData) {
		t.Fatal("kind-filtered injector failed a FrameData alloc")
	}
	if !inj.FailAlloc(2, physmem.FrameTable) {
		t.Fatal("kind-filtered injector passed a FrameTable alloc")
	}
	if inj.Injected() != 1 {
		t.Fatalf("Injected() = %d, want 1", inj.Injected())
	}
}

func TestAfterAndMax(t *testing.T) {
	inj := New(Config{Nth: 1, After: 10, MaxFaults: 3})
	var fails []uint64
	for seq := uint64(1); seq <= 20; seq++ {
		if inj.FailAlloc(seq, physmem.FrameData) {
			fails = append(fails, seq)
		}
	}
	want := []uint64{11, 12, 13}
	if len(fails) != 3 || fails[0] != want[0] || fails[2] != want[2] {
		t.Fatalf("failed at %v, want %v", fails, want)
	}
}

func TestWiredIntoMemory(t *testing.T) {
	m := physmem.New(1 << 20)
	m.SetInjector(New(Config{Nth: 2}))
	var errs int
	for i := 0; i < 10; i++ {
		if _, err := m.Alloc(physmem.FrameData); err != nil {
			if !errors.Is(err, physmem.ErrOutOfMemory) {
				t.Fatalf("injected fault does not unwrap to ErrOutOfMemory: %v", err)
			}
			errs++
		}
	}
	if errs != 5 {
		t.Fatalf("every-2nd injector over 10 allocs failed %d, want 5", errs)
	}
	if m.InjectedFaults() != 5 {
		t.Fatalf("Memory.InjectedFaults() = %d", m.InjectedFaults())
	}
	if rep := m.Audit(); !rep.OK() {
		t.Fatalf("audit: %s", rep)
	}
}

func TestZeroConfigNeverFails(t *testing.T) {
	inj := New(Config{})
	for seq := uint64(1); seq <= 1000; seq++ {
		if inj.FailAlloc(seq, physmem.FrameData) {
			t.Fatalf("zero-config injector failed seq %d", seq)
		}
	}
}
