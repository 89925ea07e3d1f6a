// Sharded machine stepping: the cores of one Machine run their
// scheduling quanta concurrently on a bounded goroutine pool
// (internal/par), with every kernel effect deferred to a deterministic
// barrier where it is applied in core-ID order.
//
// The determinism argument, in full:
//
//   - A round runs one quantum on every core with live tasks. Within a
//     round, cores alternate between parallel phases and kernel phases.
//   - During a parallel phase each core executes steps against frozen
//     kernel state. The only shared structures it touches are physical
//     page-table entries, and only in two ways: atomic reads (walks) and
//     atomic ORs of Accessed/Dirty bits — idempotent and commutative, so
//     the entry state at the next barrier is independent of
//     interleaving, and nothing read during a phase depends on whether a
//     sibling's OR has landed yet. Caches and DRAM are private: a
//     sharded build gives every core its own L3 way-slice and DRAM
//     instance (see l3SliceConfig).
//   - A core leaves the parallel phase when its quantum ends, its task
//     finishes, or it needs the kernel: a page fault (the shardOS seam
//     records the fault and unwinds the translation with errShardDefer)
//     or a generator refill that mutates kernel state (KernelMutator).
//     Where it stops is therefore a pure function of its own state plus
//     the frozen kernel state — the same at any shard width, including
//     width 1.
//   - The phase barrier is par.Plan.Execute returning: every core has
//     stopped, all their memory effects are visible. Pending kernel
//     requests are then serviced serially in core-ID order, so kernel
//     mutations (and the shootdowns they broadcast into other cores'
//     quiescent TLBs) happen in one deterministic order.
//   - A deferred fault unwinds the whole translation attempt (partial
//     cycles rolled back) and the step retries from scratch after the
//     barrier, with the serviced kernel cycles charged exactly once via
//     ChargeDeferredFault. The retry runs against the repaired tables,
//     like the classic inline retry loop, just restarted from the top.
//
// Every decision above is either per-core-deterministic or ordered by
// core ID, so suite output is byte-identical for any CoreShards >= 1.
// (It intentionally differs from the classic CoreShards == 0 schedule,
// which runs whole quanta core-after-core and shares one L3/DRAM.)
package sim

import (
	"errors"
	"fmt"

	"babelfish/internal/memdefs"
	"babelfish/internal/par"
)

// errShardDefer unwinds a translation whose fault was recorded for
// barrier-time servicing instead of being handled inline.
var errShardDefer = errors.New("sim: fault deferred to quantum barrier")

// shardReqKind labels what a parked core is waiting on.
type shardReqKind int

const (
	reqNone shardReqKind = iota
	reqFault
	reqRefill
)

// shardOS is the OS seam installed into a core's MMU on sharded builds.
// During a parallel phase it records the fault and returns errShardDefer;
// outside parallel phases (classic scheduling on a sharded build,
// RunTaskOnly, deployment prefaulting) it passes straight through to the
// kernel.
type shardOS struct {
	eng  *shardEngine
	core int
}

func (s *shardOS) HandleFault(pid memdefs.PID, va memdefs.VAddr, write bool, kind memdefs.AccessKind) (memdefs.Cycles, error) {
	if !s.eng.inParallel {
		return s.eng.m.Kernel.HandleFault(pid, va, write, kind)
	}
	sc := s.eng.cores[s.core]
	sc.req = reqFault
	sc.faultPID, sc.faultVA = pid, va
	sc.faultWrite, sc.faultKind = write, kind
	return 0, errShardDefer
}

// shardCore is one core's sharded-stepping state. Each is written only
// by its own segment goroutine during a parallel phase and only by the
// coordinator between phases.
type shardCore struct {
	c *Core

	// Per-quantum state, reset by beginQuantum.
	t      *Task
	end    memdefs.Cycles
	instrs uint64
	done   bool
	err    error

	// Parked request, consumed by the barrier.
	req        shardReqKind
	faultPID   memdefs.PID
	faultVA    memdefs.VAddr
	faultWrite bool
	faultKind  memdefs.AccessKind

	// pending is a step whose translation deferred a fault; it retries
	// first after the barrier, even past the quantum end (the classic
	// inline path also finishes the faulting step it started).
	pending *Step
	// refillStep/streamEnd carry the result of a barrier-serviced refill
	// for non-batching mutator generators.
	refillStep *Step
	streamEnd  bool
	scratch    Step
}

// shardEngine coordinates one machine's rounds.
type shardEngine struct {
	m      *Machine
	shards int
	// inParallel is set exactly while a par.Plan of segments is
	// executing; the shardOS seam reads it to decide defer vs
	// pass-through. Toggled only between phases (never concurrently with
	// them), so the read is race-free.
	inParallel bool
	cores      []*shardCore
}

func newShardEngine(m *Machine, shards int) *shardEngine {
	return &shardEngine{m: m, shards: shards}
}

// attach binds the engine to the machine's built cores.
func (eng *shardEngine) attach(cores []*Core) {
	for _, c := range cores {
		eng.cores = append(eng.cores, &shardCore{c: c})
	}
}

// run is the sharded Run/RunToCompletion body: rounds of one quantum per
// eligible core until the budget is met (or, with toCompletion, until
// every task is done).
func (eng *shardEngine) run(instrBudget uint64, toCompletion bool) error {
	m := eng.m
	start := make([]uint64, len(m.Cores))
	for i, c := range m.Cores {
		start[i] = c.Instrs
	}
	for {
		var active []*shardCore
		for i, sc := range eng.cores {
			if !sc.c.runnableTasks() {
				continue
			}
			if !toCompletion && sc.c.Instrs-start[i] >= instrBudget {
				continue
			}
			active = append(active, sc)
		}
		if len(active) == 0 {
			return nil
		}
		if err := eng.round(active); err != nil {
			return err
		}
	}
}

// round runs one scheduling quantum on every active core, cores in
// parallel, kernel effects at the barriers.
func (eng *shardEngine) round(active []*shardCore) error {
	for _, sc := range active {
		eng.beginQuantum(sc)
	}
	for {
		var plan par.Plan
		for _, sc := range active {
			if sc.done {
				continue
			}
			sc := sc
			plan.Add(fmt.Sprintf("core %d", sc.c.ID), func() error {
				sc.segment(eng.m)
				return nil
			})
		}
		if plan.Len() == 0 {
			break
		}
		eng.inParallel = true
		err := plan.Execute(eng.shards)
		eng.inParallel = false
		if err != nil {
			return err
		}
		// Barrier: all segments have stopped; apply kernel effects in
		// core-ID order (active is already ID-ordered).
		for _, sc := range active {
			if !sc.done && sc.req != reqNone {
				if err := eng.service(sc); err != nil {
					return err
				}
			}
		}
	}
	for _, sc := range active {
		eng.endQuantum(sc)
		if sc.err != nil {
			return sc.err
		}
	}
	return nil
}

// beginQuantum picks the core's next live task (same rotation as the
// classic scheduler) and opens its quantum.
func (eng *shardEngine) beginQuantum(sc *shardCore) {
	c := sc.c
	sc.t, sc.err = nil, nil
	sc.instrs = 0
	sc.done = true
	sc.req = reqNone
	sc.pending, sc.refillStep = nil, nil
	sc.streamEnd = false
	n := len(c.tasks)
	if n == 0 {
		return
	}
	for i := 0; i < n; i++ {
		if c.tasks[c.cur].runnable() {
			break
		}
		c.cur = (c.cur + 1) % n
	}
	t := c.tasks[c.cur]
	if !t.runnable() {
		return
	}
	sc.t = t
	sc.done = false
	c.Cycles += eng.m.Params.CtxSwitch
	sc.end = c.Cycles + eng.m.Params.Quantum
}

// endQuantum closes the core's quantum and rotates its run queue.
func (eng *shardEngine) endQuantum(sc *shardCore) {
	c := sc.c
	c.Instrs += sc.instrs
	if n := len(c.tasks); n > 0 {
		c.cur = (c.cur + 1) % n
	}
	sc.t = nil
}

// segment runs the core from its current position until the quantum
// ends, the task finishes, or a kernel request parks it. It executes on
// a pool goroutine; everything it touches is core-private or (page-table
// entries) accessed atomically.
func (sc *shardCore) segment(m *Machine) {
	c, t := sc.c, sc.t
	sc.req = reqNone
	for sc.pending != nil || c.Cycles < sc.end {
		sp := sc.pending
		retry := sp != nil
		sc.pending = nil
		if sp == nil {
			if sp = sc.take(t); sp == nil {
				if sc.req == reqRefill {
					return // park: barrier runs the mutating refill
				}
				if t.starved() {
					break // parked, not finished: admitted work ran dry
				}
				t.Done = true
				t.FinishCycles = c.Cycles
				break
			}
			sc.instrs += uint64(sp.Think) + 1
		}
		if err := m.stepOnce(c, t, sp, nil, false, 10); err != nil {
			if errors.Is(err, errShardDefer) {
				if !retry {
					sc.instrs -= uint64(sp.Think) + 1
				}
				sc.pending = sp
				return // park: barrier services the fault, step retries
			}
			sc.err = fmt.Errorf("core %d pid %d (sharded): %w", c.ID, t.Proc.PID, err)
			sc.done = true
			return
		}
		if retry {
			sc.instrs += uint64(sp.Think) + 1
		}
	}
	sc.done = true
}

// take pulls the task's next step inside a parallel phase. nil with
// sc.req == reqRefill means "park for the barrier"; nil otherwise means
// the stream is complete.
func (sc *shardCore) take(t *Task) *Step {
	if sc.streamEnd {
		return nil
	}
	if s := sc.refillStep; s != nil {
		sc.refillStep = nil
		return s
	}
	t.syncGen()
	if t.bgen != nil {
		if t.bpos == t.blen {
			if t.genMutates {
				sc.req = reqRefill
				return nil
			}
			t.blen = t.bgen.NextBatch(t.batch)
			t.bpos = 0
			if t.blen == 0 {
				return nil
			}
		}
		s := &t.batch[t.bpos]
		t.bpos++
		return s
	}
	if t.genMutates {
		sc.req = reqRefill
		return nil
	}
	if !t.Gen.Next(&sc.scratch) {
		return nil
	}
	return &sc.scratch
}

// service applies one parked core's kernel request at the barrier.
func (eng *shardEngine) service(sc *shardCore) error {
	m := eng.m
	switch sc.req {
	case reqFault:
		fc, err := m.Kernel.HandleFault(sc.faultPID, sc.faultVA, sc.faultWrite, sc.faultKind)
		if err != nil {
			if m.oomKill(sc.c, sc.t, err) {
				sc.pending = nil
				sc.done = true
				break
			}
			return fmt.Errorf("core %d pid %d (sharded): %w", sc.c.ID, sc.t.Proc.PID, err)
		}
		// Charge the kernel service where the inline handler would have:
		// wall clock, the task's own time, and the MMU's fault counters.
		sc.c.Cycles += fc
		sc.t.Cycles += fc
		sc.c.MMU.ChargeDeferredFault(fc)
	case reqRefill:
		t := sc.t
		if t.bgen != nil {
			t.blen = t.bgen.NextBatch(t.batch)
			t.bpos = 0
			if t.blen == 0 {
				if t.starved() {
					// Admission gate ran dry: end the quantum without
					// finishing the task (mirrors the classic starved break).
					sc.done = true
				} else {
					sc.streamEnd = true
				}
			}
		} else if t.Gen.Next(&sc.scratch) {
			sc.refillStep = &sc.scratch
		} else if t.starved() {
			sc.done = true
		} else {
			sc.streamEnd = true
		}
	}
	sc.req = reqNone
	return nil
}
