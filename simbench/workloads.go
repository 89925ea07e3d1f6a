package main

import (
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"runtime/pprof"
	"sort"
	"time"

	"babelfish/internal/fleet"
	"babelfish/internal/kernel"
	"babelfish/internal/loadgen"
	"babelfish/internal/memsys"
	"babelfish/internal/metrics"
	"babelfish/internal/sim"
	"babelfish/internal/workloads"
)

// arch is the translation architecture every workload runs on.
const arch = "babelfish"

// workload is one benchmark workload: a deterministic, seeded simulation
// whose set-up and measured phase the benchmark times from outside.
// README.md records why each was chosen.
type workload struct {
	name string
	run  func(e *runEnv) error
}

var workloadList = []workload{
	{"serve", runServe},
	{"graph", runGraph},
	{"coldstart", runColdstart},
	{"fleet", runFleet},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runEnv carries one child run: its seed, whether probes are installed,
// its tracer and the result it fills in.
type runEnv struct {
	seed   uint64
	traced bool
	tr     *tracer
	res    *result
	// machines are the simulated machines whose statistics the run
	// reports (one, or every fleet node incarnation).
	machines []*sim.Machine
	// measure is the measured phase's span; stepName names its steps.
	measure  int64
	stepName string
	// Process CPU time and runtime samples bracketing the measured phase.
	cpu0, cpu1 time.Duration
	rt0, rt1   runtimeSample
	heapPeak   float64
	digest     hash.Hash
	// extra holds workload-specific ledger entries.
	extra map[string]float64
	// profile receives the traced run's CPU profile of the measured
	// phase; clockNS is the measured cost of one timed interval.
	profile *os.File
	clockNS float64
}

func newMachine(cores, shards int) (*sim.Machine, error) {
	p, err := sim.ParamsForArch(arch)
	if err != nil {
		return nil, err
	}
	p.Cores = cores
	p.CoreShards = shards
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return sim.New(p), nil
}

// endSetup closes the set-up phase, recording its wall time.
func (e *runEnv) endSetup(id int64) { e.res.SetupS = e.tr.end(id).Seconds() }

// beginMeasure marks the start of the measured phase.
func (e *runEnv) beginMeasure(root int64, stepName string) {
	e.stepName = stepName
	if e.traced {
		e.tr.resetProbes()
	}
	if e.profile != nil {
		if err := pprof.StartCPUProfile(e.profile); err != nil {
			fmt.Fprintln(os.Stderr, "simbench: CPU profile:", err)
		}
	}
	e.cpu0 = processCPU()
	e.rt0 = readRuntime()
	e.measure = e.tr.begin("measure", root)
}

// step times one step of the measured phase.
func (e *runEnv) step(fn func() error) error {
	err := e.tr.timed(e.stepName, e.measure, fn)
	if e.traced {
		if h := heapObjectsMiB(); h > e.heapPeak {
			e.heapPeak = h
		}
	}
	return err
}

// endMeasure closes the measured phase and records its host time: each
// step's wall time, and the phase's wall and process CPU time.
func (e *runEnv) endMeasure() {
	e.res.MeasureS = e.tr.end(e.measure).Seconds()
	e.cpu1 = processCPU()
	e.rt1 = readRuntime()
	if e.profile != nil {
		pprof.StopCPUProfile()
	}
	e.res.MeasureCPUS = (e.cpu1 - e.cpu0).Seconds()
	for _, d := range e.tr.durations(e.stepName) {
		e.res.StepMS = append(e.res.StepMS, float64(d)/1e6)
	}
}

// violation records a failed check.
func (e *runEnv) violation(format string, args ...any) {
	e.res.Violations = append(e.res.Violations, fmt.Sprintf(format, args...))
}

// auditMachine runs the kernel, physmem and TLB audits.
func (e *runEnv) auditMachine(m *sim.Machine, when string) {
	for _, a := range []struct {
		name string
		v    []string
	}{
		{"kernel", m.Kernel.Audit().Violations},
		{"physmem", m.Mem.Audit().Violations},
		{"tlb", m.AuditTLBs().Violations},
	} {
		if len(a.v) > 0 {
			e.violation("%s %s audit: %d violations, first: %s", when, a.name, len(a.v), a.v[0])
		}
	}
}

// digestStats are the registry statistics a run's digest covers: the
// simulated state of the scheduler, kernel, physical memory, MMU, TLBs,
// PWC, caches and DRAM. The list is fixed, so a counter added to the
// registry later, or a host-side one such as the translation-result
// cache's (xcache.*), which a speed-only change may alter or remove,
// leaves the digest alone.
var digestStats = func() []string {
	names := []string{
		"sim.instrs", "sim.cycles", "sim.oom_kills", "sim.kernel_bugs",
		"phys.frames_allocated", "phys.frames_free", "phys.frames_peak",
		"pwc.accesses", "pwc.hits", "pwc.misses",
		"dram.reads", "dram.writes", "dram.row_hits", "dram.row_misses",
	}
	for _, n := range []string{
		"forks", "fork_copied_ptes", "fork_linked_tables", "minor_faults",
		"major_faults", "zero_fill_faults", "cow_faults", "link_faults",
		"shared_installs", "private_installs", "pte_page_copies", "mask_pages",
		"mask_overflows", "shootdowns", "reclaimed_pages", "oom_events", "fault_cycles",
	} {
		names = append(names, "kernel."+n)
	}
	for _, n := range []string{
		"translations", "l1_hits", "l2_hits", "l2_hit_data", "l2_hit_instr",
		"l2_misses", "l2_miss_data", "l2_miss_instr", "l2_shared_data",
		"l2_shared_instr", "walks", "walk_req_pwc", "walk_req_l2", "walk_req_l3",
		"walk_req_mem", "faults", "fault_cycles", "xlat_cycles",
	} {
		names = append(names, "mmu."+n)
	}
	for _, t := range []string{"tlb.l1d", "tlb.l1i", "tlb.l2"} {
		for _, n := range []string{
			"accesses", "hits", "misses", "shared_hits", "mask_checks", "fills",
			"evictions", "invalidations", "private_copy_skips", "cow_fault_hits",
			"prot_fault_hits", "mask_loads",
		} {
			names = append(names, t+"."+n)
		}
	}
	for _, c := range []string{"cache.l1d", "cache.l1i", "cache.l2", "cache.l3"} {
		for _, n := range []string{"accesses", "hits", "misses", "writebacks"} {
			names = append(names, c+"."+n)
		}
	}
	return names
}()

// digestMachine folds a machine's simulated outputs into the run digest:
// the digestStats statistics, per-core clocks and every task's latency
// samples. A statistic missing from the registry is hashed as absent.
func digestMachine(h hash.Hash, m *sim.Machine) {
	for _, n := range digestStats {
		if v, ok := m.Registry.Value(n); ok {
			fmt.Fprintf(h, "%s=%v\n", n, v)
		} else {
			fmt.Fprintf(h, "%s absent\n", n)
		}
	}
	for _, c := range m.Cores {
		fmt.Fprintf(h, "core%d cycles=%d instrs=%d\n", c.ID, c.Cycles, c.Instrs)
	}
	for i, t := range m.Tasks() {
		fmt.Fprintf(h, "task%d pid=%d instrs=%d cycles=%d done=%v oom=%v\n", i, t.Proc.PID, t.Instrs, t.Cycles, t.Done, t.OOMKilled)
		digestSamples(h, "lat", t.Lat)
		digestSamples(h, "own", t.LatOwn)
	}
}

// digestSamples hashes a histogram's samples in sorted order (the
// histogram's own order changes once a percentile is read).
func digestSamples(h hash.Hash, name string, x *metrics.Histogram) {
	var vs []float64
	x.Each(func(v float64) { vs = append(vs, v) })
	sort.Float64s(vs)
	fmt.Fprintf(h, "%s %v\n", name, vs)
}

func (e *runEnv) finishDigest() { e.res.Digest = hex.EncodeToString(e.digest.Sum(nil)[:16]) }

// simTotals sums cycles and instructions over the run's machines.
func (e *runEnv) simTotals() (cycles, instrs uint64) {
	for _, m := range e.machines {
		for _, c := range m.Cores {
			cycles += uint64(c.Cycles)
			instrs += c.Instrs
		}
	}
	return cycles, instrs
}

// reqPercentiles merges the request latencies of the given tasks.
func reqPercentiles(tasks []*sim.Task) (p50, p99 float64, n int) {
	all := metrics.NewHistogram()
	for _, t := range tasks {
		all.Merge(t.Lat)
	}
	return all.Percentile(50), all.Percentile(99), all.Count()
}

// steadyConfig sizes a warmed, long-running co-location workload.
type steadyConfig struct {
	spec       func() *workloads.AppSpec
	scale      float64
	cores      int
	containers int // per core
	shards     int
	warm       uint64 // warm-up instructions per core
	slice      uint64 // instructions per core per measured step
	slices     int
}

var serveConfig = steadyConfig{
	spec: workloads.MongoDB, scale: 0.5, cores: 2, containers: 2,
	warm: 400_000, slice: 100_000, slices: 40,
}

var graphConfig = steadyConfig{
	spec: workloads.GraphChi, scale: 0.5, cores: 2, containers: 2, shards: 2,
	warm: 300_000, slice: 100_000, slices: 120,
}

func runServe(e *runEnv) error { return runSteady(e, "serve", serveConfig) }
func runGraph(e *runEnv) error { return runSteady(e, "graph", graphConfig) }

// runSteady deploys an app, spawns its containers, prefaults and warms
// them, then measures fixed instruction slices. Each container issues
// its next request when the previous completes (closed loop in
// simulated time).
func runSteady(e *runEnv, name string, cfg steadyConfig) error {
	tr, r := e.tr, e.res
	root := tr.begin(name, 0)
	setup := tr.begin("setup", root)
	var m *sim.Machine
	var d *workloads.Deployment
	err := tr.timed("deploy", setup, func() error {
		var err error
		if m, err = newMachine(cfg.cores, cfg.shards); err != nil {
			return err
		}
		if e.traced {
			tr.probeMachine(m)
		}
		d, err = workloads.Deploy(m, cfg.spec(), cfg.scale, e.seed)
		return err
	})
	if err != nil {
		return err
	}
	e.machines = []*sim.Machine{m}
	for c := 0; c < cfg.cores; c++ {
		for j := 0; j < cfg.containers; j++ {
			err := tr.timed("spawn", setup, func() error {
				task, _, err := d.Spawn(c, e.seed+uint64(c*131+j))
				if err == nil && e.traced {
					tr.probeTask(task)
				}
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	if err := tr.timed("prefault", setup, d.PrefaultAll); err != nil {
		return err
	}
	r.Containers = len(d.Tasks)
	if err := tr.timed("warm", setup, func() error { return m.Run(cfg.warm) }); err != nil {
		return err
	}
	m.ResetStats()
	e.endSetup(setup)
	// The containers are ready to serve once warmed: set-up is their
	// bring-up.
	r.BringUpInSetup = true

	e.beginMeasure(root, "slice")
	for s := 0; s < cfg.slices; s++ {
		if err := e.step(func() error { return m.Run(cfg.slice) }); err != nil {
			return err
		}
	}
	e.endMeasure()

	_, r.Instrs = e.simTotals()
	r.ReqP50, r.ReqP99, r.ReqCount = reqPercentiles(d.Tasks)
	live := 0
	for _, t := range d.Tasks {
		if !t.OOMKilled {
			live++
		}
	}
	r.ServedFrac = float64(live) / float64(len(d.Tasks))
	digestMachine(e.digest, m)
	e.auditMachine(m, "after measure")

	tid := tr.begin("teardown", root)
	for _, t := range d.Tasks {
		tr.timed("exit", tid, func() error { t.Proc.Exit(); return nil })
	}
	tr.end(tid)
	e.auditMachine(m, "after teardown")
	tr.end(root)
	e.finishDigest()
	r.Attempted, r.Failed = 1, 0
	if len(r.Violations) > 0 {
		r.Failed = 1
	}
	return nil
}

// Cold-start sizing: waves of one bring-up container per function per
// core; one unmeasured leading wave, then coldWaves measured waves.
const (
	coldCores = 2
	coldScale = 1.0
	coldWaves = 100
)

// runColdstart measures closed-loop waves of container cold starts: a
// wave forks one bring-up container per function per core from the
// runtime template, runs them to completion and exits them; the next
// wave starts when the previous completes. Caches, TLBs and the group's
// shared tables keep their state across waves.
func runColdstart(e *runEnv) error {
	tr, r := e.tr, e.res
	root := tr.begin("coldstart", 0)
	setup := tr.begin("setup", root)
	var m *sim.Machine
	var fg *workloads.FaaSGroup
	err := tr.timed("deploy", setup, func() error {
		var err error
		if m, err = newMachine(coldCores, 0); err != nil {
			return err
		}
		if e.traced {
			tr.probeMachine(m)
		}
		fg, err = workloads.DeployFaaS(m, false, coldScale, e.seed)
		return err
	})
	if err != nil {
		return err
	}
	e.machines = []*sim.Machine{m}
	var measured []*sim.Task
	wave := func(w int, parent int64) error {
		var tasks []*sim.Task
		for c := 0; c < coldCores; c++ {
			for j, fn := range fg.FunctionNames() {
				err := tr.timed("spawn", parent, func() error {
					t, _, err := fg.SpawnBringUp(fn, c, e.seed+uint64(w*31+c*7+j))
					if err == nil {
						if e.traced {
							tr.probeTask(t)
						}
						tasks = append(tasks, t)
					}
					return err
				})
				if err != nil {
					return err
				}
			}
		}
		if err := tr.timed("run", parent, m.RunToCompletion); err != nil {
			return err
		}
		for _, t := range tasks {
			tr.timed("exit", parent, func() error { t.Proc.Exit(); return nil })
		}
		if w > 0 {
			measured = append(measured, tasks...)
		}
		return nil
	}
	if err := tr.timed("warm", setup, func() error { return wave(0, tr.cur.Load()) }); err != nil {
		return err
	}
	m.ResetStats()
	e.endSetup(setup)

	e.beginMeasure(root, "wave")
	for w := 1; w <= coldWaves; w++ {
		if err := e.step(func() error { return wave(w, tr.cur.Load()) }); err != nil {
			return err
		}
	}
	e.endMeasure()

	_, r.Instrs = e.simTotals()
	r.Containers = len(measured)
	r.ReqP50, r.ReqP99, r.ReqCount = reqPercentiles(measured)
	var ok int64
	for _, t := range measured {
		if !t.OOMKilled && t.Done {
			ok++
		}
	}
	r.Attempted = int64(len(measured))
	r.Failed = r.Attempted - ok
	r.ServedFrac = float64(ok) / float64(len(measured))
	digestMachine(e.digest, m)
	e.auditMachine(m, "after waves")
	tr.end(root)
	e.finishDigest()
	if len(r.Violations) > 0 {
		r.Failed = r.Attempted
	}
	return nil
}

// Fleet sizing: an open-loop flash crowd over fleetEpochs epochs.
//
// A node machine runs at least fleetEpochInstr instructions per core per
// epoch, one scheduling quantum at a time, and a container serves every
// admitted request its quantum reaches. With the default 2M-cycle quantum
// one quantum drains any backlog, so no load level overloads a node; the
// nodes therefore run a 20k-cycle quantum, which bounds an epoch's
// capacity near fleetEpochInstr. The base load then fits, and the flash
// crowd's peak exceeds it: requests queue for tens of epochs and drain
// after the peak.
//
// The queue bound is raised from the fleet's default of 64 so that the
// backlog queues instead of being dropped: the benchmark's workloads must
// run without failed operations, and drops count as failed.
const (
	fleetNodes      = 4
	fleetCores      = 2
	fleetMemMB      = 256
	fleetQuantum    = 20_000
	fleetContainers = 12
	fleetEpochs     = 1000
	fleetEpochInstr = 12_000
	fleetBaseRPS    = 100
	fleetPeakRPS    = 400
	fleetQueueCap   = 1 << 16
	fleetAuditEvery = 100
	fleetBuilds     = 7 // cluster builds in set-up; the median is reported
)

// runFleet drives an open-loop flash crowd through a 4-node fleet with
// seeded node crashes and partitions, stepping nodes on 2 workers.
// Arrivals are a pure function of (shape, seed, epoch) in simulated time,
// so the generator can never fall behind in host time.
func runFleet(e *runEnv) error {
	tr, r := e.tr, e.res
	root := tr.begin("fleet", 0)
	setup := tr.begin("setup", root)
	seen := make(map[*sim.Machine]bool)
	var c *fleet.Cluster
	for b := 0; b < fleetBuilds; b++ {
		err := tr.timed("deploy", setup, func() error {
			var err error
			c, err = fleet.New(fleetConfig(e, seen))
			return err
		})
		if err != nil {
			return err
		}
	}
	tr.end(setup)
	r.SetupS = medianDuration(tr.durations("deploy")).Seconds()

	e.beginMeasure(root, "epoch")
	for ep := 1; ep <= fleetEpochs; ep++ {
		if err := e.step(c.Step); err != nil {
			return err
		}
		if ep%fleetAuditEvery == 0 {
			var rep fleet.AuditReport
			tr.timed("audit", e.measure, func() error { rep = c.Audit(); return nil })
			if !rep.OK() {
				e.violation("epoch %d fleet audit: %s", ep, rep.Violations[0])
			}
		}
	}
	e.endMeasure()
	c.Finish()

	_, r.Instrs = e.simTotals()
	reg := c.Registry()
	val := func(n string) float64 { v, _ := reg.Value(n); return v }
	r.Containers = int(val("fleet.placements"))
	if h, ok := reg.Hist("fleet.req_latency"); ok {
		r.ReqP50, r.ReqP99, r.ReqCount = h.Quantile(0.5), h.Quantile(0.99), int(h.Count())
	}
	offered, served := val("fleet.req_offered"), val("fleet.req_served")
	r.ServedFrac = served / offered
	r.Attempted = int64(offered)
	r.Failed = int64(val("fleet.req_dropped")) + int64(val("fleet.lost"))

	fmt.Fprint(e.digest, c.Report())
	for _, ev := range c.Events() {
		fmt.Fprintln(e.digest, ev)
	}
	for _, m := range e.machines {
		digestMachine(e.digest, m)
	}
	if rep := c.Audit(); !rep.OK() {
		e.violation("final fleet audit: %s", rep.Violations[0])
	}
	qd := 0.0
	if h, ok := reg.Hist("fleet.queue_delay"); ok {
		qd = h.Quantile(0.99)
	}
	e.extra = map[string]float64{
		"fleet.audit_ms":               float64(medianDuration(tr.durations("audit"))) / 1e6,
		"fleet.cpu_util":               float64(e.cpu1-e.cpu0) / (r.MeasureS * 1e9),
		"fleet.crashes":                val("fleet.crashes"),
		"fleet.condemned":              val("fleet.condemned"),
		"fleet.requeues":               val("fleet.queued"),
		"fleet.placements":             val("fleet.placements"),
		"loadgen.offered":              offered,
		"fleet.dropped":                val("fleet.req_dropped"),
		"fleet.queue_delay_p99_epochs": qd,
	}
	tr.end(root)
	e.finishDigest()
	if len(r.Violations) > 0 {
		r.Failed = r.Attempted
	}
	return nil
}

// fleetConfig builds the fleet's configuration. The app spec's generator
// factory is wrapped so the benchmark learns of every node machine the
// fleet builds (their statistics feed sim_cpi and the ledger) and, when
// traced, probes them before they first run.
func fleetConfig(e *runEnv, seen map[*sim.Machine]bool) fleet.Config {
	p, err := sim.ParamsForArch(arch)
	if err != nil {
		panic(err) // arch is a registered constant
	}
	p.Cores = fleetCores
	p.MemBytes = fleetMemMB << 20
	p.Quantum = fleetQuantum
	spec := workloads.MongoDB()
	newGen := spec.NewGen
	spec.NewGen = func(d *workloads.Deployment, proc *kernel.Process, idx int, seed uint64) sim.Generator {
		if !seen[d.M] {
			seen[d.M] = true
			e.machines = append(e.machines, d.M)
			if e.traced {
				e.tr.probeMachine(d.M)
			}
		}
		g := newGen(d, proc, idx, seed)
		if e.traced {
			return e.tr.wrapGen(g)
		}
		return g
	}
	cfg := fleet.DefaultConfig(p, spec)
	cfg.Nodes = fleetNodes
	cfg.Seed = e.seed
	cfg.Containers = fleetContainers
	cfg.Epochs = fleetEpochs
	cfg.EpochInstr = fleetEpochInstr
	cfg.Load = loadgen.Split(loadgen.Flash{
		Base: fleetBaseRPS, Peak: fleetPeakRPS, Start: fleetEpochs / 3, Len: fleetEpochs / 5,
	}, fleetContainers, e.seed)
	cfg.QueueCap = fleetQueueCap
	// The fault schedule is part of the workload, fixed by its own seeds
	// rather than the run's: every node crashes once and is partitioned
	// twice at the same epochs in every run, so the re-placement work does
	// not vary with the seed. The run's seed varies the deployments and
	// how arrivals split across containers.
	cfg.Crash = memsys.InjectConfig{Seed: 0xC4A5, Prob: 0.01, MaxFaults: 1}
	cfg.Partition = memsys.InjectConfig{Seed: 0x9A47, Prob: 0.01, MaxFaults: 2}
	cfg.Jobs = 2
	return cfg
}
