package fleet

import (
	"math"
	"strings"
	"testing"

	"babelfish/internal/kernel"
	"babelfish/internal/memsys"
	"babelfish/internal/sim"
	"babelfish/internal/workloads"
)

// testConfig returns a small, fast cluster: 2-core nodes with short
// quanta so an epoch is cheap, MongoDB at 1/10 scale.
func testConfig(nodes, containers int) Config {
	p := sim.DefaultParams(kernel.ModeBabelFish)
	p.Cores = 2
	p.MemBytes = 256 << 20
	p.Quantum = 50_000
	cfg := DefaultConfig(p, workloads.MongoDB())
	cfg.Nodes = nodes
	cfg.Containers = containers
	cfg.Scale = 0.1
	cfg.Epochs = 12
	cfg.EpochInstr = 5_000
	return cfg
}

func mustRun(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c
}

func eventLog(c *Cluster) string {
	var b strings.Builder
	for _, e := range c.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSteadyState: no fault injection — every container is placed in
// the first epoch, stays put, and the audit comes back clean.
func TestSteadyState(t *testing.T) {
	c := mustRun(t, testConfig(4, 8))
	if got := c.runningCount(); got != 8 {
		t.Fatalf("running containers = %d, want 8", got)
	}
	if c.ctr.placements != 8 {
		t.Errorf("placements = %d, want 8 (no re-placement without faults)", c.ctr.placements)
	}
	if c.ctr.crashes != 0 || c.ctr.queued != 0 || c.ctr.lost != 0 {
		t.Errorf("fault-free run took recovery actions: crashes=%d queued=%d lost=%d",
			c.ctr.crashes, c.ctr.queued, c.ctr.lost)
	}
	if c.Density() <= 0 {
		t.Errorf("mean density = %v, want > 0", c.Density())
	}
	if rep := c.Audit(); !rep.OK() {
		t.Errorf("audit:\n%s", rep)
	}
}

// TestValidate rejects the configuration mistakes the CLI relies on
// being caught.
func TestValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.Spec = nil },
		func(c *Config) { c.Scale = 0 },
		func(c *Config) { c.Scale = math.NaN() },
		func(c *Config) { c.Scale = math.Inf(1) },
		func(c *Config) { c.Epochs = 0 },
		func(c *Config) { c.SuspicionEpochs = 0 },
		func(c *Config) { c.BackoffCap = c.BackoffBase - 1 },
		func(c *Config) { c.RetryBudget = 0 },
		func(c *Config) { c.MinFreeFrac = 1.5 },
		func(c *Config) { c.ShedFrac = c.MinFreeFrac + 0.1 },
		func(c *Config) { c.Crash.Prob = 1.5 },
		func(c *Config) { c.Partition.Prob = -0.1 },
	}
	for i, mutate := range bad {
		cfg := testConfig(2, 2)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d passed Validate", i)
		}
	}
	if err := testConfig(2, 2).Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

// chaosConfig arms rolling node crashes and partitions: with the
// per-node phase stagger, node i's crash lands at epoch 9-i and its
// partition at epoch 13-i, so the fleet sees staggered overlapping
// outages — including partitions that outlive the suspicion timeout
// and exercise condemnation, re-placement and fencing at rejoin.
func chaosConfig() Config {
	cfg := testConfig(8, 16)
	cfg.Epochs = 24
	cfg.Crash = memsys.InjectConfig{Nth: 9, MaxFaults: 1}
	cfg.Partition = memsys.InjectConfig{Nth: 13, MaxFaults: 1}
	return cfg
}

// TestChaosSweep: seeded node kills and partitions across 8 nodes. The
// fleet must absorb every fault — zero lost containers, a clean audit,
// and all containers running again once the faults drain.
func TestChaosSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is slow")
	}
	c := mustRun(t, chaosConfig())
	if c.ctr.crashes == 0 || c.ctr.partitions == 0 {
		t.Fatalf("fault model idle: crashes=%d partitions=%d", c.ctr.crashes, c.ctr.partitions)
	}
	if c.ctr.condemned == 0 || c.ctr.restarts == 0 {
		t.Errorf("recovery machinery idle: condemned=%d restarts=%d", c.ctr.condemned, c.ctr.restarts)
	}
	if c.ctr.lost != 0 {
		t.Errorf("lost containers = %d, want 0", c.ctr.lost)
	}
	if got := c.runningCount(); got != 16 {
		t.Errorf("running containers after recovery = %d, want 16", got)
	}
	if rep := c.Audit(); !rep.OK() {
		t.Errorf("audit:\n%s", rep)
	}
	if rep := c.Audit(); rep.NodesAudited == 0 || rep.TLBEntriesChecked == 0 {
		t.Errorf("audit checked nothing: %+v", rep)
	}
}

// TestChaosReplayIdentical: the same chaos config replays to a
// byte-identical report and event log at any worker-pool width.
func TestChaosReplayIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos replay is slow")
	}
	runAt := func(jobs int) (string, string) {
		cfg := chaosConfig()
		cfg.Jobs = jobs
		c := mustRun(t, cfg)
		return c.Report(), eventLog(c)
	}
	rep1, ev1 := runAt(1)
	rep4, ev4 := runAt(4)
	if ev1 != ev4 {
		t.Fatalf("event logs differ between jobs=1 and jobs=4:\n--- jobs=1\n%s--- jobs=4\n%s", ev1, ev4)
	}
	if rep1 != rep4 {
		t.Fatalf("reports differ between jobs=1 and jobs=4:\n--- jobs=1\n%s--- jobs=4\n%s", rep1, rep4)
	}
	rep1b, ev1b := runAt(1)
	if rep1 != rep1b || ev1 != ev1b {
		t.Fatal("same config, same seed, different output: replay broken")
	}
}

// TestPartitionFencing: a partition that outlives the suspicion timeout
// gets its node condemned and its containers re-placed; at heal the
// node must fence the stale copies before rejoining — never leaving a
// container running in two places the controller considers live.
func TestPartitionFencing(t *testing.T) {
	cfg := testConfig(3, 3)
	cfg.Epochs = 18
	cfg.Partition = memsys.InjectConfig{Nth: 4, MaxFaults: 1}
	cfg.PartitionEpochs = 6 // outlives SuspicionEpochs=2
	c := mustRun(t, cfg)
	if c.ctr.partitions == 0 || c.ctr.condemned == 0 {
		t.Fatalf("partition path idle: partitions=%d condemned=%d", c.ctr.partitions, c.ctr.condemned)
	}
	if c.ctr.rejoins == 0 {
		t.Errorf("no condemned node rejoined after heal")
	}
	if c.ctr.fences == 0 {
		t.Errorf("no stale container was fenced at rejoin")
	}
	if rep := c.Audit(); !rep.OK() {
		t.Errorf("audit:\n%s", rep)
	}
	if got := c.runningCount(); got != 3 {
		t.Errorf("running containers = %d, want 3", got)
	}
}

// TestOverloadDegrades: one undersized node and more containers than it
// can hold. Admission control must refuse the overflow (no OOM crash,
// no lost containers) and keep the books balanced — graceful
// degradation, not node death.
func TestOverloadDegrades(t *testing.T) {
	cfg := testConfig(1, 12)
	cfg.Params.MemBytes = 40 << 20
	cfg.MaxPerNode = 12
	cfg.Epochs = 10
	c := mustRun(t, cfg)
	if c.ctr.placements == 0 {
		t.Fatal("nothing placed on the undersized node")
	}
	if int(c.ctr.placements) >= 12 && c.ctr.sheds == 0 {
		t.Fatalf("overload never refused or shed: placements=%d", c.ctr.placements)
	}
	if c.ctr.placeFails == 0 {
		t.Errorf("no admission refusals on an oversubscribed node")
	}
	if c.ctr.lost != 0 {
		t.Errorf("lost containers = %d, want 0 (refused containers stay queued)", c.ctr.lost)
	}
	if rep := c.Audit(); !rep.OK() {
		t.Errorf("audit:\n%s", rep)
	}
}

// TestShedRecovers: watermarks set so a placement that is admitted
// (free ≥ MinFreeFrac) can land the node below ShedFrac. The node must
// degrade and shed — one container per epoch, never its last — and the
// shed containers re-enter the queue rather than being lost.
func TestShedRecovers(t *testing.T) {
	cfg := testConfig(1, 8)
	cfg.Params.MemBytes = 44 << 20
	cfg.MaxPerNode = 12
	cfg.Epochs = 14
	cfg.EpochInstr = 8_000
	cfg.MinFreeFrac = 0.08
	cfg.ShedFrac = 0.07
	c := mustRun(t, cfg)
	if c.ctr.degradations == 0 {
		t.Errorf("node under memory pressure never degraded")
	}
	if c.ctr.sheds == 0 {
		t.Errorf("no container was shed under pressure")
	}
	if c.ctr.lost != 0 {
		t.Errorf("lost containers = %d, want 0", c.ctr.lost)
	}
	if got := c.runningCount(); got == 0 {
		t.Errorf("shedding drained the node completely")
	}
	if rep := c.Audit(); !rep.OK() {
		t.Errorf("audit:\n%s", rep)
	}
}

// BenchmarkFleetEpoch measures one control-loop epoch of a healthy
// 4-node, 8-container fleet (data-plane step + full control plane).
func BenchmarkFleetEpoch(b *testing.B) {
	cfg := testConfig(4, 8)
	cfg.Epochs = 1 << 30 // stepped manually
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Step(); err != nil { // placement epoch outside the timer
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
