package workloads

import (
	"testing"

	"babelfish/internal/faasfn"
	"babelfish/internal/kernel"
	"babelfish/internal/memdefs"
	"babelfish/internal/sim"
)

// collect drains n steps from a generator.
func collect(t *testing.T, g sim.Generator, n int) []sim.Step {
	t.Helper()
	out := make([]sim.Step, 0, n)
	var s sim.Step
	for i := 0; i < n; i++ {
		if !g.Next(&s) {
			break
		}
		out = append(out, s)
	}
	return out
}

// deployOne builds a deployment with one container and returns it.
func deployOne(t *testing.T, spec *AppSpec, seed uint64) (*sim.Machine, *Deployment) {
	t.Helper()
	p := sim.DefaultParams(kernel.ModeBaseline)
	p.Cores = 1
	p.MemBytes = 512 << 20
	m := sim.New(p)
	d, err := Deploy(m, spec, 0.2, seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Spawn(0, seed); err != nil {
		t.Fatal(err)
	}
	return m, d
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, mk := range []func() *AppSpec{MongoDB, ArangoDB, HTTPd, GraphChi, FIO} {
		spec := mk()
		_, d1 := deployOne(t, spec, 42)
		g1 := spec.NewGen(d1, d1.Containers[0], 0, 7)
		a := collect(t, g1, 500)

		// Rebuild everything from scratch with identical seeds.
		spec2 := mk()
		_, d2 := deployOne(t, spec2, 42)
		g2 := spec2.NewGen(d2, d2.Containers[0], 0, 7)
		b := collect(t, g2, 500)

		if len(a) != len(b) {
			t.Fatalf("%s: lengths differ (%d vs %d)", spec.Name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: step %d differs: %+v vs %+v", spec.Name, i, a[i], b[i])
			}
		}
	}
}

func TestGeneratorVAsStayInVMAs(t *testing.T) {
	for _, mk := range []func() *AppSpec{MongoDB, ArangoDB, HTTPd, GraphChi, FIO} {
		spec := mk()
		_, d := deployOne(t, spec, 13)
		proc := d.Containers[0]
		g := spec.NewGen(d, proc, 0, 5)
		steps := collect(t, g, 4000)
		if len(steps) == 0 {
			t.Fatalf("%s: no steps", spec.Name)
		}
		var reads, writes, instr int
		for i, s := range steps {
			gva := proc.GroupVA(s.VA)
			vma, ok := proc.FindVMA(gva)
			if !ok {
				t.Fatalf("%s: step %d VA %#x (gva %#x) outside all VMAs", spec.Name, i, s.VA, gva)
			}
			if s.Write && !vma.Perm.CanWrite() {
				t.Fatalf("%s: step %d writes read-only VMA %q", spec.Name, i, vma.Name)
			}
			if s.Write {
				writes++
			} else {
				reads++
			}
			if s.Kind == memdefs.AccessInstr {
				instr++
				if !vma.Perm.CanExec() {
					t.Fatalf("%s: step %d fetches from non-exec VMA %q", spec.Name, i, vma.Name)
				}
			}
		}
		if instr == 0 {
			t.Errorf("%s: generator never fetches instructions", spec.Name)
		}
		if reads == 0 {
			t.Errorf("%s: generator never reads", spec.Name)
		}
	}
}

func TestFuncGenRunsToCompletionOnce(t *testing.T) {
	p := sim.DefaultParams(kernel.ModeBaseline)
	p.Cores = 1
	p.MemBytes = 512 << 20
	m := sim.New(p)
	fg, err := DeployFaaS(m, false, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	task, _, err := fg.Spawn("parse", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var s sim.Step
	n := 0
	starts, ends := 0, 0
	for task.Gen.Next(&s) {
		n++
		switch s.Req {
		case sim.ReqStart:
			starts++
		case sim.ReqEnd:
			ends++
		}
		if n > 5_000_000 {
			t.Fatal("function generator does not terminate")
		}
	}
	if starts != 1 || ends != 1 {
		t.Fatalf("request marks: %d starts, %d ends", starts, ends)
	}
	// Drained generators stay drained.
	if task.Gen.Next(&s) {
		t.Fatal("generator produced steps after completion")
	}
}

func TestSparseTouchesMorePagesThanDense(t *testing.T) {
	countPages := func(sparse bool) int {
		p := sim.DefaultParams(kernel.ModeBaseline)
		p.Cores = 1
		p.MemBytes = 512 << 20
		m := sim.New(p)
		fg, err := DeployFaaS(m, sparse, 0.2, 5)
		if err != nil {
			t.Fatal(err)
		}
		task, _, err := fg.Spawn("hash", 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Count only input-region pages: bring-up touches the same
		// runtime pages in both variants.
		proc := task.Proc
		lo := fg.RInput.Start
		hi := lo + memdefs.VAddr(fg.RInput.Pages)*memdefs.PageSize
		pages := map[uint64]bool{}
		var s sim.Step
		for task.Gen.Next(&s) {
			gva := proc.GroupVA(s.VA)
			if gva >= lo && gva < hi {
				pages[uint64(gva)>>12] = true
			}
		}
		return len(pages)
	}
	dense := countPages(false)
	sparse := countPages(true)
	if sparse < dense*3 {
		t.Fatalf("sparse pages (%d) not ≫ dense pages (%d)", sparse, dense)
	}
}

func TestDeploymentPrefaultCoversEverything(t *testing.T) {
	_, d := deployOne(t, HTTPd(), 21)
	if err := d.PrefaultAll(); err != nil {
		t.Fatal(err)
	}
	proc := d.Containers[0]
	for _, vma := range proc.VMAs() {
		for gva := vma.Start; gva < vma.End; gva += memdefs.PageSize {
			var present bool
			if vma.Huge {
				present = proc.Tables.GetEntry(gva, memdefs.LvlPMD).Present()
			} else {
				present = proc.Tables.GetEntry(gva, memdefs.LvlPTE).Present()
			}
			if !present {
				t.Fatalf("page %#x of %q not prefaulted", gva, vma.Name)
			}
		}
	}
}

// TestFunctionWorkFactorsMatchRealFunctions checks the generators' per-
// line think constants against the measured per-byte work of the real
// Parse/Hash/Marshal implementations (internal/faasfn): the ordering
// hash > marshal > parse must agree.
func TestFunctionWorkFactorsMatchRealFunctions(t *testing.T) {
	wf := faasfn.MeasureWorkFactors(8)
	think := map[string]int{}
	for _, b := range []FuncBehavior{
		{Name: "parse", ThinkPerLine: 380},
		{Name: "hash", ThinkPerLine: 500},
		{Name: "marshal", ThinkPerLine: 420},
	} {
		think[b.Name] = b.ThinkPerLine
	}
	if !(think["hash"] > think["marshal"] && think["marshal"] > think["parse"]) {
		t.Fatal("generator think constants lost their ordering")
	}
	if !(wf.Hash > wf.Marshal && wf.Marshal > wf.Parse) {
		t.Fatalf("real functions measure differently: %+v", wf)
	}
}

// TestDeploymentMetricsHelpers covers the aggregation helpers.
func TestDeploymentMetricsHelpers(t *testing.T) {
	m, d := deployOne(t, FIO(), 33)
	if _, _, err := d.Spawn(0, 34); err != nil {
		t.Fatal(err)
	}
	if err := d.PrefaultAll(); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(60_000); err != nil {
		t.Fatal(err)
	}
	if d.MeanLatency() <= 0 || d.TailLatency(95) <= 0 {
		t.Fatal("latency helpers empty")
	}
	if d.MeanExecOwn() <= 0 {
		t.Fatal("own-cycle helper empty")
	}
	if d.TailLatency(50) > d.TailLatency(99) {
		t.Fatal("percentiles not monotone")
	}
	if cpi := d.CyclesPerInstr(); cpi <= 0 || cpi > 100 {
		t.Fatalf("CPI %v implausible", cpi)
	}
}

// TestFaaSGroupErrors covers the unknown-function paths.
func TestFaaSGroupErrors(t *testing.T) {
	p := sim.DefaultParams(kernel.ModeBaseline)
	p.Cores = 1
	p.MemBytes = 512 << 20
	m := sim.New(p)
	fg, err := DeployFaaS(m, false, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fg.Spawn("nope", 0, 1); err == nil {
		t.Fatal("unknown function spawned")
	}
	if _, _, err := fg.SpawnBringUp("nope", 0, 1); err == nil {
		t.Fatal("unknown bring-up spawned")
	}
	if _, err := fg.Env("nope", fg.Template); err == nil {
		t.Fatal("unknown env built")
	}
}

// TestStandaloneFunctionSpecs: the Deploy-path function specs (used by
// examples and benches) still work.
func TestStandaloneFunctionSpecs(t *testing.T) {
	for _, mk := range []func(bool) *AppSpec{Parse, Hash, Marshal} {
		spec := mk(false)
		m, d := deployOne(t, spec, 55)
		task := d.Tasks[0]
		if err := m.RunToCompletion(); err != nil {
			t.Fatal(err)
		}
		if !task.Done || task.LatOwn.Count() != 1 {
			t.Fatalf("%s: done=%v lat=%d", spec.Name, task.Done, task.LatOwn.Count())
		}
	}
}

// TestAppByName: the name table is the specs' own Name fields, in the
// canonical order, and every lookup builds a fresh spec.
func TestAppByName(t *testing.T) {
	want := []string{"mongodb", "arangodb", "httpd", "graphchi", "fio"}
	names := AppNames()
	if len(names) != len(want) {
		t.Fatalf("AppNames() = %v, want %v", names, want)
	}
	for i, name := range want {
		if names[i] != name {
			t.Fatalf("AppNames() = %v, want %v", names, want)
		}
		a, ok := AppByName(name)
		if !ok || a.Name != name {
			t.Fatalf("AppByName(%q) = %v, %v", name, a, ok)
		}
		if b, _ := AppByName(name); a == b {
			t.Errorf("AppByName(%q) returned a shared spec", name)
		}
	}
	for _, bad := range []string{"", "faas", "MongoDB", "nosuch"} {
		if _, ok := AppByName(bad); ok {
			t.Errorf("AppByName(%q) succeeded", bad)
		}
	}
}
