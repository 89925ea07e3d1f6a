// Package workloads implements the paper's evaluation workloads as paged
// memory-reference generators with the same sharing structure the real
// applications exhibit:
//
//   - Data serving (Section VI): MongoDB (mmap storage engine), ArangoDB
//     (RocksDB-style private block cache over read-only SSTs), and HTTPd
//     (static files), each driven by a YCSB-style zipfian client;
//   - Compute: GraphChi PageRank over a shared mmapped graph, and FIO
//     doing random I/O over a shared dataset;
//   - Functions (FaaS): Parse, Hash and Marshal on an OpenFaaS-style
//     runtime, with dense and sparse input access variants;
//   - container bring-up (docker start) touching the runtime/infra pages.
//
// Each container is one process (Docker best practice, Section II-A);
// replicated containers of one application form one CCID group and run
// the same program against different request streams.
package workloads

import (
	"fmt"

	"babelfish/internal/kernel"
	"babelfish/internal/memdefs"
	"babelfish/internal/metrics"
	"babelfish/internal/sim"
)

// Class groups the paper's three workload families.
type Class int

const (
	DataServing Class = iota
	Compute
	Function
)

func (c Class) String() string {
	switch c {
	case DataServing:
		return "data-serving"
	case Compute:
		return "compute"
	case Function:
		return "function"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Perm shorthands.
const (
	permRX = memdefs.PermRead | memdefs.PermExec | memdefs.PermUser
	permRW = memdefs.PermRead | memdefs.PermWrite | memdefs.PermUser
	permRO = memdefs.PermRead | memdefs.PermUser
)

// Footprint sizes one application instance, in 4KB pages. Scale applies
// to the dataset-like components only; code footprints stay fixed.
type Footprint struct {
	InfraPages   int // container runtime + middleware libraries (shared)
	BinPages     int // application text (shared)
	BinDataPages int // application data segment (MAP_PRIVATE rw file)
	LibPages     int // application libraries text (shared)
	DatasetPages int // dataset / docroot / graph / SSTs
	PrivatePages int // block cache / rank arrays / session heap (anon)
	ScratchPages int // small per-request scratch (anon)

	// Chunk sizes (pages) for address-space-spread mappings; 0 keeps the
	// region compact. Real databases map extents/SSTs all over the
	// address space, which is what stresses the page-walk caches.
	DatasetChunkPages int
	PrivateChunkPages int
}

func (f Footprint) scaled(scale float64) Footprint {
	s := func(n int) int {
		v := int(float64(n) * scale)
		if v < 8 {
			v = 8
		}
		return v
	}
	f.DatasetPages = s(f.DatasetPages)
	f.PrivatePages = s(f.PrivatePages)
	return f
}

// apps lists the paper's application constructors in canonical order:
// the data-serving trio, then the compute pair.
var apps = []func() *AppSpec{MongoDB, ArangoDB, HTTPd, GraphChi, FIO}

// AppByName builds a fresh spec of the application whose Name is name.
func AppByName(name string) (*AppSpec, bool) {
	for _, mk := range apps {
		if s := mk(); s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// AppNames returns every application's Name in canonical order — the
// accepted CLI -app values.
func AppNames() []string {
	out := make([]string, len(apps))
	for i, mk := range apps {
		out[i] = mk().Name
	}
	return out
}

// AppSpec describes one application: footprint, dataset mapping flavour,
// and the per-container generator constructor.
type AppSpec struct {
	Name  string
	Class Class
	FP    Footprint
	// DatasetShared selects MAP_SHARED (writes hit the page cache) vs
	// MAP_PRIVATE.
	DatasetShared bool
	// SkipDatasetPrefault leaves the dataset mapping cold at measurement
	// start (LSM-style stores touch SST pages lazily, so their steady
	// state keeps taking minor faults).
	SkipDatasetPrefault bool
	// DatasetPerm is the dataset mapping permission.
	DatasetPerm memdefs.Perm
	// NewGen builds the access generator for one container.
	NewGen func(d *Deployment, p *kernel.Process, idx int, seed uint64) sim.Generator
}

// Env hands a generator its process and the group-VA regions it works
// over. Deployments and FaaS groups both produce Envs, so one generator
// implementation serves both single-app and multi-function groups.
type Env struct {
	P *kernel.Process

	RBin, RLibs, RInfra          kernel.Region
	RBinData                     kernel.Region
	RDataset, RPrivate, RScratch kernel.Region

	// DatasetFile backs RDataset; generators that rotate mapping windows
	// (GraphChi shards) need it to remap chunks.
	DatasetFile *kernel.File
	// DatasetPerm/DatasetPrivate reproduce the original mapping flags.
	DatasetPerm    memdefs.Perm
	DatasetPrivate bool
}

// Deployment is one application deployed on one machine: the CCID group,
// its files, the template process, and the spawned containers.
type Deployment struct {
	Spec  *AppSpec
	M     *sim.Machine
	Group *kernel.Group

	Infra   *kernel.File
	Bin     *kernel.File
	Libs    *kernel.File
	Dataset *kernel.File

	Template   *kernel.Process
	Containers []*kernel.Process
	Tasks      []*sim.Task

	// Region handles every container shares (group VAs).
	RInfra, RBin, RBinData, RLibs, RDataset kernel.Region
	RPrivate, RScratch                      kernel.Region

	scale float64
}

// Deploy creates the group, files and template process for an app. The
// dataset (and code files) are pre-faulted into the page cache, modelling
// the paper's steady-state measurement (no major faults mid-run).
func Deploy(m *sim.Machine, spec *AppSpec, scale float64, seed uint64) (*Deployment, error) {
	if scale <= 0 {
		scale = 1
	}
	fp := spec.FP.scaled(scale)
	k := m.Kernel
	g := k.NewGroup(spec.Name, seed)
	d := &Deployment{Spec: spec, M: m, Group: g, scale: scale}

	uniq := func(part string) string { return spec.Name + "/" + part }
	var err error
	if d.Infra, err = k.CreateFile(uniq("infra"), fp.InfraPages); err != nil {
		return nil, err
	}
	if d.Bin, err = k.CreateFile(uniq("bin"), fp.BinPages+fp.BinDataPages); err != nil {
		return nil, err
	}
	if d.Libs, err = k.CreateFile(uniq("libs"), fp.LibPages); err != nil {
		return nil, err
	}
	if d.Dataset, err = k.CreateFile(uniq("dataset"), fp.DatasetPages); err != nil {
		return nil, err
	}

	if d.RInfra, err = g.Region("infra", kernel.SegInfra, fp.InfraPages); err != nil {
		return nil, err
	}
	if d.RBin, err = g.Region("bin", kernel.SegText, fp.BinPages); err != nil {
		return nil, err
	}
	if d.RBinData, err = g.Region("bindata", kernel.SegData, fp.BinDataPages); err != nil {
		return nil, err
	}
	if d.RLibs, err = g.Region("libs", kernel.SegLibs, fp.LibPages); err != nil {
		return nil, err
	}
	const chunkGap = 1 << 30 // chunks 1GB apart: distinct PMD tables and PUD entries
	if fp.DatasetChunkPages > 0 {
		d.RDataset, err = g.ChunkedRegion("dataset", kernel.SegMmap, fp.DatasetPages, fp.DatasetChunkPages, chunkGap)
	} else {
		d.RDataset, err = g.Region("dataset", kernel.SegMmap, fp.DatasetPages)
	}
	if err != nil {
		return nil, err
	}
	if fp.PrivateChunkPages > 0 {
		d.RPrivate, err = g.ChunkedRegion("private", kernel.SegHeap, fp.PrivatePages, fp.PrivateChunkPages, chunkGap)
	} else {
		d.RPrivate, err = g.Region("private", kernel.SegHeap, fp.PrivatePages)
	}
	if err != nil {
		return nil, err
	}
	if d.RScratch, err = g.Region("scratch", kernel.SegStack, fp.ScratchPages); err != nil {
		return nil, err
	}

	tmpl, err := k.CreateProcess(g, spec.Name+"-template")
	if err != nil {
		return nil, err
	}
	d.Template = tmpl
	if err := d.mapAll(tmpl); err != nil {
		return nil, err
	}

	for _, f := range []*kernel.File{d.Infra, d.Bin, d.Libs, d.Dataset} {
		if err := f.Prefault(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// mapAll installs the application's VMAs into a process.
func (d *Deployment) mapAll(p *kernel.Process) error {
	fp := d.Spec.FP.scaled(d.scale)
	if _, err := p.MapFile(d.RInfra, d.Infra, 0, permRX, true, "infra"); err != nil {
		return err
	}
	if _, err := p.MapFile(d.RBin, d.Bin, 0, permRX, true, "bin"); err != nil {
		return err
	}
	if _, err := p.MapFile(d.RBinData, d.Bin, fp.BinPages, permRW, true, "bindata"); err != nil {
		return err
	}
	if _, err := p.MapFile(d.RLibs, d.Libs, 0, permRX, true, "libs"); err != nil {
		return err
	}
	dsPerm := d.Spec.DatasetPerm
	if dsPerm == 0 {
		dsPerm = permRO
	}
	err := mapChunks(p, d.RDataset, func(sub kernel.Region, off int, name string) error {
		_, err := p.MapFile(sub, d.Dataset, off, dsPerm, !d.Spec.DatasetShared, name)
		return err
	}, "dataset")
	if err != nil {
		return err
	}
	err = mapChunks(p, d.RPrivate, func(sub kernel.Region, off int, name string) error {
		_, err := p.MapAnon(sub, permRW, name)
		return err
	}, "private")
	if err != nil {
		return err
	}
	_, err = p.MapAnon(d.RScratch, permRW, "scratch")
	return err
}

// mapChunks maps a region chunk by chunk (or in one piece when compact).
func mapChunks(p *kernel.Process, r kernel.Region, mapOne func(sub kernel.Region, fileOff int, name string) error, name string) error {
	if !r.Chunked() {
		return mapOne(r, 0, name)
	}
	left := r.Pages
	for c, start := range r.ChunkStarts {
		n := r.ChunkPages
		if n > left {
			n = left
		}
		sub := kernel.Region{Name: fmt.Sprintf("%s#%d", name, c), Seg: r.Seg, Start: start, Pages: n}
		if err := mapOne(sub, c*r.ChunkPages, fmt.Sprintf("%s#%d", name, c)); err != nil {
			return err
		}
		left -= n
	}
	return nil
}

// PrefaultAll populates every container's translations for all of its
// mappings, modelling a long-running steady state (the paper warms each
// workload for minutes plus 500M instructions before measuring, so the
// measured window sees no first-touch minor faults). Writable private
// regions are write-prefaulted (buffers and data segments are written
// during real warm-up, breaking their CoW); everything else is
// read-prefaulted.
func (d *Deployment) PrefaultAll() error {
	for _, p := range d.Containers {
		if err := d.PrefaultContainer(p); err != nil {
			return err
		}
	}
	return nil
}

// PrefaultContainer populates one container's translations (see
// PrefaultAll). The fleet layer calls it per placement: containers
// arrive on a node one at a time, and a prefault that runs out of
// memory is an admission failure for that container alone.
func (d *Deployment) PrefaultContainer(p *kernel.Process) error {
	k := d.M.Kernel
	for _, vma := range p.VMAs() {
		if d.Spec.SkipDatasetPrefault && vma.File == d.Dataset {
			continue
		}
		write := vma.Perm.CanWrite() && vma.Private
		for gva := vma.Start; gva < vma.End; gva += memdefs.PageSize {
			if _, err := k.HandleFault(p.PID, p.ProcVA(gva), write, memdefs.AccessData); err != nil {
				return fmt.Errorf("prefault %s at %#x: %w", vma.Name, gva, err)
			}
		}
	}
	return nil
}

// Env builds a generator environment for one container process.
func (d *Deployment) Env(p *kernel.Process) Env {
	dsPerm := d.Spec.DatasetPerm
	if dsPerm == 0 {
		dsPerm = permRO
	}
	return Env{
		P:    p,
		RBin: d.RBin, RLibs: d.RLibs, RInfra: d.RInfra, RBinData: d.RBinData,
		RDataset: d.RDataset, RPrivate: d.RPrivate, RScratch: d.RScratch,
		DatasetFile: d.Dataset, DatasetPerm: dsPerm, DatasetPrivate: !d.Spec.DatasetShared,
	}
}

// Spawn forks a container from the template, schedules it on the given
// core, and returns its task. The fork cycles are reported for bring-up
// experiments.
func (d *Deployment) Spawn(coreID int, seed uint64) (*sim.Task, memdefs.Cycles, error) {
	idx := len(d.Containers)
	name := fmt.Sprintf("%s-%d", d.Spec.Name, idx)
	c, forkCycles, err := d.M.Kernel.Fork(d.Template, name)
	if err != nil {
		return nil, 0, err
	}
	d.Containers = append(d.Containers, c)
	gen := d.Spec.NewGen(d, c, idx, seed)
	task := d.M.AddTask(coreID, c, gen)
	d.Tasks = append(d.Tasks, task)
	return task, forkCycles, nil
}

// MeanLatency aggregates the mean request latency over all containers.
func (d *Deployment) MeanLatency() float64 {
	var sum float64
	var n int
	for _, t := range d.Tasks {
		if t.Lat.Count() == 0 {
			continue
		}
		sum += t.Lat.Mean() * float64(t.Lat.Count())
		n += t.Lat.Count()
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanExecOwn aggregates the mean per-operation execution time in task-
// own cycles — the right metric for compute workloads, whose wall-clock
// op latency would triple-count co-scheduled containers' quanta.
func (d *Deployment) MeanExecOwn() float64 {
	var sum float64
	var n int
	for _, t := range d.Tasks {
		if t.LatOwn.Count() == 0 {
			continue
		}
		sum += t.LatOwn.Mean() * float64(t.LatOwn.Count())
		n += t.LatOwn.Count()
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TailLatency returns the p-th percentile over the union of all
// containers' request latencies.
func (d *Deployment) TailLatency(p float64) float64 {
	merged := metrics.NewHistogram()
	for _, t := range d.Tasks {
		merged.Merge(t.Lat)
	}
	if merged.Count() == 0 {
		return 0
	}
	return merged.Percentile(p)
}

// CyclesPerInstr returns the aggregate CPI of the deployment's tasks.
func (d *Deployment) CyclesPerInstr() float64 {
	var cyc, ins uint64
	for _, t := range d.Tasks {
		cyc += uint64(t.Cycles)
		ins += t.Instrs
	}
	if ins == 0 {
		return 0
	}
	return float64(cyc) / float64(ins)
}
