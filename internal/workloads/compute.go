package workloads

import (
	"fmt"
	"sync"

	"babelfish/internal/graph"
	"babelfish/internal/kernel"
	"babelfish/internal/rng"
	"babelfish/internal/sim"
)

// Compute applications: two containers run the same program over
// different random traversals of a common (scaled) 500MB input.

// GraphChi models PageRank over a memory-mapped graph: it "operates on
// shared vertices, but uses internal buffering for the edges" (Section
// VII-A), so most of its active translations are private edge buffers and
// rank arrays — the paper's lowest BabelFish gain (shared hits 48% I /
// 12% D; little pte_t sharing).
func GraphChi() *AppSpec {
	spec := &AppSpec{
		Name:  "graphchi",
		Class: Compute,
		FP: Footprint{
			InfraPages: 2560, BinPages: 512, BinDataPages: 64, LibPages: 1280,
			DatasetPages: 12288, PrivatePages: 8192,
			// The rank array is a large contiguous anonymous region: with
			// THP enabled it is 2MB-mapped — the paper's (unshareable,
			// rarely-active) THP pte_ts in Figure 9.
			ScratchPages:      2048,
			DatasetChunkPages: 256, PrivateChunkPages: 256,
		},
		DatasetShared:       false,
		SkipDatasetPrefault: true, // shards are loaded lazily as the scan advances
		DatasetPerm:         permRO,
	}
	spec.NewGen = func(d *Deployment, p *kernel.Process, idx int, seed uint64) sim.Generator {
		return newGraphGen(d.Env(p), seed^0xD3D3)
	}
	return spec
}

// graphCache memoizes generated R-MAT graphs: the containers of one
// deployment (and both architectures' runs) traverse the same graph.
var graphCache sync.Map // key graphKey -> *graph.CSR

type graphKey struct {
	scale, ef int
	seed      uint64
}

func sharedGraph(scale, ef int, seed uint64) *graph.CSR {
	key := graphKey{scale, ef, seed}
	if g, ok := graphCache.Load(key); ok {
		return g.(*graph.CSR)
	}
	g, err := graph.RMAT(scale, ef, seed)
	if err != nil {
		panic(err) // parameters are fixed below
	}
	actual, _ := graphCache.LoadOrStore(key, g)
	return actual.(*graph.CSR)
}

// graphEdgeFactor is the R-MAT edges-per-vertex used by the workload.
const graphEdgeFactor = 8

// graphScaleFor picks an R-MAT scale whose CSR layout roughly fills the
// dataset region (bounded to keep generation affordable): a scale-s
// graph needs about (1+edgeFactor)*2^s/1024 pages.
func graphScaleFor(datasetPages int) int {
	scale := 10
	for scale < 20 && (1+graphEdgeFactor)*(1<<(scale+1))/1024 < datasetPages {
		scale++
	}
	return scale
}

type graphGen struct {
	env Env
	rng *rng.RNG

	g      *graph.CSR
	layout graph.Layout
	code   *codeWalker
	vertex int // sequential PageRank scan position
	q      stepQueue
	salt   uint64

	// Shard rotation: GraphChi's "memory caching" unmaps and remaps
	// windows of the graph as the scan advances. Under BabelFish the
	// remapped window relinks the group's still-populated shared tables
	// (no re-faults while a sibling maps it); the baseline re-faults
	// every page — the paper's page-table-dominated GraphChi gain.
	rotateEvery int
	batches     int
	lastChunk   int
}

func newGraphGen(env Env, seed uint64) *graphGen {
	r := rng.New(seed)
	scale := graphScaleFor(env.RDataset.Pages)
	// All containers of the deployment share the same graph: derive the
	// graph seed from the group, not the container.
	csr := sharedGraph(scale, graphEdgeFactor, uint64(env.P.CCID)*0x9E37+1)
	return &graphGen{
		env: env, rng: r,
		g:           csr,
		layout:      graph.NewLayout(csr),
		code:        newCodeWalker(env.P, r, 0.08, 0.08, env.RBin, env.RLibs, env.RInfra),
		rotateEvery: 40,
		lastChunk:   -1,
	}
}

// rotateShard unmaps and remaps the dataset chunk under the scan position
// so its translations must be re-established (the data itself stays in
// the page cache).
func (g *graphGen) rotateShard(edgePage int) {
	r := g.env.RDataset
	if !r.Chunked() || g.env.DatasetFile == nil {
		return
	}
	chunk := edgePage / r.ChunkPages
	if chunk >= len(r.ChunkStarts) {
		chunk = len(r.ChunkStarts) - 1
	}
	g.lastChunk = chunk
	p := g.env.P
	start := r.ChunkStarts[chunk]
	v, ok := p.FindVMA(start)
	if !ok {
		return
	}
	if _, err := p.Unmap(v); err != nil {
		return
	}
	n := r.ChunkPages
	if (chunk+1)*r.ChunkPages > r.Pages {
		n = r.Pages - chunk*r.ChunkPages
	}
	sub := kernel.Region{Name: v.Name, Seg: r.Seg, Start: start, Pages: n}
	// A failed remap (e.g. injected OOM) leaves the window unmapped; the
	// next access faults and the generator retries via the normal path.
	_, _ = p.MapFile(sub, g.env.DatasetFile, chunk*r.ChunkPages, g.env.DatasetPerm, g.env.DatasetPrivate, fmt.Sprintf("dataset#%d", chunk))
}

// datasetPage clamps a layout page into the mapped dataset region.
func (g *graphGen) datasetPage(page int) int {
	if page >= g.env.RDataset.Pages {
		page %= g.env.RDataset.Pages
	}
	return page
}

// rankPage returns the rank-array page of vertex v (8 bytes per rank).
func (g *graphGen) rankPage(v int) int {
	return (v / 512) % g.env.RScratch.Pages
}

// buildBatch processes one vertex of the PageRank power iteration: read
// its RowPtr page, stream its out-edges from the CSR edge section
// (buffered privately, as GraphChi does), and scatter rank contributions
// to its neighbours' (random, power-law) rank pages.
func (g *graphGen) buildBatch() {
	e, p := &g.env, g.env.P
	g.salt++
	var s sim.Step
	g.code.next(&s)
	s.Req = sim.ReqStart
	g.q.push(s)

	v := g.vertex % g.g.N
	g.vertex++
	g.batches++
	if g.rotateEvery > 0 && g.batches%g.rotateEvery == 0 {
		// Rotate a random shard window (vertex or edge section).
		g.rotateShard(g.rng.Intn(g.env.RDataset.Pages))
	}

	// RowPtr page: sequential over the vertex section.
	dataStep(&s, p, pageAddr(e.RDataset, g.datasetPage(g.layout.VertexPage(v)), g.salt), false, 4)
	g.q.push(s)

	// Stream this vertex's edges from the shared CSR (consecutive pages),
	// copying them through the private shard buffers.
	lo, hi := int(g.g.RowPtr[v]), int(g.g.RowPtr[v+1])
	edges := hi - lo
	if edges > 24 {
		edges = 24 // GraphChi processes big vertices in sub-intervals
	}
	lastPage := -1
	for i := 0; i < edges; i++ {
		pg := g.datasetPage(g.layout.EdgePage(lo + i))
		if pg != lastPage {
			dataStep(&s, p, pageAddr(e.RDataset, pg, g.salt*11+uint64(i)), false, 3)
			g.q.push(s)
			lastPage = pg
		}
		// Buffered copy (private, low locality across shards).
		if i%4 == 0 {
			dataStep(&s, p, pageAddr(e.RPrivate, g.rng.Intn(e.RPrivate.Pages), g.salt*7+uint64(i)), true, 4)
			g.q.push(s)
		}
	}
	// Consume the buffers.
	for i := 0; i < 4; i++ {
		dataStep(&s, p, pageAddr(e.RPrivate, g.rng.Intn(e.RPrivate.Pages), g.salt*3+uint64(i)), false, 4)
		g.q.push(s)
		if i == 1 {
			g.code.next(&s)
			g.q.push(s)
		}
	}
	// Gather/scatter with the real neighbours: read each neighbour's
	// degree from its (random, power-law) RowPtr page, then update its
	// rank in the huge-page-backed rank array.
	scatter := edges
	if scatter > 3 {
		scatter = 3
	}
	for i := 0; i < scatter; i++ {
		w := int(g.g.Dst[lo+(i*7)%max(edges, 1)])
		dataStep(&s, p, pageAddr(e.RDataset, g.datasetPage(g.layout.VertexPage(w)), g.salt*17+uint64(i)), false, 4)
		g.q.push(s)
		dataStep(&s, p, pageAddr(e.RScratch, g.rankPage(w), g.salt*13+uint64(i)), true, 4)
		g.q.push(s)
	}
	g.code.next(&s)
	s.Req = sim.ReqEnd
	g.q.push(s)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (g *graphGen) Next(out *sim.Step) bool {
	if g.q.empty() {
		g.buildBatch()
	}
	return g.q.pop(out)
}

// NextBatch implements sim.BatchGenerator. At most one vertex is built
// per call: buildBatch can rotate a dataset shard (unmap + remap, with
// shootdowns), and building exactly when the previous steps have all been
// consumed keeps those kernel mutations at the same point in machine time
// as step-at-a-time generation.
func (g *graphGen) NextBatch(buf []sim.Step) int {
	if g.q.empty() {
		g.buildBatch()
	}
	return g.q.popN(buf)
}

// MutatesKernel implements sim.KernelMutator: shard rotation unmaps and
// remaps dataset windows, so sharded stepping must serialize this
// generator's refills at the quantum barrier. True only when the dataset
// is actually chunked and file-backed (rotateShard's own precondition).
func (g *graphGen) MutatesKernel() bool {
	return g.rotateEvery > 0 && g.env.RDataset.Chunked() && g.env.DatasetFile != nil
}

// FIO models the flexible I/O tester doing random reads and writes over
// an in-memory MAP_SHARED dataset. Both containers sweep the same
// dataset, so a large fraction of translations brought in by one are
// reused by the other — FIO gets the bigger compute-side improvement in
// the paper.
func FIO() *AppSpec {
	spec := &AppSpec{
		Name:  "fio",
		Class: Compute,
		FP: Footprint{
			InfraPages: 2560, BinPages: 256, BinDataPages: 32, LibPages: 768,
			DatasetPages: 12288, PrivatePages: 128, ScratchPages: 64,
			DatasetChunkPages: 256,
		},
		DatasetShared: true,
		DatasetPerm:   permRW,
	}
	spec.NewGen = func(d *Deployment, p *kernel.Process, idx int, seed uint64) sim.Generator {
		return newFioGen(d.Env(p), seed^0xE4E4)
	}
	return spec
}

type fioGen struct {
	env  Env
	rng  *rng.RNG
	code *codeWalker
	zipf *rng.Zipf
	q    stepQueue
	salt uint64
}

func newFioGen(env Env, seed uint64) *fioGen {
	r := rng.New(seed)
	return &fioGen{
		env: env, rng: r,
		code: newCodeWalker(env.P, r, 0.08, 0.10, env.RBin, env.RLibs, env.RInfra),
		// Mild skew: FIO touches most of the dataset but I/O benchmarks
		// re-touch hot blocks.
		zipf: rng.NewZipf(r, env.RDataset.Pages, 0.97),
	}
}

func (g *fioGen) buildOp() {
	e, p := &g.env, g.env.P
	g.salt++
	var s sim.Step
	g.code.next(&s)
	s.Req = sim.ReqStart
	g.q.push(s)

	write := g.rng.Bool(0.30)
	page := g.zipf.Next()
	// A 4KB block op touches several lines of the target page.
	for i := 0; i < 6; i++ {
		dataStep(&s, p, pageAddr(e.RDataset, page, g.salt*17+uint64(i)*5), write, 3)
		g.q.push(s)
	}
	// Copy through the small I/O buffer.
	dataStep(&s, p, pageAddr(e.RPrivate, g.rng.Intn(e.RPrivate.Pages), g.salt), true, 3)
	g.q.push(s)

	g.code.next(&s)
	s.Req = sim.ReqEnd
	g.q.push(s)
}

func (g *fioGen) Next(out *sim.Step) bool {
	if g.q.empty() {
		g.buildOp()
	}
	return g.q.pop(out)
}

// NextBatch implements sim.BatchGenerator.
func (g *fioGen) NextBatch(buf []sim.Step) int {
	n := 0
	for n < len(buf) {
		if g.q.empty() {
			g.buildOp()
		}
		n += g.q.popN(buf[n:])
	}
	return n
}
