package workloads

import (
	"babelfish/internal/kernel"
	"babelfish/internal/memdefs"
	"babelfish/internal/rng"
	"babelfish/internal/sim"
)

// codeWalker models the instruction stream: a hot loop advancing line by
// line through the application's hot code pages (binary + libraries +
// runtime), with occasional jumps to other hot pages (calls into
// libraries). One emitted I-fetch step stands for a whole 64-byte fetch
// line, i.e. ~16 instructions of think time on the 2-issue core.
type codeWalker struct {
	proc     *kernel.Process
	rng      *rng.RNG
	regions  []kernel.Region // code regions (group VA)
	hotPages []memdefs.VAddr // hot page base addresses (group VA)
	page     int             // current hot page index
	line     int             // current line within the page
	jumpProb float64
}

const (
	lineBytes     = 64
	linesPerPage  = memdefs.PageSize / lineBytes
	instrsPerLine = 15 // think-instructions represented by one I-fetch
)

// newCodeWalker picks hotFrac of the pages of each region as the hot set.
func newCodeWalker(proc *kernel.Process, src *rng.RNG, hotFrac float64, jumpProb float64, regions ...kernel.Region) *codeWalker {
	w := &codeWalker{proc: proc, rng: src, regions: regions, jumpProb: jumpProb}
	for _, r := range regions {
		hot := int(float64(r.Pages) * hotFrac)
		if hot < 1 {
			hot = 1
		}
		if hot > r.Pages {
			hot = r.Pages
		}
		stride := r.Pages / hot
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < hot; i++ {
			w.hotPages = append(w.hotPages, r.PageVA(i*stride))
		}
	}
	if len(w.hotPages) == 0 {
		panic("workloads: code walker with no pages")
	}
	return w
}

// next fills an instruction-fetch step and returns it.
func (w *codeWalker) next(s *sim.Step) {
	gva := w.hotPages[w.page] + memdefs.VAddr(w.line*lineBytes)
	s.VA = w.proc.ProcVA(gva)
	s.Kind = memdefs.AccessInstr
	s.Write = false
	s.Think = instrsPerLine
	s.Req = sim.ReqNone
	w.line++
	if w.line >= linesPerPage || w.rng.Bool(w.jumpProb) {
		w.line = w.rng.Intn(linesPerPage)
		w.page = w.rng.Intn(len(w.hotPages))
	}
}

// dataStep fills a data step at a group VA.
func dataStep(s *sim.Step, p *kernel.Process, gva memdefs.VAddr, write bool, think int) {
	s.VA = p.ProcVA(gva)
	s.Kind = memdefs.AccessData
	s.Write = write
	s.Think = think
	s.Req = sim.ReqNone
}

// pageAddr returns the group VA of page idx within a (possibly chunked)
// region, at a deterministic offset derived from salt (spreads accesses
// across lines).
func pageAddr(r kernel.Region, idx int, salt uint64) memdefs.VAddr {
	off := (salt * lineBytes) % memdefs.PageSize
	return r.PageVA(idx) + memdefs.VAddr(off)
}

// lineAddr returns the group VA of a specific line of a page.
func lineAddr(r kernel.Region, idx, line int) memdefs.VAddr {
	return r.PageVA(idx) + memdefs.VAddr((line%linesPerPage)*lineBytes)
}

// stepQueue is a small FIFO the generators fill with one request's worth
// of steps and drain through Next.
type stepQueue struct {
	steps []sim.Step
	head  int
}

func (q *stepQueue) push(s sim.Step) { q.steps = append(q.steps, s) }
func (q *stepQueue) empty() bool     { return q.head >= len(q.steps) }

// popN drains up to len(buf) queued steps into buf in order.
func (q *stepQueue) popN(buf []sim.Step) int {
	n := copy(buf, q.steps[q.head:])
	q.head += n
	if q.empty() {
		q.steps = q.steps[:0]
		q.head = 0
	}
	return n
}
func (q *stepQueue) pop(out *sim.Step) bool {
	if q.empty() {
		return false
	}
	*out = q.steps[q.head]
	q.head++
	if q.empty() {
		q.steps = q.steps[:0]
		q.head = 0
	}
	return true
}

// Chain concatenates generators: each is drained before the next starts.
// Used to run a container's bring-up sequence before its workload.
type Chain struct {
	Gens []sim.Generator
	i    int
}

// NewChain builds a chained generator.
func NewChain(gens ...sim.Generator) *Chain { return &Chain{Gens: gens} }

// Next implements sim.Generator.
func (c *Chain) Next(out *sim.Step) bool {
	for c.i < len(c.Gens) {
		if c.Gens[c.i].Next(out) {
			return true
		}
		c.i++
	}
	return false
}

// MutatesKernel implements sim.KernelMutator: a chain mutates kernel
// state while producing steps iff any of its links does.
func (c *Chain) MutatesKernel() bool {
	for _, g := range c.Gens {
		if km, ok := g.(sim.KernelMutator); ok && km.MutatesKernel() {
			return true
		}
	}
	return false
}

// NextBatch implements sim.BatchGenerator: one call returns one chunk
// from the current link (its own NextBatch when it has one, a single
// step otherwise), advancing to the next link exactly where Next would.
// It deliberately does not loop to fill buf — a link's build machinery
// may mutate kernel state, and chaining a second build before the first
// chunk's steps execute would move those mutations earlier in machine
// time than step-at-a-time generation.
func (c *Chain) NextBatch(buf []sim.Step) int {
	for c.i < len(c.Gens) {
		if bg, ok := c.Gens[c.i].(sim.BatchGenerator); ok {
			if k := bg.NextBatch(buf); k > 0 {
				return k
			}
		} else if c.Gens[c.i].Next(&buf[0]) {
			return 1
		}
		c.i++
	}
	return 0
}
