// Package graph is the graph-processing substrate behind the GraphChi
// workload (Section VI: "a graph processing framework with memory
// caching. We use the PageRank algorithm which traverses a 500MB graph
// from SNAP"). SNAP datasets are not available offline, so the package
// generates synthetic power-law graphs with the R-MAT recursive-matrix
// method (the standard surrogate for SNAP-style web/social graphs),
// stores them in CSR form, and implements the PageRank iteration whose
// memory behaviour the simulator's GraphChi generator replays.
package graph

import (
	"fmt"
	"math"
	"sort"

	"babelfish/internal/rng"
)

// CSR is a graph in compressed sparse row form: RowPtr[v]..RowPtr[v+1]
// index into Dst, holding v's out-neighbours.
type CSR struct {
	N      int
	RowPtr []int32
	Dst    []int32
}

// Edges returns the edge count.
func (g *CSR) Edges() int { return len(g.Dst) }

// OutDegree returns vertex v's out-degree.
func (g *CSR) OutDegree(v int) int {
	return int(g.RowPtr[v+1] - g.RowPtr[v])
}

// Neighbors returns v's out-neighbour slice (aliasing internal storage).
func (g *CSR) Neighbors(v int) []int32 {
	return g.Dst[g.RowPtr[v]:g.RowPtr[v+1]]
}

// RMAT generates a power-law directed graph with 2^scale vertices and
// edgeFactor×2^scale edges using the R-MAT (a,b,c,d) = (0.57, 0.19,
// 0.19, 0.05) parameters of the Graph500 reference.
func RMAT(scale, edgeFactor int, seed uint64) (*CSR, error) {
	if scale < 1 || scale > 26 {
		return nil, fmt.Errorf("graph: scale %d out of range [1,26]", scale)
	}
	if edgeFactor < 1 {
		return nil, fmt.Errorf("graph: edge factor %d < 1", edgeFactor)
	}
	n := 1 << scale
	m := n * edgeFactor
	const a, b, c = 0.57, 0.19, 0.19
	r := rng.New(seed)

	type edge struct{ src, dst int32 }
	edges := make([]edge, 0, m)
	for i := 0; i < m; i++ {
		var src, dst int
		for bit := scale - 1; bit >= 0; bit-- {
			u := r.Float64()
			switch {
			case u < a: // top-left
			case u < a+b: // top-right
				dst |= 1 << bit
			case u < a+b+c: // bottom-left
				src |= 1 << bit
			default: // bottom-right
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		if src == dst {
			dst = (dst + 1) % n
		}
		edges = append(edges, edge{int32(src), int32(dst)})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].src != edges[j].src {
			return edges[i].src < edges[j].src
		}
		return edges[i].dst < edges[j].dst
	})

	g := &CSR{N: n, RowPtr: make([]int32, n+1), Dst: make([]int32, 0, m)}
	for _, e := range edges {
		g.RowPtr[e.src+1]++
		g.Dst = append(g.Dst, e.dst)
	}
	for v := 0; v < n; v++ {
		g.RowPtr[v+1] += g.RowPtr[v]
	}
	return g, nil
}

// PageRank runs the power iteration with damping d until the L1 delta
// falls below eps or maxIter iterations elapse. Returns the rank vector
// and the iterations used. Dangling vertices redistribute uniformly.
func PageRank(g *CSR, d float64, eps float64, maxIter int) ([]float64, int) {
	n := g.N
	rank := make([]float64, n)
	next := make([]float64, n)
	inv := 1 / float64(n)
	for v := range rank {
		rank[v] = inv
	}
	iters := 0
	for ; iters < maxIter; iters++ {
		dangling := 0.0
		for v := range next {
			next[v] = 0
		}
		for v := 0; v < n; v++ {
			deg := g.OutDegree(v)
			if deg == 0 {
				dangling += rank[v]
				continue
			}
			share := rank[v] / float64(deg)
			for _, w := range g.Neighbors(v) {
				next[w] += share
			}
		}
		base := (1-d)*inv + d*dangling*inv
		delta := 0.0
		for v := 0; v < n; v++ {
			nv := base + d*next[v]
			delta += math.Abs(nv - rank[v])
			rank[v] = nv
		}
		if delta < eps {
			iters++
			break
		}
	}
	return rank, iters
}

// Layout describes how the CSR maps onto the GraphChi workload's shared
// dataset file: the vertex (RowPtr) section first, then the edge (Dst)
// section, 4KB pages.
type Layout struct {
	G            *CSR
	VertexPages  int // pages holding RowPtr
	EdgePages    int // pages holding Dst
	int32PerPage int
}

// NewLayout computes the paging of a CSR at 4KB pages / 4-byte entries.
func NewLayout(g *CSR) Layout {
	const per = 4096 / 4
	vp := (g.N + 1 + per - 1) / per
	ep := (len(g.Dst) + per - 1) / per
	if ep < 1 {
		ep = 1
	}
	return Layout{G: g, VertexPages: vp, EdgePages: ep, int32PerPage: per}
}

// TotalPages is the file size in pages.
func (l Layout) TotalPages() int { return l.VertexPages + l.EdgePages }

// VertexPage returns the dataset page holding RowPtr[v].
func (l Layout) VertexPage(v int) int { return v / l.int32PerPage }

// EdgePage returns the dataset page holding Dst[i].
func (l Layout) EdgePage(i int) int {
	return l.VertexPages + i/l.int32PerPage
}
