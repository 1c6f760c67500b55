// Package graph provides the graph-analytics substrate for the FESIA
// evaluation: a CSR adjacency structure and triangle counting by neighbor
// set intersection (the task of Fig. 13 and reference [6]).
//
// Triangle counting uses the standard degree-ordered orientation: vertices
// are ranked by (degree, id); each undirected edge becomes a directed edge
// from lower to higher rank, and the triangle count is the sum of
// |N⁺(u) ∩ N⁺(v)| over directed edges (u, v). The intersection routine is
// pluggable, so the same driver runs scalar merge, shuffling, or FESIA.
package graph

import (
	"fmt"
	"slices"

	"fesia/internal/core"
)

// CSR is an adjacency structure with sorted neighbor lists.
type CSR struct {
	n       int
	offsets []uint32
	nbrs    []uint32
}

// FromEdges builds a CSR from an undirected simple edge list. Edges must be
// duplicate-free with both endpoints below nodes (datasets.NewGraph
// guarantees this); each edge appears in both endpoints' lists.
func FromEdges(nodes int, edges [][2]uint32) *CSR {
	deg := make([]uint32, nodes)
	for _, e := range edges {
		if int(e[0]) >= nodes || int(e[1]) >= nodes {
			panic(fmt.Sprintf("graph: edge %v out of range", e))
		}
		deg[e[0]]++
		deg[e[1]]++
	}
	g := &CSR{
		n:       nodes,
		offsets: make([]uint32, nodes+1),
		nbrs:    make([]uint32, 2*len(edges)),
	}
	sum := uint32(0)
	for v, d := range deg {
		g.offsets[v] = sum
		sum += d
	}
	g.offsets[nodes] = sum
	next := append([]uint32(nil), g.offsets[:nodes]...)
	for _, e := range edges {
		g.nbrs[next[e[0]]] = e[1]
		next[e[0]]++
		g.nbrs[next[e[1]]] = e[0]
		next[e[1]]++
	}
	for v := 0; v < nodes; v++ {
		nb := g.nbrs[g.offsets[v]:g.offsets[v+1]]
		slices.Sort(nb)
	}
	return g
}

// NumVertices returns the vertex count.
func (g *CSR) NumVertices() int { return g.n }

// NumDirectedEdges returns the total adjacency length (2x undirected edges).
func (g *CSR) NumDirectedEdges() int { return len(g.nbrs) }

// Neighbors returns v's sorted neighbor list (a view; do not modify).
func (g *CSR) Neighbors(v int) []uint32 {
	return g.nbrs[g.offsets[v]:g.offsets[v+1]]
}

// Degree returns the degree of v.
func (g *CSR) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Oriented returns the forward-neighbor DAG under (degree, id) ranking:
// each vertex keeps only neighbors of strictly higher rank. Every triangle
// of the undirected graph appears exactly once as u→v, u→w, v→w.
func (g *CSR) Oriented() *CSR {
	rankLess := func(a, b uint32) bool {
		da, db := g.Degree(int(a)), g.Degree(int(b))
		if da != db {
			return da < db
		}
		return a < b
	}
	out := &CSR{n: g.n, offsets: make([]uint32, g.n+1)}
	// Every undirected edge contributes exactly one forward edge, so the
	// final length is known up front: no append growth, one allocation.
	nbrs := make([]uint32, 0, len(g.nbrs)/2)
	for v := 0; v < g.n; v++ {
		out.offsets[v] = uint32(len(nbrs))
		for _, w := range g.Neighbors(v) {
			if rankLess(uint32(v), w) {
				nbrs = append(nbrs, w)
			}
		}
		// Neighbor lists are sorted by id; forward lists must stay sorted
		// by id too (they are a subsequence). ✓
	}
	out.offsets[g.n] = uint32(len(nbrs))
	out.nbrs = nbrs
	return out
}

// Intersector counts the intersection of two sorted neighbor lists.
type Intersector func(a, b []uint32) int

// CountTriangles counts triangles by summing |N⁺(u) ∩ N⁺(v)| over the
// directed edges of the oriented graph, using the supplied intersector.
// Pass the result of Oriented(), not the undirected CSR.
func CountTriangles(oriented *CSR, intersect Intersector) int64 {
	var total int64
	for u := 0; u < oriented.n; u++ {
		nu := oriented.Neighbors(u)
		if len(nu) == 0 {
			continue
		}
		for _, v := range nu {
			nv := oriented.Neighbors(int(v))
			if len(nv) == 0 {
				continue
			}
			total += int64(intersect(nu, nv))
		}
	}
	return total
}

// CountTrianglesParallel partitions vertices across workers of the shared
// persistent pool (core.SharedPool). Triangle counting parallelizes
// trivially because every directed edge contributes an independent
// intersection (Section VI, multicore); no goroutines are spawned per call.
func CountTrianglesParallel(oriented *CSR, intersect Intersector, workers int) int64 {
	if workers < 1 {
		workers = 1
	}
	if workers > oriented.n {
		workers = oriented.n
	}
	if workers == 1 {
		return CountTriangles(oriented, intersect)
	}
	totals := make([]int64, workers)
	chunk := (oriented.n + workers - 1) / workers
	core.SharedPool().Do(workers, func(w int) {
		lo := w * chunk
		hi := min(lo+chunk, oriented.n)
		var local int64
		for u := lo; u < hi; u++ {
			nu := oriented.Neighbors(u)
			if len(nu) == 0 {
				continue
			}
			for _, v := range nu {
				nv := oriented.Neighbors(int(v))
				if len(nv) == 0 {
					continue
				}
				local += int64(intersect(nu, nv))
			}
		}
		totals[w] = local
	})
	var total int64
	for _, t := range totals {
		total += t
	}
	return total
}

// FesiaGraph holds a prebuilt FESIA set per vertex's forward neighbor list,
// the offline preprocessing the paper's triangle-counting experiment
// assumes (construction time is reported separately, Table III).
type FesiaGraph struct {
	oriented *CSR
	sets     []*core.Set
	maxDeg   int // maximum forward degree, sizing the batch scratch
}

// BuildFesia preprocesses an oriented CSR into per-vertex FESIA sets. The
// sets are arena-backed (core.NewSetBatch) so the per-edge intersections of
// triangle counting walk contiguous memory.
func BuildFesia(oriented *CSR, cfg core.Config) (*FesiaGraph, error) {
	lists := make([][]uint32, oriented.n)
	for v := 0; v < oriented.n; v++ {
		lists[v] = oriented.Neighbors(v)
	}
	sets, err := core.NewSetBatch(lists, cfg)
	if err != nil {
		return nil, err
	}
	maxDeg := 0
	for v := 0; v < oriented.n; v++ {
		maxDeg = max(maxDeg, oriented.Degree(v))
	}
	return &FesiaGraph{oriented: oriented, sets: sets, maxDeg: maxDeg}, nil
}

// CountTriangles counts triangles with FESIA set intersections across
// `workers` parts of the shared persistent pool (1 = sequential on the
// caller).
func (fg *FesiaGraph) CountTriangles(workers int) int64 {
	g := fg.oriented
	if workers < 1 {
		workers = 1
	}
	if workers > g.n {
		workers = g.n
	}
	run := func(lo, hi int) int64 {
		// One batch query per vertex: u's forward set is the pinned query,
		// its forward neighbors' sets the candidate list. The batch engine
		// keeps the adaptive merge/hash switch per edge (degree skew between
		// hubs and leaves, Section VI) while holding u's bitmap words and
		// dispatch scratch hot across the whole neighbor list. Scratch is
		// pre-sized from the maximum forward degree, so the edge loop never
		// reallocates.
		ex := core.NewExecutor()
		cands := make([]*core.Set, 0, fg.maxDeg)
		counts := make([]int, fg.maxDeg)
		var local int64
		for u := lo; u < hi; u++ {
			su := fg.sets[u]
			if su.Len() == 0 {
				continue
			}
			cands = cands[:0]
			for _, v := range g.Neighbors(u) {
				// v's set is its forward list: the degree reads the CSR
				// beside the loop instead of loading the set's header.
				if g.Degree(int(v)) > 0 {
					cands = append(cands, fg.sets[v])
				}
			}
			if len(cands) == 0 {
				continue
			}
			ex.CountMany(su, cands, counts)
			for _, c := range counts[:len(cands)] {
				local += int64(c)
			}
		}
		return local
	}
	if workers == 1 {
		return run(0, g.n)
	}
	totals := make([]int64, workers)
	chunk := (g.n + workers - 1) / workers
	core.SharedPool().Do(workers, func(w int) {
		lo := w * chunk
		hi := min(lo+chunk, g.n)
		totals[w] = run(lo, hi)
	})
	var total int64
	for _, t := range totals {
		total += t
	}
	return total
}
