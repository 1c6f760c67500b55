package main

import (
	"fesia"
	"fesia/internal/core"
	"fesia/internal/datasets"
	"fesia/internal/graph"
)

// runTriangles repeats graph.FesiaGraph.CountTriangles on a LiveJournal-like
// graph (150k nodes, about 1.27M edges at scale 1), the paper's second
// application (Fig. 13), alternating with the scalar count over the same
// oriented graph. Its intersections run through the batch CountMany over
// small neighbor sets, so the small-kernel dispatch (Table II) dominates.
//
// It counts with one worker. With two, each pass waits for the slower half
// of the vertices, and which half meets a contended core changes from pass
// to pass and differs between the two sides: the speedup's interquartile
// spread between runs was 9-25% with two workers and 3-7% with one.
func runTriangles(cfg config) (*result, error) {
	oriented, lists := newTriangleGraph(cfg)
	var fg *graph.FesiaGraph
	su, err := setUpInProcess(lists, func() { fg = nil }, func() (err error) {
		fg, err = graph.BuildFesia(oriented, core.DefaultConfig())
		return err
	})
	if err != nil {
		return nil, err
	}
	var ref scalar
	want := ref.triangles(oriented)
	// One pass intersects every directed edge whose endpoints both have
	// forward neighbors.
	isects := 0
	for u := range lists {
		for _, v := range lists[u] {
			if oriented.Degree(int(v)) > 0 {
				isects++
			}
		}
	}
	sets, err := fesia.BuildBatch(lists)
	if err != nil {
		return nil, err
	}
	bpe := bytesPerElem(sets)
	sets = nil
	pl, err := pairedLoop(cfg.dur(1), execSlice, float64(isects),
		func(int) bool { return fg.CountTriangles(1) == want },
		func(int) bool { return ref.triangles(oriented) == want })
	if err != nil {
		return nil, err
	}
	r := &result{attempted: pl.attempted, failed: pl.failed}
	r.endToEnd(cfg, su, refSetupSecs["triangles"], pl, pl, bpe)
	return r, nil
}

// newTriangleGraph generates the LiveJournal-like graph from the seed and
// orients it by degree, returning it and its forward neighbor lists.
func newTriangleGraph(cfg config) (*graph.CSR, [][]uint32) {
	g := datasets.NewGraph(datasets.GraphConfig{
		Nodes:      cfg.scaled(150_000, 3_000),
		EdgesPer:   8,
		Clustering: 0.5,
		Seed:       cfg.seed,
	})
	oriented := graph.FromEdges(g.Nodes, g.Edges).Oriented()
	lists := make([][]uint32, oriented.NumVertices())
	for u := range lists {
		lists[u] = oriented.Neighbors(u)
	}
	return oriented, lists
}

// triangles is the scalar triangle count of an oriented graph: the sum over
// its directed edges u→v of |N⁺(u) ∩ N⁺(v)|.
func (s *scalar) triangles(g *graph.CSR) int64 {
	var total int64
	for u := 0; u < g.NumVertices(); u++ {
		nu := g.Neighbors(u)
		for _, v := range nu {
			if nv := g.Neighbors(int(v)); len(nv) > 0 {
				total += int64(s.count([][]uint32{nu, nv}))
			}
		}
	}
	return total
}
