// Package invindex implements the database-query substrate of the FESIA
// evaluation (Section VII-F): an inverted index mapping items (keywords) to
// sorted posting lists of document IDs, with conjunctive multi-keyword
// queries answered by k-way set intersection.
//
// The index keeps both plain posting lists (for the baseline methods) and
// prebuilt FESIA sets per item — the offline construction whose time the
// paper reports separately from query time.
package invindex

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"fesia/internal/core"
	"fesia/internal/datasets"
)

// execPool recycles executors behind the convenience Query/QueryCount
// methods so one-shot callers still hit warm scratch buffers. Hot loops
// should hold their own core.Executor and call QueryCountExec.
var execPool = sync.Pool{New: func() any { return core.NewExecutor() }}

// Index is an immutable inverted index over a document corpus.
type Index struct {
	cfg      core.Config
	postings map[uint32][]uint32
	sets     map[uint32]*core.Set
	empty    *core.Set // stands in for unknown items in batch queries
	numDocs  int
}

// FromCorpus builds an index (plain lists + FESIA sets) from a corpus. The
// FESIA sets share arena-backed storage (core.NewSetBatch) for query-time
// locality.
func FromCorpus(c *datasets.Corpus, cfg core.Config) (*Index, error) {
	ix := &Index{
		cfg:      cfg,
		postings: make(map[uint32][]uint32, len(c.Postings)),
		sets:     make(map[uint32]*core.Set, len(c.Postings)),
		numDocs:  c.NumDocs,
	}
	items := make([]uint32, 0, len(c.Postings))
	lists := make([][]uint32, 0, len(c.Postings))
	for item, lst := range c.Postings {
		ix.postings[item] = lst
		items = append(items, item)
		lists = append(lists, lst)
	}
	sets, err := core.NewSetBatch(lists, cfg)
	if err != nil {
		return nil, fmt.Errorf("invindex: building FESIA sets: %w", err)
	}
	for i, item := range items {
		ix.sets[item] = sets[i]
	}
	if ix.empty, err = core.NewSet(nil, cfg); err != nil {
		return nil, fmt.Errorf("invindex: building empty set: %w", err)
	}
	return ix, nil
}

// NumDocs returns the corpus document count.
func (ix *Index) NumDocs() int { return ix.numDocs }

// NumItems returns the number of indexed items.
func (ix *Index) NumItems() int { return len(ix.postings) }

// Posting returns the plain sorted posting list of an item (nil if absent).
func (ix *Index) Posting(item uint32) []uint32 { return ix.postings[item] }

// Set returns the prebuilt FESIA set of an item (nil if absent).
func (ix *Index) Set(item uint32) *core.Set { return ix.sets[item] }

// QueryCount answers a conjunctive query with FESIA's k-way intersection,
// returning the number of documents containing every item. Unknown items
// yield zero. It borrows a pooled executor; hot loops should hold their own
// and call QueryCountExec.
func (ix *Index) QueryCount(items ...uint32) int {
	ex := execPool.Get().(*core.Executor)
	defer execPool.Put(ex)
	return ix.QueryCountExec(ex, items...)
}

// QueryCountExec is QueryCount running on a caller-owned executor, so a
// query loop reuses warm scratch buffers across calls.
func (ix *Index) QueryCountExec(ex *core.Executor, items ...uint32) int {
	sets := make([]*core.Set, len(items))
	for i, it := range items {
		s, ok := ix.sets[it]
		if !ok {
			return 0
		}
		sets[i] = s
	}
	if len(sets) == 0 {
		return 0
	}
	return ex.CountK(sets...)
}

// QueryCountCtx is QueryCount with cooperative cancellation: a serving
// front-end can bound conjunctive queries by request deadline. On
// cancellation it returns (0, ctx.Err()).
func (ix *Index) QueryCountCtx(ctx context.Context, items ...uint32) (int, error) {
	ex := execPool.Get().(*core.Executor)
	defer execPool.Put(ex)
	return ix.QueryCountExecCtx(ctx, ex, items...)
}

// QueryCountExecCtx is QueryCountCtx running on a caller-owned executor.
func (ix *Index) QueryCountExecCtx(ctx context.Context, ex *core.Executor, items ...uint32) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	sets := make([]*core.Set, len(items))
	for i, it := range items {
		s, ok := ix.sets[it]
		if !ok {
			return 0, nil
		}
		sets[i] = s
	}
	if len(sets) == 0 {
		return 0, nil
	}
	return ex.CountKCtx(ctx, sets...)
}

// Query answers a conjunctive query and returns the matching document IDs
// in ascending order.
func (ix *Index) Query(items ...uint32) []uint32 {
	sets := make([]*core.Set, len(items))
	minLen := 0
	for i, it := range items {
		s, ok := ix.sets[it]
		if !ok {
			return nil
		}
		sets[i] = s
		if i == 0 || s.Len() < minLen {
			minLen = s.Len()
		}
	}
	if len(sets) == 0 {
		return nil
	}
	dst := make([]uint32, minLen)
	ex := execPool.Get().(*core.Executor)
	defer execPool.Put(ex)
	out := dst[:ex.IntersectK(dst, sets...)]
	slices.Sort(out)
	return out
}

// QueryManyCount returns, for one base item, the number of documents it
// shares with each of the other items — the paper's "one keyword against
// many others" batch pattern (Section VII-F), answered by the one-vs-many
// engine so the base posting's bitmap words and hash positions stay hot
// across the whole candidate list. Unknown items (base or other) contribute
// zero counts. It borrows a pooled executor; hot loops should hold their
// own and call QueryManyCountExec.
func (ix *Index) QueryManyCount(base uint32, others ...uint32) []int {
	out := make([]int, len(others))
	ex := execPool.Get().(*core.Executor)
	defer execPool.Put(ex)
	ix.QueryManyCountExec(ex, out, base, others)
	return out
}

// QueryManyCountExec is QueryManyCount running on a caller-owned executor,
// writing the per-item counts into out (which must have room for
// len(others) entries). Only the candidate-set slice is allocated per call;
// the intersection work itself runs on the executor's warm scratch.
func (ix *Index) QueryManyCountExec(ex *core.Executor, out []int, base uint32, others []uint32) {
	bs, ok := ix.sets[base]
	if !ok {
		bs = ix.empty
	}
	cands := make([]*core.Set, len(others))
	for i, o := range others {
		if s, ok := ix.sets[o]; ok {
			cands[i] = s
		} else {
			cands[i] = ix.empty
		}
	}
	ex.CountMany(bs, cands, out)
}

// QueryCountWith answers the query using an arbitrary k-way counting
// algorithm over the plain posting lists — the hook the Fig. 12 harness uses
// to run the baseline methods on identical inputs.
func (ix *Index) QueryCountWith(algo func(sets [][]uint32) int, items ...uint32) int {
	lists := make([][]uint32, len(items))
	for i, it := range items {
		lst, ok := ix.postings[it]
		if !ok {
			return 0
		}
		lists[i] = lst
	}
	if len(lists) == 0 {
		return 0
	}
	return algo(lists)
}
