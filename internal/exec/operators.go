package exec

import (
	"errors"
	"fmt"

	"mdxopt/internal/bitmap"
	"mdxopt/internal/query"
	"mdxopt/internal/star"
)

// ErrNoIndex is returned when an index star join is requested on a view
// lacking a bitmap join index for a restricted dimension.
var ErrNoIndex = errors.New("exec: view has no bitmap join index for a restricted dimension")

// errDetached stops a shared pass early once every pipeline has
// detached; callers treat it as completion (each result then carries
// its per-query context's error).
var errDetached = errors.New("exec: all pipelines detached")

// checkpoint polls global cancellation, spill I/O failures, and
// per-pipeline detachment for one worker's pipeline set. It runs once
// per pinned page, not per tuple. It returns errDetached when no
// pipeline is left attached.
func checkpoint(env *Env, set []*queryPipeline) error {
	if err := env.canceled(); err != nil {
		return err
	}
	alive := false
	for _, p := range set {
		if p.ioErr != nil {
			return p.ioErr
		}
		if !p.detachedNow() {
			alive = true
		}
	}
	if len(set) > 0 && !alive {
		return errDetached
	}
	return nil
}

// closePipes releases every pipeline's memory and spill state; used as
// a deferred cleanup so no path leaks reservations or temp files.
func closePipes(pipelines []*queryPipeline) {
	for _, p := range pipelines {
		p.close()
	}
}

// bitsetBytes is the memory footprint of one result bitmap over rows.
func bitsetBytes(rows int64) int64 { return (rows + 63) / 64 * 8 }

// checkAnswerable validates that view can compute every query, including
// the aggregate-layout requirement (non-SUM queries need the base table
// or a multi-aggregate view — a sum-only view has no count/min/max
// information).
func checkAnswerable(env *Env, view *star.View, queries []*query.Query) error {
	for _, q := range queries {
		if !q.AnswerableFrom(view.Levels) {
			return fmt.Errorf("exec: view %s cannot answer %s", view.Name, q)
		}
		if q.Agg != query.Sum && !view.IsBase() && !view.MultiAgg() {
			return fmt.Errorf("exec: view %s lacks aggregate information for %s", view.Name, q)
		}
	}
	return nil
}

// HashJoinQuery evaluates a single query with a pipelined hash star join
// over view followed by hash aggregation (paper Fig. 1).
func HashJoinQuery(env *Env, view *star.View, q *query.Query, stats *Stats) (*Result, error) {
	rs, err := SharedScanHash(env, view, []*query.Query{q}, stats)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// SharedScanHash evaluates all queries with the shared-scan hash star
// join operator (§3.1, Fig. 2): one sequential scan of view feeds every
// query's join + aggregation pipeline, each identical dimension lookup
// table built once (Env.ShareLookups). It is SharedMixed without
// bitmap-filter members.
func SharedScanHash(env *Env, view *star.View, queries []*query.Query, stats *Stats) ([]*Result, error) {
	results, _, err := SharedMixed(env, view, queries, nil, stats)
	return results, err
}

// resultBitmap builds the query's result bitmap over view: for each
// restricted dimension *with a bitmap join index* the per-member bitmaps
// are OR-ed, and the per-dimension results are AND-ed (§3.2 steps 1–5).
// Restricted dimensions without an index stay for the fold kernel to
// test on each fetched tuple (the paper's test queries all carry a D
// filter while only A, B and C are indexed; see newQueryPipeline). At
// least one restricted dimension must be indexed, otherwise an index
// star join is meaningless and ErrNoIndex is returned.
func resultBitmap(env *Env, view *star.View, q *query.Query, stats *Stats) (*bitmap.Bitset, error) {
	var acc *bitmap.Bitset
	restricted := q.RestrictedDims()
	for _, dim := range restricted {
		ix := view.Indexes[dim]
		if ix == nil {
			continue
		}
		codes := q.ViewPredicate(dim, view.Levels[dim])
		bs, words, err := ix.OrOf(codes)
		if err != nil {
			return nil, err
		}
		stats.BitmapWords += words
		if acc == nil {
			acc = bs
		} else {
			stats.BitmapWords += acc.And(bs)
		}
	}
	if acc == nil {
		if len(restricted) > 0 {
			return nil, fmt.Errorf("%w: %s has no usable index for %s", ErrNoIndex, view.Name, q)
		}
		acc = bitmap.NewFull(view.Rows())
	}
	return acc, nil
}

// pipelineBitmap builds p's result bitmap, charging the bitmap work to
// the pipeline's own stats as well as the pass stats.
func pipelineBitmap(env *Env, view *star.View, p *queryPipeline, stats *Stats) (*bitmap.Bitset, error) {
	before := stats.BitmapWords
	bs, err := resultBitmap(env, view, p.q, stats)
	if err != nil {
		return nil, err
	}
	p.own.BitmapWords += stats.BitmapWords - before
	return bs, nil
}

// IndexJoinQuery evaluates a single query with a bitmap-index star join
// over view (§3.2's standard join index plan, Fig. 3): build the result
// bitmap, probe the view at the set positions, roll up and aggregate.
func IndexJoinQuery(env *Env, view *star.View, q *query.Query, stats *Stats) (*Result, error) {
	rs, err := SharedIndex(env, view, []*query.Query{q}, stats)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// SharedIndex evaluates all queries with the shared index star join
// operator (§3.2, Fig. 4): the per-query result bitmaps are OR-ed, the
// view is probed once with the union, and each fetched tuple is routed to
// the queries whose bitmaps cover its position. It is the probe regime
// of the shared pass (sharedPass, route.go): the union drives a
// page-batched fetch and routing is one AND per bitmap word.
func SharedIndex(env *Env, view *star.View, queries []*query.Query, stats *Stats) ([]*Result, error) {
	return sharedPass(env, view, nil, queries, true, stats)
}

// SharedMixed evaluates hash-join queries and index-join queries over the
// same view with one shared sequential scan (§3.3): the index queries'
// result bitmaps become selection filters applied to the scanned stream,
// saving their base-table probe I/O entirely. hashQueries may be empty,
// in which case the operator is a shared scan with bitmap filters only —
// the optimizer chooses this over SharedIndex when the union bitmap is
// dense enough that random probing would touch most pages anyway. It is
// the scan regime of the shared pass (sharedPass, route.go).
func SharedMixed(env *Env, view *star.View, hashQueries, indexQueries []*query.Query, stats *Stats) (hashResults, indexResults []*Result, err error) {
	results, err := sharedPass(env, view, hashQueries, indexQueries, false, stats)
	if err != nil {
		return nil, nil, err
	}
	return results[:len(hashQueries)], results[len(hashQueries):], nil
}

// sharedPass evaluates hash members and bitmap-filter members over view
// in one pass of the page loop (route.go), scanning every page or, with
// probe, fetching only the union of the filter members' result bitmaps.
// The pages are claimed morsel-wise from a shared cursor by the pass's
// pool workers (poolDrive), each folding into its own pipeline set;
// emit combines the worker tables key range by key range (finalize.go).
// Results come back in member order, hash members first.
//
// Before any pipeline exists the pass builds the lookups its roots
// lack (forest.lookups), so pipelines only read finished lookup sets.
func sharedPass(env *Env, view *star.View, hashQueries, filterQueries []*query.Query, probe bool, stats *Stats) ([]*Result, error) {
	if len(hashQueries)+len(filterQueries) == 0 {
		return nil, nil
	}
	members := append(append([]*query.Query(nil), hashQueries...), filterQueries...)
	if err := checkAnswerable(env, view, members); err != nil {
		return nil, err
	}
	var results []*Result
	err := env.measure(stats, func() error {
		// Only the roots of the derivation forest take tuples: a derived
		// member — hash or bitmap-filter alike — needs no lookups, builds
		// no result bitmap and is folded from its parent at emit.
		f := newForest(env, members)
		lookups, owned, err := f.lookups(env, stats, view)
		defer func() {
			for _, set := range owned {
				set.Close()
			}
		}()
		if err != nil {
			return err
		}
		// Result bitmaps (and the union) are required state: the pass
		// cannot run without them, so their footprint is an overdraft
		// grant held for the duration of the pass. The workers' page
		// buffers ride the same reservation.
		bres := env.Mem.Reserve("bitmaps")
		defer bres.Release()
		width := env.scanWidth()
		nh := len(hashQueries)
		pipes := f.workerSets(env, lookups, view, nh, width)
		defer closePipes(pipes)
		own := f.workerSet(pipes, 0)
		s := &pagePass{
			view:    view,
			bitmaps: make([]*bitmap.Bitset, len(own)),
			tpp:     int64(view.Heap.TuplesPerPage()),
			rows:    view.Rows(),
		}
		var filters []*bitmap.Bitset
		for k, m := range f.rootIdx {
			if m < nh {
				continue // a hash root selects every slot
			}
			bs, err := pipelineBitmap(env, view, own[k], stats)
			if err != nil {
				return err
			}
			bres.MustGrow(bitsetBytes(s.rows))
			s.bitmaps[k] = bs
			filters = append(filters, bs)
		}
		// A single root probes its own bitmap directly; a real union is
		// accumulated into a fresh bitset (no clone of the first operand)
		// with the n-1 ORs charged as bitmap work, same as the estimator
		// prices them.
		if probe {
			s.union = filters[0]
			if len(filters) > 1 {
				s.union = bitmap.New(s.rows)
				bres.MustGrow(bitsetBytes(s.rows))
				s.union.CopyFrom(filters[0])
				for _, bs := range filters[1:] {
					stats.BitmapWords += bs.OrInto(s.union)
				}
			}
		}
		workers := make([]pageWorker, width)
		for w := range workers {
			bres.MustGrow(pageBufBytes(view))
			workers[w] = newPageWorker(view, f.workerSet(pipes, w))
		}
		err = poolDrive(env, view.Heap.DataPages(), env.morselPages(), width, func(w int, fromPage, toPage int64) error {
			return s.pages(env, &workers[w], fromPage, toPage)
		})
		for w := range workers {
			stats.Add(workers[w].st)
		}
		if err != nil {
			return err
		}
		stats.PeakMemory += bres.Peak()
		results, err = f.emit(env, stats, pipes)
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
