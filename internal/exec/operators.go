package exec

import (
	"errors"
	"fmt"

	"mdxopt/internal/bitmap"
	"mdxopt/internal/mem"
	"mdxopt/internal/query"
	"mdxopt/internal/star"
	"mdxopt/internal/table"
)

// ErrNoIndex is returned when an index star join is requested on a view
// lacking a bitmap join index for a restricted dimension.
var ErrNoIndex = errors.New("exec: view has no bitmap join index for a restricted dimension")

// errDetached stops a shared pass early once every pipeline has
// detached; callers treat it as completion (each result then carries
// its per-query context's error).
var errDetached = errors.New("exec: all pipelines detached")

// checkpoint polls global cancellation, spill I/O failures, and
// per-pipeline detachment for the given pipeline sets. It runs every
// checkEvery tuples, not per tuple. It returns errDetached when no
// pipeline is left attached.
func checkpoint(env *Env, sets ...[]*queryPipeline) error {
	if err := env.canceled(); err != nil {
		return err
	}
	alive, any := false, false
	for _, set := range sets {
		for _, p := range set {
			if p.ioErr != nil {
				return p.ioErr
			}
			any = true
			if !p.detachedNow() {
				alive = true
			}
		}
	}
	if any && !alive {
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
// query's join + aggregation pipeline, and identical dimension lookup
// tables are built once when Env.ShareLookups is set. It is SharedMixed
// without bitmap-filter members.
func SharedScanHash(env *Env, view *star.View, queries []*query.Query, stats *Stats) ([]*Result, error) {
	results, _, err := SharedMixed(env, view, queries, nil, stats)
	return results, err
}

// resultBitmap builds the query's result bitmap over view: for each
// restricted dimension *with a bitmap join index* the per-member bitmaps
// are OR-ed, and the per-dimension results are AND-ed (§3.2 steps 1–5).
// Restricted dimensions without an index are returned as residual
// dimensions whose predicate must be applied to each fetched tuple (the
// paper's test queries all carry a D filter while only A, B and C are
// indexed). At least one restricted dimension must be indexed, otherwise
// an index star join is meaningless and ErrNoIndex is returned.
func resultBitmap(env *Env, view *star.View, q *query.Query, stats *Stats) (*bitmap.Bitset, []int, error) {
	var acc *bitmap.Bitset
	var residual []int
	restricted := q.RestrictedDims()
	for _, dim := range restricted {
		ix := view.Indexes[dim]
		if ix == nil {
			residual = append(residual, dim)
			continue
		}
		codes := q.ViewPredicate(dim, view.Levels[dim])
		bs, words, err := ix.OrOf(codes)
		if err != nil {
			return nil, nil, err
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
			return nil, nil, fmt.Errorf("%w: %s has no usable index for %s", ErrNoIndex, view.Name, q)
		}
		acc = bitmap.NewFull(view.Rows())
	}
	return acc, residual, nil
}

// pipelineBitmap builds p's result bitmap, charging the bitmap work to
// the pipeline's own stats as well as the pass stats.
func pipelineBitmap(env *Env, view *star.View, p *queryPipeline, stats *Stats) (*bitmap.Bitset, []int, error) {
	before := stats.BitmapWords
	bs, residual, err := resultBitmap(env, view, p.q, stats)
	if err != nil {
		return nil, nil, err
	}
	p.own.BitmapWords += stats.BitmapWords - before
	return bs, residual, nil
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
// the queries whose bitmaps cover its position.
//
// The probe is vectorized (route.go): the union drives a page-batched
// fetch, routing is one AND per bitmap word, and with a worker pool the
// pages are claimed morsel-wise from a shared cursor with per-worker
// pipelines merged in worker-index order, exactly like the parallel
// shared scan.
func SharedIndex(env *Env, view *star.View, queries []*query.Query, stats *Stats) ([]*Result, error) {
	if err := checkAnswerable(env, view, queries); err != nil {
		return nil, err
	}
	var results []*Result
	err := env.measure(stats, func() error {
		cache := newLookupCache(env, stats)
		defer cache.close()
		// Result bitmaps (and the union) are required state: the probe
		// cannot run without them, so their footprint is an overdraft
		// grant held for the duration of the pass. The probe workers'
		// batch and selection-vector buffers ride the same reservation.
		bres := env.Mem.Reserve("bitmaps")
		defer bres.Release()
		// Only the roots of the derivation forest probe: a derived member
		// builds no result bitmap and is folded from its parent at emit.
		f := newForest(env, queries)
		width := env.scanWidth()
		pipes, err := f.workerSets(env, stats, cache, view, width)
		defer closePipes(pipes)
		if err != nil {
			return err
		}
		pipelines := f.workerSet(pipes, 0)
		bitmaps := make([]*bitmap.Bitset, len(pipelines))
		residuals := make([][]int, len(pipelines))
		for i, p := range pipelines {
			bs, residual, err := pipelineBitmap(env, view, p, stats)
			if err != nil {
				return err
			}
			bres.MustGrow(bitsetBytes(view.Rows()))
			bitmaps[i] = bs
			residuals[i] = residual
		}
		// A single query probes its own bitmap directly; a real union is
		// accumulated into a fresh bitset (no clone of the first operand)
		// with the n-1 ORs charged as bitmap work, same as the estimator
		// prices them.
		union := bitmaps[0]
		if len(bitmaps) > 1 {
			union = bitmap.New(view.Rows())
			bres.MustGrow(bitsetBytes(view.Rows()))
			union.CopyFrom(bitmaps[0])
			for _, bs := range bitmaps[1:] {
				stats.BitmapWords += bs.OrInto(union)
			}
		}
		ps := &probeShared{
			view:      view,
			union:     union,
			bitmaps:   bitmaps,
			residuals: residuals,
			tpp:       int64(view.Heap.TuplesPerPage()),
			rows:      view.Rows(),
		}
		if width == 1 {
			bres.MustGrow(probeBufBytes(view))
			err = ps.probePages(env, newProbeWorker(view, pipelines), stats, 0, (ps.rows+ps.tpp-1)/ps.tpp)
		} else {
			err = parallelProbe(env, ps, f, pipes, width, stats, bres)
		}
		if err != nil && err != errDetached {
			return err
		}
		stats.PeakMemory += cache.memPeak() + bres.Peak()
		results, err = f.emit(env, stats, pipes)
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// parallelProbe fans the vectorized union probe out across the worker
// pool: worker w probes for its pipelines of pipes (workerSets; worker
// 0's are the pass's own) with its own fetch batch and routing scratch,
// and all claim page-aligned morsels from the shared cursor, the same
// shape (and determinism argument) as parallelScan.
func parallelProbe(env *Env, ps *probeShared, f *forest, pipes []*queryPipeline, width int, stats *Stats, bres *mem.Reservation) error {
	probers := make([]*probeWorker, width)
	for w := range probers {
		bres.MustGrow(probeBufBytes(ps.view))
		probers[w] = newProbeWorker(ps.view, f.workerSet(pipes, w))
	}
	workerStats := make([]Stats, width)
	err := poolDrive(env, (ps.rows+ps.tpp-1)/ps.tpp, env.morselPages(), width, func(w int, fromPage, toPage int64) error {
		return ps.probePages(env, probers[w], &workerStats[w], fromPage, toPage)
	})
	for w := range workerStats {
		stats.Add(workerStats[w])
	}
	return err
}

// SharedMixed evaluates hash-join queries and index-join queries over the
// same view with one shared sequential scan (§3.3): the index queries'
// result bitmaps become selection filters applied to the scanned stream,
// saving their base-table probe I/O entirely. hashQueries may be empty,
// in which case the operator is a shared scan with bitmap filters only —
// the optimizer chooses this over SharedIndex when the union bitmap is
// dense enough that random probing would touch most pages anyway.
func SharedMixed(env *Env, view *star.View, hashQueries, indexQueries []*query.Query, stats *Stats) (hashResults, indexResults []*Result, err error) {
	if len(hashQueries)+len(indexQueries) == 0 {
		return nil, nil, nil
	}
	if err := checkAnswerable(env, view, hashQueries); err != nil {
		return nil, nil, err
	}
	if err := checkAnswerable(env, view, indexQueries); err != nil {
		return nil, nil, err
	}
	err = env.measure(stats, func() error {
		cache := newLookupCache(env, stats)
		defer cache.close()
		bres := env.Mem.Reserve("bitmaps")
		defer bres.Release()
		// Only the roots of the derivation forest ride the scan: a derived
		// member — hash or bitmap-filter alike — takes no tuples, builds no
		// result bitmap and is folded from its parent at emit.
		f := newForest(env, append(append([]*query.Query(nil), hashQueries...), indexQueries...))
		nh := len(f.roots(0, len(hashQueries)))
		// Worker 0 folds into the pass's own pipelines; every further
		// worker into a private set.
		pipes, err := f.workerSets(env, stats, cache, view, env.scanWidth())
		defer closePipes(pipes)
		if err != nil {
			return err
		}
		own := f.workerSet(pipes, 0)
		bitmaps := make([]*bitmap.Bitset, len(own)-nh)
		residuals := make([][]int, len(bitmaps))
		for i, p := range own[nh:] {
			bs, residual, err := pipelineBitmap(env, view, p, stats)
			if err != nil {
				return err
			}
			bres.MustGrow(bitsetBytes(view.Rows()))
			bitmaps[i] = bs
			residuals[i] = residual
		}
		// mixedState is one worker's private state: both pipeline sets
		// plus the routing scratch the vectorized index filters use
		// (masked bitmap words and a selection vector, sized to a page).
		type mixedState struct {
			hash, index []*queryPipeline
			uwords      []uint64
			sel         []int32
		}
		newMixedScratch := func(ms *mixedState) {
			if len(ms.index) == 0 {
				return
			}
			tpp := view.Heap.TuplesPerPage()
			ms.uwords = make([]uint64, 0, tpp/wordBits+2)
			ms.sel = make([]int32, 0, tpp)
			bres.MustGrow(int64(4*tpp) + int64(tpp/wordBits+2)*8)
		}
		// mixedBatch feeds one decoded page to both pipeline sets: hash
		// pipelines consume the batch through the fold kernel; index
		// pipelines ride the same batch as bitmap filters (§3.3) — each
		// pipeline's bitmap words over the batch's row range are masked
		// and expanded to a selection vector (one AND-free word walk per
		// query, the bitmap itself is the hit word), and the survivors
		// fold through the selection kernel.
		mixedBatch := func(ms *mixedState, st *Stats, b *table.Batch) {
			for _, p := range ms.hash {
				p.foldBatch(st, b)
			}
			for i, p := range ms.index {
				if p.detached {
					continue
				}
				st.BitTests += int64(b.N)
				p.own.BitTests += int64(b.N)
				var w0 int
				ms.uwords, w0 = maskedWords(ms.uwords, bitmaps[i].Words(), b.Start, b.Start+int64(b.N))
				ms.sel = expandWords(ms.sel[:0], ms.uwords, w0, b.Start)
				hits := int64(len(ms.sel))
				st.TuplesFetched += hits
				p.own.TuplesFetched += hits
				if hits > 0 {
					p.foldBatchSel(st, b, ms.sel, residuals[i])
				}
			}
		}
		states := make([]mixedState, len(pipes)/len(own))
		for w := range states {
			set := f.workerSet(pipes, w)
			states[w] = mixedState{hash: set[:nh], index: set[nh:]}
			newMixedScratch(&states[w])
		}
		if len(states) > 1 {
			err = parallelScan(env, view, stats, len(states),
				func(w int) error { return checkpoint(env, states[w].hash, states[w].index) },
				func(w int, st *Stats, b *table.Batch) { mixedBatch(&states[w], st, b) })
		} else {
			err = view.Heap.ScanRangeBatches(0, view.Rows(), func(b *table.Batch) error {
				if err := checkpoint(env, own); err != nil {
					return err
				}
				stats.TuplesScanned += int64(b.N)
				mixedBatch(&states[0], stats, b)
				return nil
			})
		}
		if err != nil && err != errDetached {
			return err
		}
		stats.PeakMemory += cache.memPeak() + bres.Peak()
		results, err := f.emit(env, stats, pipes)
		if err != nil {
			return err
		}
		hashResults, indexResults = results[:len(hashQueries)], results[len(hashQueries):]
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return hashResults, indexResults, nil
}
