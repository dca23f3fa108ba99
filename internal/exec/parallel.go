package exec

import (
	"sync"
	"sync/atomic"

	"mdxopt/internal/dag"
	"mdxopt/internal/star"
	"mdxopt/internal/table"
)

// Parallel shared scans.
//
// Every aggregate this engine supports is decomposable, so a shared scan
// can be split across independent workers — each with its own
// aggregation tables but sharing the read-only dimension lookups and
// filter bitmaps — and the per-worker tables merged afterwards in worker
// index order. This parallelizes exactly the per-tuple CPU the paper's
// Test 1 identifies as the irreducible cost of the shared scan.
//
// The default split is morsel-driven: workers claim page-aligned morsels
// from a shared atomic cursor, so a worker that lands on slow pages
// simply claims fewer morsels while its siblings absorb the rest — no
// static pre-split, no straggler. The pass's own goroutine is always
// worker 0; extra workers run only while they hold a slot of the
// run-wide dag.Pool (Env.Pool), the same pool the task-graph scheduler
// starts nodes on, so intra-class fan-out and inter-class node
// concurrency are bounded by one width. Env.StaticPartition reverts to
// the legacy one-range-per-worker pre-split (scanPartitions) for the
// straggler ablation.
//
// Determinism: morsel assignment is racy, but every per-worker table is
// merged into worker 0's primary state in worker index order, table
// finalization sorts into canonical byte-key order, and the measures
// sum exactly in float64 — so results and the deterministic work
// counters are byte-identical at every width, morsel or static, to the
// serial pass.

// defaultMorselPages is the pages-per-morsel grain: big enough that the
// shared cursor is touched once per ~dozens of pages, small enough that
// a skewed page-cost tail is spread across all workers.
const defaultMorselPages = 16

// scanWidth is the effective worker fan-out of one shared pass: the
// run-wide pool's width when the pass runs under the task-graph
// executor, Env.Parallelism standalone, clamped to dag.WorkerCap.
func (e *Env) scanWidth() int {
	w := e.Parallelism
	if e.Pool != nil {
		w = e.Pool.Width()
	}
	if w < 1 {
		w = 1
	}
	if c := dag.WorkerCap(); w > c {
		w = c
	}
	return w
}

// morselPages resolves the pages-per-morsel grain.
func (e *Env) morselPages() int64 {
	if e.MorselPages > 0 {
		return int64(e.MorselPages)
	}
	return defaultMorselPages
}

// merge folds another pipeline's aggregation table (in-memory or
// spilled), memory counters, and own-work stats into p; both must
// belong to the same query. The worker's table is closed afterwards —
// its spill file, if any, is destroyed once its records are absorbed.
func (p *queryPipeline) merge(o *queryPipeline) error {
	if o.ioErr != nil {
		return o.ioErr
	}
	p.own.Add(o.own)
	if err := p.mergeTab(o); err != nil {
		return err
	}
	peak, spillBytes, spillParts := o.tabMemStats()
	p.own.PeakMemory += peak
	p.own.SpillBytes += spillBytes
	p.own.SpillPartitions += spillParts
	o.close()
	return nil
}

// scanPartitions returns the row ranges for n workers over rows rows,
// aligned to page boundaries (tpp tuples per page) so that no two
// workers ever share a page: whole pages are dealt out as evenly as
// possible (the first pages%n workers get one extra), which both keeps
// the per-worker work balanced and prevents a boundary page from being
// fetched — and its read double-counted — by two workers. Used only by
// the StaticPartition ablation path; the morsel path needs no
// pre-split.
func scanPartitions(rows int64, n, tpp int) [][2]int64 {
	if n < 1 {
		n = 1
	}
	if tpp < 1 {
		tpp = 1
	}
	pages := (rows + int64(tpp) - 1) / int64(tpp)
	out := make([][2]int64, 0, n)
	var fromPage int64
	for w := 0; w < n; w++ {
		share := pages / int64(n)
		if int64(w) < pages%int64(n) {
			share++
		}
		toPage := fromPage + share
		from := fromPage * int64(tpp)
		to := toPage * int64(tpp)
		if from > rows {
			from = rows
		}
		if to > rows || w == n-1 {
			to = rows
		}
		out = append(out, [2]int64{from, to})
		fromPage = toPage
	}
	return out
}

// parallelScan runs processBatch over the view's rows with
// env.scanWidth() workers. mkState builds one worker's private state
// (pipelines); check runs at the worker's cancellation checkpoints —
// once per page batch — (global context plus per-pipeline detachment: a
// worker whose pipelines have all detached stops early with
// errDetached, which is not an error); processBatch handles one decoded
// page of tuples; afterwards the per-worker stats and states are merged
// in worker index order via mergeState (which may itself fail, e.g.
// draining a worker's spill file). discard must release a state's
// resources — it runs (deferred, idempotently) for every state on every
// path, so memory reservations and spill files never leak on errors.
// Lookups and bitmaps must be built before calling (they are shared
// read-only).
func parallelScan(
	env *Env,
	view *star.View,
	stats *Stats,
	mkState func() (any, error),
	check func(state any) error,
	processBatch func(state any, st *Stats, b *table.Batch),
	mergeState func(state any) error,
	discard func(state any),
) error {
	width := env.scanWidth()

	states := make([]any, width)
	defer func() {
		for _, s := range states {
			if s != nil {
				discard(s)
			}
		}
	}()
	for i := range states {
		s, err := mkState()
		if err != nil {
			return err
		}
		states[i] = s
	}

	workerStats := make([]Stats, width)
	errs := make([]error, width)
	if env.StaticPartition {
		staticScan(env, view, states, workerStats, errs, check, processBatch)
	} else {
		morselScan(env, view, states, workerStats, errs, check, processBatch)
	}
	for w := range errs {
		if errs[w] != nil && errs[w] != errDetached {
			return errs[w]
		}
	}
	for w := range states {
		stats.Add(workerStats[w])
		if err := mergeState(states[w]); err != nil {
			return err
		}
	}
	return nil
}

// morselDrive is the shared morsel-cursor driver: nWorkers workers
// atomically claim the next grain-sized page range of [0, pages) and
// hand it to run until the cursor is exhausted. Worker 0 is the
// calling goroutine (it already occupies a pool slot when running as a
// task-graph node); workers 1..nWorkers-1 participate only once they
// Join the run-wide pool, so a saturated pool degrades the pass toward
// worker 0 alone instead of oversubscribing. The first real worker
// error (errDetached is completion, not failure) parks the cursor so
// every worker stops at its next morsel boundary; per-worker errors
// land in errs. Both the shared scans and the shared index probe drive
// their workers through this.
func morselDrive(env *Env, pages int64, nWorkers int, errs []error, run func(w int, fromPage, toPage int64) error) {
	grain := env.morselPages()

	var cursor atomic.Int64
	var aborted atomic.Bool
	worker := func(w int) error {
		for !aborted.Load() {
			startPage := cursor.Add(grain) - grain
			if startPage >= pages {
				return nil
			}
			endPage := startPage + grain
			if endPage > pages {
				endPage = pages
			}
			if err := run(w, startPage, endPage); err != nil {
				return err
			}
		}
		return nil
	}
	fail := func(w int, err error) {
		errs[w] = err
		if err != nil && err != errDetached {
			aborted.Store(true)
		}
	}

	pool := env.Pool
	if pool == nil {
		pool = dag.NewPool(nWorkers)
	}
	// stop releases helpers still waiting for a slot once the cursor is
	// drained (or worker 0 bailed); helpers that joined late see the
	// exhausted cursor and exit immediately.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 1; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if !pool.Join(stop) {
				return
			}
			defer pool.Leave()
			fail(w, worker(w))
		}(w)
	}
	fail(0, worker(0))
	close(stop)
	wg.Wait()
}

// morselScan drives the states over the view with the shared morsel
// cursor, decoding each claimed page range through ScanRangeBatches.
func morselScan(env *Env, view *star.View, states []any, workerStats []Stats, errs []error,
	check func(state any) error, processBatch func(state any, st *Stats, b *table.Batch)) {

	rows := view.Rows()
	tpp := int64(view.Heap.TuplesPerPage())
	if tpp < 1 {
		tpp = 1
	}
	pages := (rows + tpp - 1) / tpp
	morselDrive(env, pages, len(states), errs, func(w int, fromPage, toPage int64) error {
		st := &workerStats[w]
		from := fromPage * tpp
		to := toPage * tpp
		if to > rows {
			to = rows
		}
		return view.Heap.ScanRangeBatches(from, to, func(b *table.Batch) error {
			if err := check(states[w]); err != nil {
				return err
			}
			st.TuplesScanned += int64(b.N)
			processBatch(states[w], st, b)
			return nil
		})
	})
}

// staticScan is the legacy pre-split: one contiguous page-aligned range
// per worker (scanPartitions), every worker started unconditionally.
// Kept behind Env.StaticPartition as the straggler ablation baseline —
// a slow range parks its worker on the whole range with no stealing.
func staticScan(env *Env, view *star.View, states []any, workerStats []Stats, errs []error,
	check func(state any) error, processBatch func(state any, st *Stats, b *table.Batch)) {

	parts := scanPartitions(view.Rows(), len(states), view.Heap.TuplesPerPage())
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &workerStats[w]
			errs[w] = view.Heap.ScanRangeBatches(parts[w][0], parts[w][1],
				func(b *table.Batch) error {
					if err := check(states[w]); err != nil {
						return err
					}
					st.TuplesScanned += int64(b.N)
					processBatch(states[w], st, b)
					return nil
				})
		}(w)
	}
	wg.Wait()
}
