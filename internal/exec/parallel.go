package exec

import (
	"context"
	"sync"
	"sync/atomic"
)

// Parallel shared passes.
//
// Every aggregate this engine supports is decomposable, so a shared pass
// can be split across independent workers — each with its own
// aggregation tables but sharing the read-only dimension lookups and
// filter bitmaps — and the per-worker tables combined afterwards. This
// parallelizes exactly the per-tuple CPU the paper's Test 1 identifies
// as the irreducible cost of the shared scan.
//
// The split is morsel-driven and the same in both regimes of the page
// loop (route.go): workers claim page-aligned morsels from a shared
// atomic cursor (poolDrive), so a worker that lands on slow pages simply
// claims fewer morsels while its siblings absorb the rest — no static
// pre-split, no straggler. The pass's own goroutine is always worker 0
// and folds into the pass's own pipelines. Extra workers run only while
// they hold a slot of the Pool (Env.Pool) whose width sets their
// number, the same pool a run's task lists are claimed on (RunTasks),
// so intra-class fan-out and inter-class concurrency are bounded by
// one width. After the pass the worker tables are finalized key range
// by key range on the same pool (finalize.go).
//
// Determinism: morsel assignment is racy, but finalization combines
// worker tables in a fixed order (finalize.go) and the measures sum
// exactly in float64, so results and the deterministic work counters
// are byte-identical at every width to the serial pass.

// defaultMorselPages is the pages-per-morsel grain: big enough that the
// shared cursor is touched once per ~dozens of pages, small enough that
// a skewed page-cost tail is spread across all workers.
const defaultMorselPages = 16

// scanWidth is the worker fan-out of one shared pass: the pool's width
// (already clamped to WorkerCap), 1 without a pool.
func (e *Env) scanWidth() int { return e.Pool.Width() }

// morselPages resolves the pages-per-morsel grain.
func (e *Env) morselPages() int64 {
	if e.MorselPages > 0 {
		return int64(e.MorselPages)
	}
	return defaultMorselPages
}

// addWorker adds pipeline o of worker w, same root member, to p: o's
// own work, and its table as finalization source w (the tables are
// combined key range by key range, finalize.go).
func (p *queryPipeline) addWorker(o *queryPipeline, w int) error {
	if o.ioErr != nil {
		return o.ioErr
	}
	p.own.Add(o.own)
	p.ftab.fin.src[w].t = o.ftab
	return nil
}

// drive is the shared state of one poolDrive.
type drive struct {
	n, grain int64
	run      func(w int, from, to int64) error
	// abort, when set, is called once by the worker whose error stops
	// the drive, before any sibling can see that error's effects.
	abort   func()
	cursor  atomic.Int64
	aborted atomic.Bool
	err     error // the first real error, written by whoever set aborted
	stop    chan struct{}
	wg      sync.WaitGroup
}

// poolDrive is the shared work-claiming driver — page morsels for the
// shared pass, single tasks for finalization and for a run's task lists
// (RunTasks): nWorkers workers atomically claim the next grain-sized
// range of [0, n) and hand it to run until the cursor is exhausted.
// Worker 0 is the calling goroutine (it already occupies a pool slot);
// workers 1..nWorkers-1 participate only once they join env.Pool, so a
// saturated pool degrades the work toward worker 0 alone instead of
// oversubscribing. nWorkers may exceed 1 only with a pool; at one
// worker the ranges run inline, in order, without allocating. The first
// real error — errDetached stops only the worker that returned it —
// parks the cursor and is returned.
func poolDrive(env *Env, n, grain int64, nWorkers int, run func(w int, from, to int64) error) error {
	if nWorkers <= 1 {
		for from := int64(0); from < n; from += grain {
			if err := run(0, from, min(from+grain, n)); err != nil {
				if err == errDetached {
					return nil
				}
				return err
			}
		}
		return nil
	}
	return (&drive{n: n, grain: grain, run: run}).start(env.Pool, nWorkers)
}

// start runs the drive on nWorkers workers, the caller being worker 0.
func (d *drive) start(pool *Pool, nWorkers int) error {
	d.stop = make(chan struct{})
	for w := 1; w < nWorkers; w++ {
		d.wg.Add(1)
		go d.help(pool, w)
	}
	d.work(0)
	// stop releases helpers still waiting for a slot once the cursor is
	// drained (or worker 0 bailed); helpers that joined late see the
	// exhausted cursor and exit immediately.
	close(d.stop)
	d.wg.Wait()
	return d.err
}

// help runs worker w once it holds a pool slot.
func (d *drive) help(pool *Pool, w int) {
	defer d.wg.Done()
	if !pool.join(d.stop) {
		return
	}
	defer pool.leave()
	d.work(w)
}

// work claims ranges for worker w until the cursor runs out, the worker
// detaches, or some worker fails.
func (d *drive) work(w int) {
	for !d.aborted.Load() {
		from := d.cursor.Add(d.grain) - d.grain
		if from >= d.n {
			return
		}
		if err := d.run(w, from, min(from+d.grain, d.n)); err != nil {
			if err != errDetached && d.aborted.CompareAndSwap(false, true) {
				d.err = err
				if d.abort != nil {
					d.abort()
				}
			}
			return
		}
	}
}

// RunTasks runs task(ctx, i) for every i in [0, n) as one task list on
// pool. At width 1 the tasks run inline, in order, under ctx itself: no
// goroutine, no derived context. Wider, the caller holds a pool slot as
// worker 0 for the whole list and up to width-1 helpers join it, each
// claiming the next task (poolDrive), so the tasks and the morsel
// helpers they fan out draw on one width. A task starts only while ctx
// is live. The first error cancels the context the tasks run under —
// unstarted tasks are skipped and in-flight ones see the cancellation
// — and is returned once every started task has finished, so callers
// may tear down what the tasks shared as soon as RunTasks returns.
func RunTasks(ctx context.Context, pool *Pool, n int, task func(ctx context.Context, i int) error) error {
	if pool.Width() <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := task(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	if n == 0 {
		return nil
	}
	pool.join(nil)
	defer pool.leave()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	d := &drive{n: int64(n), grain: 1, abort: cancel, run: func(_ int, i, _ int64) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return task(ctx, int(i))
	}}
	return d.start(pool, min(pool.Width(), n))
}

// poolTasks runs task(i) for every i in [0, n) — inline at width 1,
// otherwise claimed one at a time by the pass's pool workers — and
// returns the first error.
func poolTasks(env *Env, n int, task func(i int) error) error {
	width := min(env.scanWidth(), n)
	if width <= 1 {
		for i := 0; i < n; i++ {
			if err := task(i); err != nil {
				return err
			}
		}
		return nil
	}
	return poolDrive(env, int64(n), 1, width, func(_ int, i, _ int64) error { return task(int(i)) })
}
