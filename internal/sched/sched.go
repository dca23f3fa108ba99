// Package sched is the admission layer that generalizes the paper's
// multi-query optimization across *independent* concurrent requests.
// The paper optimizes the related queries of one MDX expression as a
// set; this layer extends the same idea to the serving path by group
// commit. Every request goes through one Queue with a fixed number of
// runner slots. On an idle engine a request runs at once on its caller's
// goroutine as a composition of one. Requests that arrive while every
// slot is busy wait, and the next slot to free takes everything queued
// with equal options as one batch — no window, no timer. A request that
// must run alone never waits for a slot: queuing it would merge nothing.
// A batch's
// cross-request query set is optimized into one global plan, the merged
// shared passes execute once, and per-request results, stats and
// sharing information are demultiplexed back to each waiting caller.
//
// The queue is engine-agnostic: the embedding facade supplies a Run
// callback that brackets one batch (pinning a catalog snapshot,
// building an exec.Env) and typically calls Exec, which holds the
// cross-request MQO pipeline — planning via a PlanFunc, execution with
// per-request contexts (a canceled caller detaches without aborting the
// shared pass for the rest), stats attribution, and demultiplexing.
package sched

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"mdxopt/internal/core"
	"mdxopt/internal/exec"
	"mdxopt/internal/plan"
	"mdxopt/internal/query"
)

// ErrQueueFull is returned by Submit when the admission queue is at
// capacity — backpressure; the caller should retry later.
var ErrQueueFull = errors.New("sched: admission queue full")

// ErrStopped is returned for submissions that could not run because the
// queue was stopped.
var ErrStopped = errors.New("sched: queue stopped")

// Request is one caller's expression on its way through Exec.
type Request struct {
	// Key is the expression's MDX source; the PlanFunc parses it, or
	// finds its plan cached.
	Key string
	// Ctx is the caller's context; nil means context.Background.
	Ctx context.Context
}

// PlanFunc optimizes a composition of requests as one query set. It
// returns each request's query objects — which may be shared with other
// runs of the same composition through a plan cache — and the global
// plan covering exactly those queries. For two or more requests, every
// query of a request carries that request's Origin: distinct, nonzero,
// and fixed when the composition was planned, so Exec only reads it.
type PlanFunc func(reqs []Request) ([][]*query.Query, *plan.Global, error)

// Outcome is what one request gets back from Exec.
type Outcome struct {
	// Queries are the query objects the answer is keyed by — the
	// submitted ones, or cached replacements (see PlanFunc). Results
	// and PerQuery are parallel to it.
	Queries []*query.Query
	Results []*exec.Result
	// PerQuery is each query's attributed work: its non-shared work
	// exactly plus an equal share of its class's shared work.
	PerQuery []exec.Stats
	// Stats is the request's work: the whole run's when the request ran
	// alone, otherwise the sum of its PerQuery.
	Stats exec.Stats
	// Classes are the per-class breakdowns of the passes this request
	// participated in (other requests' queries may appear in them,
	// origin-qualified).
	Classes []core.ClassStat
	// Cached are the plan's cache rollups that serve this request's
	// queries.
	Cached []*plan.CachePlan
	// Plan is the whole global plan in the paper's notation.
	Plan string
	// BatchSize is how many requests the plan merged.
	BatchSize int
	// DAGNodes is how many task-graph nodes the plan compiled to.
	// WorkerPeak is the unified pool's concurrency peak — nodes plus
	// scan-morsel workers (1 under the serial executor).
	// EffectiveWorkers is the clamped pool width the run used. Whole-run
	// properties, repeated per request.
	DAGNodes         int
	WorkerPeak       int
	EffectiveWorkers int
	// SharedWith counts the other requests whose queries shared at
	// least one pass (class) with this one's; 0 means every pass was
	// private even if the query was batched.
	SharedWith int
	// SnapshotEpoch is the catalog snapshot epoch the run executed
	// against: every result reflects exactly that published catalog
	// state, regardless of mutations in flight.
	SnapshotEpoch uint64
	// Err, when set, voids the rest of the outcome.
	Err error
}

// Metrics counts admission activity since construction.
type Metrics struct {
	Batches     int64 // batches executed, a lone request counting as one
	Submissions int64 // submissions admitted
	Coalesced   int64 // submissions that ran in a batch with company
	Rejected    int64 // submissions refused for a full queue (ErrQueueFull)
}

const (
	// maxBatch caps the submissions merged into one batch.
	maxBatch = 16
	// maxQueue bounds the submissions waiting for a slot; Submit fails
	// with ErrQueueFull beyond it.
	maxQueue = 64
)

// errNoOutcome backstops a Run callback that returns fewer outcomes
// than it was given requests.
var errNoOutcome = errors.New("sched: batch runner delivered no outcome")

// Queue admits submissions to a fixed number of runner slots by group
// commit. A submission that finds a slot free (and so, the queue empty)
// runs at once on its caller's goroutine as a batch of one. One that
// finds every slot busy waits in the queue; whenever a slot frees, it
// takes the oldest waiter together with every later waiter whose
// options equal its own, up to maxBatch, and runs them as one batch on
// a goroutine that holds the slot until the queue is empty. No timer is
// involved: a batch is whatever queued while the slots were busy.
// Submissions flagged alone never merge, so they take no slot and never
// queue: each runs at once on its caller's goroutine. O is the embedding
// engine's per-request options type; Run receives the options of the
// batch.
type Queue[O comparable] struct {
	run func(reqs []Request, opts O) []Outcome

	mu      sync.Mutex
	free    []*slot      // idle runner slots
	waiting []*waiter[O] // submissions queued behind busy slots, oldest first
	stopped bool
	running sync.WaitGroup // batches running, on a caller or a runner goroutine

	batches     atomic.Int64
	submissions atomic.Int64
	coalesced   atomic.Int64
	rejected    atomic.Int64
}

// slot is one runner slot; reqs is its reused batch buffer.
type slot struct{ reqs []Request }

// waiter is one submission queued behind busy slots.
type waiter[O comparable] struct {
	req      Request
	opts     O
	out      *Outcome
	err      error
	panicked any           // what Run panicked with, re-raised by Submit
	done     chan struct{} // closed once out, err or panicked is set
}

func (w *waiter[O]) finish(out *Outcome, err error) {
	w.out, w.err = out, err
	close(w.done)
}

// NewQueue returns a queue with the given number of runner slots (at
// least one) that evaluates batches with run. run returns one outcome
// per request, in order — typically by preparing an execution
// environment and calling Exec; the queue delivers them.
func NewQueue[O comparable](slots int, run func(reqs []Request, opts O) []Outcome) *Queue[O] {
	q := &Queue[O]{run: run, free: make([]*slot, max(slots, 1))}
	for i := range q.free {
		q.free[i] = &slot{reqs: make([]Request, 0, 1)}
	}
	return q
}

// Stop fails every queued submission with ErrStopped, refuses later
// ones, and waits for every batch already running — on a runner
// goroutine or on its caller's — to finish and deliver.
func (q *Queue[O]) Stop() {
	q.mu.Lock()
	q.stopped = true
	waiting := q.waiting
	q.waiting = nil
	q.mu.Unlock()
	for _, w := range waiting {
		w.finish(nil, ErrStopped)
	}
	q.running.Wait()
}

// Metrics returns a snapshot of the queue's counters.
func (q *Queue[O]) Metrics() Metrics {
	return Metrics{
		Batches:     q.batches.Load(),
		Submissions: q.submissions.Load(),
		Coalesced:   q.coalesced.Load(),
		Rejected:    q.rejected.Load(),
	}
}

// Submit admits one request and returns its outcome once its batch has
// run. A request that finds a slot free runs on the calling goroutine
// without allocating. A queued request returns ctx's error as soon as
// ctx is done; if its batch is already running, the batch detaches it
// (Exec's per-request contexts) without aborting the pass for the
// others. alone keeps the request out of every merged batch: it runs at
// once on the calling goroutine, slot or no slot. A full queue fails
// fast with ErrQueueFull (backpressure). If Run panics, the panic
// reaches every caller of the batch, and the slot stays usable.
func (q *Queue[O]) Submit(ctx context.Context, key string, opts O, alone bool) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req := Request{Key: key, Ctx: ctx}
	q.mu.Lock()
	switch {
	case q.stopped:
		q.mu.Unlock()
		return nil, ErrStopped
	case alone:
		q.running.Add(1)
		q.submissions.Add(1)
		q.mu.Unlock()
		defer q.running.Done()
		q.batches.Add(1)
		return outcome(q.run([]Request{req}, opts), 0)
	case len(q.free) > 0:
		s := q.free[len(q.free)-1]
		q.free = q.free[:len(q.free)-1]
		q.running.Add(1)
		q.submissions.Add(1)
		q.mu.Unlock()
		defer q.running.Done()
		defer q.release(s)
		s.reqs = append(s.reqs, req)
		return outcome(q.runSlot(s, opts), 0)
	case len(q.waiting) >= maxQueue:
		q.mu.Unlock()
		q.rejected.Add(1)
		return nil, ErrQueueFull
	}
	w := &waiter[O]{req: req, opts: opts, done: make(chan struct{})}
	q.waiting = append(q.waiting, w)
	q.submissions.Add(1)
	q.mu.Unlock()
	select {
	case <-w.done:
		if w.panicked != nil {
			panic(w.panicked)
		}
		return w.out, w.err
	case <-ctx.Done():
		q.mu.Lock()
		if i := slices.Index(q.waiting, w); i >= 0 {
			q.waiting = slices.Delete(q.waiting, i, i+1)
		}
		q.mu.Unlock()
		return nil, ctx.Err()
	}
}

// release hands a freed slot to the next queued batch, on a new
// goroutine so the caller that freed it returns at once, or marks it
// idle.
func (q *Queue[O]) release(s *slot) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if batch := q.next(); batch != nil {
		q.running.Add(1)
		go q.drive(s, batch)
		return
	}
	q.free = append(q.free, s)
}

// drive runs queued batches on slot s until the queue is empty.
func (q *Queue[O]) drive(s *slot, batch []*waiter[O]) {
	defer q.running.Done()
	for batch != nil {
		q.runBatch(s, batch)
		q.mu.Lock()
		if batch = q.next(); batch == nil {
			q.free = append(q.free, s)
		}
		q.mu.Unlock()
	}
}

// next removes and returns the next batch — the oldest waiter and every
// later waiter with equal options, up to maxBatch — or nil when nothing
// waits. Callers hold q.mu.
func (q *Queue[O]) next() []*waiter[O] {
	if len(q.waiting) == 0 {
		return nil
	}
	first := q.waiting[0]
	batch := []*waiter[O]{first}
	rest := q.waiting[:0]
	for _, w := range q.waiting[1:] {
		if w.opts == first.opts && len(batch) < maxBatch {
			batch = append(batch, w)
		} else {
			rest = append(rest, w)
		}
	}
	clear(q.waiting[len(rest):])
	q.waiting = rest
	return batch
}

// runBatch drops waiters whose context ended while they queued, runs
// the rest on slot s and delivers their outcomes — or, if Run panics,
// the panic, which each caller re-raises on its own goroutine.
func (q *Queue[O]) runBatch(s *slot, batch []*waiter[O]) {
	live := batch[:0]
	for _, w := range batch {
		if err := w.req.Ctx.Err(); err != nil {
			w.finish(nil, err)
			continue
		}
		live = append(live, w)
		s.reqs = append(s.reqs, w.req)
	}
	if len(live) == 0 {
		return
	}
	defer func() {
		if p := recover(); p != nil {
			for _, w := range live {
				w.panicked = p
				close(w.done)
			}
		}
	}()
	outs := q.runSlot(s, live[0].opts)
	for i, w := range live {
		w.finish(outcome(outs, i))
	}
}

// runSlot runs the requests in slot s's buffer as one batch and empties
// the buffer, also when Run panics.
func (q *Queue[O]) runSlot(s *slot, opts O) []Outcome {
	q.batches.Add(1)
	if n := len(s.reqs); n > 1 {
		q.coalesced.Add(int64(n))
	}
	defer func() { s.reqs = slices.Delete(s.reqs, 0, len(s.reqs)) }()
	return q.run(s.reqs, opts)
}

// outcome picks request i's outcome from a batch's, as Submit returns
// it.
func outcome(outs []Outcome, i int) (*Outcome, error) {
	switch {
	case i >= len(outs):
		return nil, errNoOutcome
	case outs[i].Err != nil:
		return nil, outs[i].Err
	}
	return &outs[i], nil
}

// Exec evaluates one composition of requests on env and returns one
// outcome per request, in order. It plans the requests as one query set
// with planFn and runs the plan once with core.Run under opts (the zero
// value runs serially). A lone request runs as it would on its own: its
// context becomes env.Ctx, so canceling it aborts the run, and its
// queries keep their plain names. Several requests carry the origins
// planFn gave them (their queries are named s1.q1, s2.q1, ...) and get
// per-request contexts through env.QueryCtx: a canceled caller detaches
// without aborting a pass other callers share. Exec never writes to the
// query objects, so runs of one cached composition may overlap. Each
// outcome carries the request's results, attributed
// stats and the passes it took part in. If planning several requests
// fails, each is re-planned and run on its own so one infeasible
// request cannot sink its batch mates.
func Exec(env *exec.Env, planFn PlanFunc, reqs []Request, opts core.ExecOptions) []Outcome {
	outs := make([]Outcome, len(reqs))
	perReq, g, err := planFn(reqs)
	if err != nil {
		if len(reqs) == 1 {
			outs[0].Err = err
			return outs
		}
		for i := range reqs {
			outs[i] = Exec(env, planFn, reqs[i:i+1], opts)[0]
		}
		return outs
	}

	var queries []*query.Query
	if len(reqs) == 1 {
		queries = perReq[0]
		env.Ctx = reqs[0].Ctx
	} else {
		ctxOf := make(map[*query.Query]context.Context)
		for i, qs := range perReq {
			for _, q := range qs {
				ctxOf[q] = reqs[i].Ctx
				queries = append(queries, q)
			}
		}
		env.QueryCtx = func(q *query.Query) context.Context { return ctxOf[q] }
		defer func() { env.QueryCtx = nil }()
	}

	var pass exec.Stats
	ex, err := core.Run(env, g, queries, &pass, opts)
	if err != nil {
		for i := range outs {
			outs[i].Err = err
		}
		return outs
	}

	planText := g.Describe()
	var epoch uint64
	if env.DB != nil {
		epoch = env.DB.Epoch
	}
	// ex.Classes covers g.Classes followed by one entry per cache-served
	// query; origin-index both so cache rollups demultiplex like classes.
	var classOrigins [][]int
	if len(reqs) > 1 {
		classOrigins = make([][]int, len(ex.Classes))
		for ci, c := range g.Classes {
			classOrigins[ci] = c.Origins()
		}
		for i, cp := range g.Cached {
			classOrigins[len(g.Classes)+i] = []int{cp.Query.Origin}
		}
	}
	offset := 0
	for i, qs := range perReq {
		o := &outs[i]
		*o = Outcome{
			Queries:          qs,
			Results:          ex.Results[offset : offset+len(qs)],
			PerQuery:         ex.PerQuery[offset : offset+len(qs)],
			Plan:             planText,
			BatchSize:        len(reqs),
			DAGNodes:         ex.DAGNodes,
			WorkerPeak:       ex.WorkerPeak,
			EffectiveWorkers: ex.EffectiveWorkers,
			SnapshotEpoch:    epoch,
		}
		offset += len(qs)
		if err := resultErr(o.Results); err != nil {
			*o = Outcome{Err: err}
			continue
		}
		if len(reqs) == 1 {
			o.Stats, o.Classes, o.Cached = pass, ex.Classes, g.Cached
			continue
		}
		for _, s := range o.PerQuery {
			o.Stats.Add(s)
		}
		origin := qs[0].Origin
		others := map[int]bool{}
		for ci, origins := range classOrigins {
			if !slices.Contains(origins, origin) {
				continue
			}
			o.Classes = append(o.Classes, ex.Classes[ci])
			for _, og := range origins {
				if og != origin {
					others[og] = true
				}
			}
		}
		o.SharedWith = len(others)
		for _, cp := range g.Cached {
			if cp.Query.Origin == origin {
				o.Cached = append(o.Cached, cp)
			}
		}
	}
	return outs
}

// resultErr returns the first error among a request's results: a
// detached query's context error.
func resultErr(rs []*exec.Result) error {
	for _, r := range rs {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
