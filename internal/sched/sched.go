// Package sched implements the admission scheduler that generalizes
// the paper's multi-query optimization across *independent* concurrent
// requests. The paper optimizes the related queries of one MDX
// expression as a set; this layer extends the same idea to the serving
// path: submissions from concurrent callers are collected into a batch
// (a short batching window, bounded batch size, backpressure when the
// admission queue is full), the whole cross-request query set is
// optimized into one global plan, the merged shared passes execute
// once, and per-submission results, stats and sharing information are
// demultiplexed back to each waiting caller.
//
// The scheduler is engine-agnostic: the embedding facade supplies a
// Run callback that brackets one batch (locking against mutations,
// building an exec.Env) and typically calls Exec, which holds the
// cross-request MQO pipeline — origin assignment, planning via a
// PlanFunc, execution with per-submission contexts (a canceled caller
// detaches without aborting the shared pass for the rest), stats
// attribution, and demultiplexing.
package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"mdxopt/internal/core"
	"mdxopt/internal/exec"
	"mdxopt/internal/plan"
	"mdxopt/internal/query"
)

// ErrQueueFull is returned by Submit when the admission queue is at
// capacity — backpressure; the caller should retry later.
var ErrQueueFull = errors.New("sched: admission queue full")

// ErrStopped is returned for submissions that could not run because the
// scheduler was stopped.
var ErrStopped = errors.New("sched: scheduler stopped")

// PlanFunc optimizes a merged cross-request query set. subQueries holds
// each submission's queries; keys are the submissions' cache keys (the
// MDX sources), letting implementations cache plans by batch
// composition. It returns the per-submission query objects the plan was
// built over — which may be cached replacements for the submitted ones —
// and the global plan covering exactly those queries.
type PlanFunc func(subQueries [][]*query.Query, keys []string) ([][]*query.Query, *plan.Global, error)

// Submission is one caller's request travelling through the scheduler.
type Submission struct {
	// Key identifies the request for plan caching (the MDX source).
	Key string
	// Queries are the request's parsed component queries.
	Queries []*query.Query

	ctx      context.Context
	res      chan *Outcome
	finished bool
}

// Context returns the caller's context (never nil).
func (b *Submission) Context() context.Context { return b.ctx }

// Finish delivers the submission's outcome; only the first call counts.
func (b *Submission) Finish(o *Outcome) {
	if b.finished {
		return
	}
	b.finished = true
	b.res <- o
}

// fail is Finish with just an error.
func (b *Submission) fail(err error) { b.Finish(&Outcome{Err: err}) }

// Outcome is what one submission gets back from its batch.
type Outcome struct {
	// Queries are the query objects the answer is keyed by — the
	// submitted ones, or cached replacements (see PlanFunc). Results
	// and PerQuery are parallel to it.
	Queries []*query.Query
	Results []*exec.Result
	// PerQuery is each query's attributed work: its non-shared work
	// exactly plus an equal share of its class's shared work.
	PerQuery []exec.Stats
	// Classes are the per-class breakdowns of the passes this
	// submission participated in (other submissions' queries may appear
	// in them, origin-qualified).
	Classes []core.ClassStat
	// Plan is the whole batch's global plan in the paper's notation.
	Plan string
	// BatchSize is how many submissions the merged batch held.
	BatchSize int
	// DAGNodes is how many task-graph nodes the batch's plan compiled
	// to. WorkerPeak is the unified pool's concurrency peak — nodes plus
	// scan-morsel workers (1 under the serial executor).
	// EffectiveWorkers is the clamped pool width the batch ran at.
	// Whole-batch properties, repeated per submission.
	DAGNodes         int
	WorkerPeak       int
	EffectiveWorkers int
	// SharedWith counts the other submissions whose queries shared at
	// least one pass (class) with this one's; 0 means every pass was
	// private even if the query was batched.
	SharedWith int
	// SnapshotEpoch is the catalog snapshot epoch the batch executed
	// against: every result in the batch reflects exactly that
	// published catalog state, regardless of mutations in flight.
	SnapshotEpoch uint64
	// Err, when set, voids the rest of the outcome.
	Err error
}

// Metrics counts scheduler activity since construction.
type Metrics struct {
	Batches     int64 // batches executed
	Submissions int64 // submissions admitted
	Coalesced   int64 // submissions that ran in a batch with company
	Rejected    int64 // submissions refused for a full queue
}

// Config parameterizes a Scheduler.
type Config struct {
	// Window is how long the scheduler keeps collecting submissions
	// after the first one arrives before running the batch (default
	// 3ms). Longer windows merge more concurrent work at the price of
	// added latency for the first arrival.
	Window time.Duration
	// MaxBatch caps the submissions merged into one batch; a full batch
	// runs immediately without waiting out the window (default 16).
	MaxBatch int
	// MaxQueue bounds the admission queue; Submit fails with
	// ErrQueueFull beyond it (default 64).
	MaxQueue int
	// Run evaluates one admitted batch and must deliver an outcome to
	// every submission — typically by preparing an execution
	// environment and calling Exec.
	Run func(batch []*Submission)
}

func (c *Config) applyDefaults() {
	if c.Window <= 0 {
		c.Window = 3 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
}

// Scheduler admits concurrent submissions into merged batches.
type Scheduler struct {
	cfg      Config
	queue    chan *Submission
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	batches     atomic.Int64
	submissions atomic.Int64
	coalesced   atomic.Int64
	rejected    atomic.Int64
}

// New starts a scheduler. cfg.Run is required.
func New(cfg Config) *Scheduler {
	if cfg.Run == nil {
		panic("sched: Config.Run is required")
	}
	cfg.applyDefaults()
	s := &Scheduler{
		cfg:   cfg,
		queue: make(chan *Submission, cfg.MaxQueue),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go s.loop()
	return s
}

// Stop shuts the scheduler down and waits for the admission loop to
// exit; queued submissions fail with ErrStopped.
func (s *Scheduler) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// Metrics returns a snapshot of the scheduler's counters.
func (s *Scheduler) Metrics() Metrics {
	return Metrics{
		Batches:     s.batches.Load(),
		Submissions: s.submissions.Load(),
		Coalesced:   s.coalesced.Load(),
		Rejected:    s.rejected.Load(),
	}
}

// Submit enqueues one request and blocks until its batch delivers an
// outcome, the caller's context is done, or the scheduler stops. A full
// admission queue fails fast with ErrQueueFull (backpressure).
func (s *Scheduler) Submit(ctx context.Context, key string, queries []*query.Query) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-s.stop:
		return nil, ErrStopped
	default:
	}
	sub := &Submission{Key: key, Queries: queries, ctx: ctx, res: make(chan *Outcome, 1)}
	select {
	case s.queue <- sub:
		s.submissions.Add(1)
	default:
		s.rejected.Add(1)
		return nil, ErrQueueFull
	}
	select {
	case out := <-sub.res:
		if out.Err != nil {
			return nil, out.Err
		}
		return out, nil
	case <-ctx.Done():
		// The batch will notice via the per-query context and detach
		// this submission's pipelines without aborting the pass for
		// the other callers.
		return nil, ctx.Err()
	case <-s.done:
		return nil, ErrStopped
	}
}

// loop is the admission loop: wait for a first submission, collect
// company until the window closes or the batch fills, run, repeat.
func (s *Scheduler) loop() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			s.drain()
			return
		default:
		}
		var first *Submission
		select {
		case first = <-s.queue:
		case <-s.stop:
			s.drain()
			return
		}
		batch := []*Submission{first}
		timer := time.NewTimer(s.cfg.Window)
	collect:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case sub := <-s.queue:
				batch = append(batch, sub)
			case <-timer.C:
				break collect
			case <-s.stop:
				break collect
			}
		}
		timer.Stop()
		s.runBatch(batch)
	}
}

// drain fails everything still queued after a stop.
func (s *Scheduler) drain() {
	for {
		select {
		case sub := <-s.queue:
			sub.fail(ErrStopped)
		default:
			return
		}
	}
}

// runBatch drops submissions that were canceled while queued and hands
// the rest to the configured Run callback.
func (s *Scheduler) runBatch(batch []*Submission) {
	alive := batch[:0]
	for _, sub := range batch {
		select {
		case <-sub.ctx.Done():
			sub.fail(sub.ctx.Err())
		default:
			alive = append(alive, sub)
		}
	}
	if len(alive) == 0 {
		return
	}
	s.batches.Add(1)
	if len(alive) > 1 {
		s.coalesced.Add(int64(len(alive)))
	}
	s.cfg.Run(alive)
	for _, sub := range alive {
		if !sub.finished {
			sub.fail(errors.New("sched: batch runner delivered no outcome"))
		}
	}
}

// AdmitFunc gates an optimized batch's execution on resource
// availability. It is called after planning — when the batch's
// footprint can be estimated from the global plan — and may block
// (deferring the batch) until resources free up; ctx bounds the wait.
// The returned release function is called when the batch finishes. The
// memory-governed facade implements it with plan.Estimator.GlobalMemory
// and mem.Broker.Admit: saturation defers batches, it never errors
// them.
type AdmitFunc func(ctx context.Context, g *plan.Global) (release func(), err error)

// Exec evaluates one admitted batch on env: it assigns submission
// origins, plans the merged cross-request query set with planFn, admits
// the planned batch via admit (nil = always admit), runs the shared
// passes once with per-submission contexts (a canceled caller detaches
// without aborting a pass other callers share), attributes stats, and
// delivers an Outcome to every submission. If planning the merged set
// fails, each submission is re-planned and run on its own so one
// infeasible request cannot sink its batch mates. opts configures the
// task-graph executor (core.Run); the zero value runs serially.
func Exec(env *exec.Env, planFn PlanFunc, admit AdmitFunc, subs []*Submission, opts core.ExecOptions) {
	subQ := make([][]*query.Query, len(subs))
	keys := make([]string, len(subs))
	for i, sub := range subs {
		subQ[i] = sub.Queries
		keys[i] = sub.Key
	}
	perSub, g, err := planFn(subQ, keys)
	if err != nil {
		if len(subs) == 1 {
			subs[0].fail(err)
			return
		}
		for _, sub := range subs {
			Exec(env, planFn, admit, []*Submission{sub}, opts)
		}
		return
	}

	if admit != nil {
		ctx := env.Ctx
		if ctx == nil {
			ctx = context.Background()
		}
		release, err := admit(ctx, g)
		if err != nil {
			for _, sub := range subs {
				sub.fail(err)
			}
			return
		}
		defer release()
	}

	ctxOf := make(map[*query.Query]context.Context)
	var merged []*query.Query
	for si, qs := range perSub {
		for _, q := range qs {
			q.Origin = si + 1
			ctxOf[q] = subs[si].ctx
			merged = append(merged, q)
		}
	}
	env.QueryCtx = func(q *query.Query) context.Context { return ctxOf[q] }
	defer func() { env.QueryCtx = nil }()

	var pass exec.Stats
	ex, err := core.Run(env, g, merged, &pass, opts)
	if err != nil {
		for _, sub := range subs {
			sub.fail(err)
		}
		return
	}
	results, classStats, perQuery := ex.Results, ex.Classes, ex.PerQuery

	planText := g.Describe()
	var epoch uint64
	if env.DB != nil {
		epoch = env.DB.Epoch
	}
	// classStats covers g.Classes followed by one entry per cache-served
	// query; origin-index both so cache rollups demultiplex like classes.
	classOrigins := make([][]int, len(classStats))
	for ci, c := range g.Classes {
		classOrigins[ci] = c.Origins()
	}
	for i, cp := range g.Cached {
		classOrigins[len(g.Classes)+i] = []int{cp.Query.Origin}
	}
	offset := 0
	for si, sub := range subs {
		qs := perSub[si]
		o := &Outcome{
			Queries:          qs,
			Results:          results[offset : offset+len(qs)],
			PerQuery:         perQuery[offset : offset+len(qs)],
			Plan:             planText,
			BatchSize:        len(subs),
			DAGNodes:         ex.DAGNodes,
			WorkerPeak:       ex.WorkerPeak,
			EffectiveWorkers: ex.EffectiveWorkers,
			SnapshotEpoch:    epoch,
		}
		offset += len(qs)
		var ferr error
		for _, r := range o.Results {
			if r.Err != nil {
				ferr = r.Err
				break
			}
		}
		if ferr != nil {
			sub.fail(ferr)
			continue
		}
		origin := si + 1
		others := map[int]bool{}
		for ci := range classStats {
			mine := false
			for _, og := range classOrigins[ci] {
				if og == origin {
					mine = true
					break
				}
			}
			if !mine {
				continue
			}
			o.Classes = append(o.Classes, classStats[ci])
			for _, og := range classOrigins[ci] {
				if og != origin {
					others[og] = true
				}
			}
		}
		o.SharedWith = len(others)
		sub.Finish(o)
	}
}
