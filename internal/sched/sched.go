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
// Run callback that brackets one batch (pinning a catalog snapshot,
// building an exec.Env) and typically calls Exec, which holds the
// cross-request MQO pipeline — planning via a PlanFunc, origin
// assignment, execution with per-request contexts (a canceled caller
// detaches without aborting the shared pass for the rest), stats
// attribution, and demultiplexing. Exec serves a lone request too: an
// unbatched query is a composition of one, planned and run the same way.
package sched

import (
	"context"
	"errors"
	"slices"
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

// Request is one caller's expression on its way through Exec.
type Request struct {
	// Key identifies the expression for plan caching (the MDX source).
	Key string
	// Queries are the expression's parsed component queries; nil leaves
	// parsing Key to the PlanFunc, which need not parse at all when its
	// plan cache already holds the expression.
	Queries []*query.Query
	// Ctx is the caller's context; nil means context.Background.
	Ctx context.Context
}

// PlanFunc optimizes a composition of requests as one query set. It
// returns each request's query objects — which may be cached
// replacements for the submitted ones — and the global plan covering
// exactly those queries.
type PlanFunc func(reqs []Request) ([][]*query.Query, *plan.Global, error)

// submission is one caller's request queued at the scheduler.
type submission struct {
	Request
	res chan *Outcome // buffered; receives exactly one outcome
}

// finish delivers the submission's outcome.
func (s *submission) finish(o *Outcome) { s.res <- o }

// fail is finish with just an error.
func (s *submission) fail(err error) { s.finish(&Outcome{Err: err}) }

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
	// Run evaluates one admitted batch and returns one outcome per
	// request, in order — typically by preparing an execution
	// environment and calling Exec. The scheduler delivers them.
	Run func(batch []Request) []Outcome
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
	queue    chan *submission
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
		queue: make(chan *submission, cfg.MaxQueue),
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
	sub := &submission{Request: Request{Key: key, Queries: queries, Ctx: ctx}, res: make(chan *Outcome, 1)}
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
		var first *submission
		select {
		case first = <-s.queue:
		case <-s.stop:
			s.drain()
			return
		}
		batch := []*submission{first}
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

// runBatch drops submissions that were canceled while queued, hands the
// rest to the configured Run callback and delivers its outcomes.
func (s *Scheduler) runBatch(batch []*submission) {
	alive := batch[:0]
	for _, sub := range batch {
		select {
		case <-sub.Ctx.Done():
			sub.fail(sub.Ctx.Err())
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
	reqs := make([]Request, len(alive))
	for i, sub := range alive {
		reqs[i] = sub.Request
	}
	outs := s.cfg.Run(reqs)
	for i, sub := range alive {
		if i < len(outs) {
			sub.finish(&outs[i])
		} else {
			sub.fail(errors.New("sched: batch runner delivered no outcome"))
		}
	}
}

// Exec evaluates one composition of requests on env and returns one
// outcome per request, in order. It plans the requests as one query set
// with planFn and runs the plan once with core.Run under opts (the zero
// value runs serially). A lone request runs as it would on its own: its
// context becomes env.Ctx, so canceling it aborts the run, and its
// queries keep their plain names. Several requests get origins (their
// queries are named s1.q1, s2.q1, ...) and per-request contexts through
// env.QueryCtx: a canceled caller detaches without aborting a pass other
// callers share. Each outcome carries the request's results, attributed
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
				q.Origin = i + 1
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
		origin := i + 1
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
