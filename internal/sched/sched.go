// Package sched is the admission queue that generalizes the paper's
// multi-query optimization across *independent* concurrent requests.
// The paper optimizes the related queries of one MDX expression as a
// set; this queue extends the same idea to the serving path by group
// commit. Every request goes through one Queue with a fixed number of
// runner slots. On an idle engine a request runs at once on its caller's
// goroutine as a composition of one. Requests that arrive while every
// slot is busy wait, and the next slot to free takes everything queued
// with equal options as one batch — no window, no timer. A request that
// must run alone never waits for a slot: queuing it would merge nothing.
//
// The queue knows nothing of the engine: the embedding facade supplies
// a Run callback that plans, runs and demultiplexes one batch and
// returns one reply per request, of a type of its own choosing; the
// queue only delivers them.
package sched

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
)

// ErrQueueFull is returned by Submit when the admission queue is at
// capacity — backpressure; the caller should retry later.
var ErrQueueFull = errors.New("sched: admission queue full")

// ErrStopped is returned for submissions that could not run because the
// queue was stopped.
var ErrStopped = errors.New("sched: queue stopped")

// Request is one caller's submission on its way to Run.
type Request struct {
	// Key is the submission's payload: for the facade, the expression's
	// MDX source.
	Key string
	// Ctx is the caller's context; never nil once admitted.
	Ctx context.Context
}

// Metrics counts admission activity since construction.
type Metrics struct {
	Batches     int64 // batches executed, a lone request counting as one
	Submissions int64 // submissions admitted
	Coalesced   int64 // submissions that ran in a batch with company
	Rejected    int64 // submissions refused for a full queue (ErrQueueFull)
}

const (
	// MaxBatch caps the submissions merged into one batch.
	MaxBatch = 16
	// maxQueue bounds the submissions waiting for a slot; Submit fails
	// with ErrQueueFull beyond it.
	maxQueue = 64
)

// errNoReply backstops a Run callback that returns fewer replies than
// it was given requests.
var errNoReply = errors.New("sched: batch runner delivered no reply")

// Queue admits submissions to a fixed number of runner slots by group
// commit. A submission that finds a slot free (and so, the queue empty)
// runs at once on its caller's goroutine as a batch of one. One that
// finds every slot busy waits in the queue; whenever a slot frees, it
// takes the oldest waiter together with every later waiter whose
// options equal its own, up to MaxBatch, and runs them as one batch on
// a goroutine that holds the slot until the queue is empty. No timer is
// involved: a batch is whatever queued while the slots were busy.
// Submissions flagged alone never merge, so they take no slot and never
// queue: each runs at once on its caller's goroutine. O is the embedding
// engine's per-request options type; Run receives the options of the
// batch and returns one R per request.
type Queue[O comparable, R any] struct {
	run func(reqs []Request, opts O) []R

	mu      sync.Mutex
	free    []*slot         // idle runner slots
	waiting []*waiter[O, R] // submissions queued behind busy slots, oldest first
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
type waiter[O comparable, R any] struct {
	req      Request
	opts     O
	out      *R
	err      error
	panicked any           // what Run panicked with, re-raised by Submit
	done     chan struct{} // closed once out, err or panicked is set
}

func (w *waiter[O, R]) finish(out *R, err error) {
	w.out, w.err = out, err
	close(w.done)
}

// NewQueue returns a queue with the given number of runner slots (at
// least one) that evaluates batches with run. run returns one reply per
// request, in order; the queue delivers them.
func NewQueue[O comparable, R any](slots int, run func(reqs []Request, opts O) []R) *Queue[O, R] {
	q := &Queue[O, R]{run: run, free: make([]*slot, max(slots, 1))}
	for i := range q.free {
		q.free[i] = &slot{reqs: make([]Request, 0, 1)}
	}
	return q
}

// Stop fails every queued submission with ErrStopped, refuses later
// ones, and waits for every batch already running — on a runner
// goroutine or on its caller's — to finish and deliver.
func (q *Queue[O, R]) Stop() {
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
func (q *Queue[O, R]) Metrics() Metrics {
	return Metrics{
		Batches:     q.batches.Load(),
		Submissions: q.submissions.Load(),
		Coalesced:   q.coalesced.Load(),
		Rejected:    q.rejected.Load(),
	}
}

// Submit admits one request and returns its reply once its batch has
// run. A request that finds a slot free runs on the calling goroutine
// without allocating. A queued request returns ctx's error as soon as
// ctx is done; once its batch is running, detaching it is Run's
// business. alone keeps the request out of every merged batch: it runs at
// once on the calling goroutine, slot or no slot. A full queue fails
// fast with ErrQueueFull (backpressure). If Run panics, the panic
// reaches every caller of the batch, and the slot stays usable.
func (q *Queue[O, R]) Submit(ctx context.Context, key string, opts O, alone bool) (*R, error) {
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
		return reply(q.run([]Request{req}, opts), 0)
	case len(q.free) > 0:
		s := q.free[len(q.free)-1]
		q.free = q.free[:len(q.free)-1]
		q.running.Add(1)
		q.submissions.Add(1)
		q.mu.Unlock()
		defer q.running.Done()
		defer q.release(s)
		s.reqs = append(s.reqs, req)
		return reply(q.runSlot(s, opts), 0)
	case len(q.waiting) >= maxQueue:
		q.mu.Unlock()
		q.rejected.Add(1)
		return nil, ErrQueueFull
	}
	w := &waiter[O, R]{req: req, opts: opts, done: make(chan struct{})}
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
func (q *Queue[O, R]) release(s *slot) {
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
func (q *Queue[O, R]) drive(s *slot, batch []*waiter[O, R]) {
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
// later waiter with equal options, up to MaxBatch — or nil when nothing
// waits. Callers hold q.mu.
func (q *Queue[O, R]) next() []*waiter[O, R] {
	if len(q.waiting) == 0 {
		return nil
	}
	first := q.waiting[0]
	batch := []*waiter[O, R]{first}
	rest := q.waiting[:0]
	for _, w := range q.waiting[1:] {
		if w.opts == first.opts && len(batch) < MaxBatch {
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
// the rest on slot s and delivers their replies — or, if Run panics,
// the panic, which each caller re-raises on its own goroutine.
func (q *Queue[O, R]) runBatch(s *slot, batch []*waiter[O, R]) {
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
	rs := q.runSlot(s, live[0].opts)
	for i, w := range live {
		w.finish(reply(rs, i))
	}
}

// runSlot runs the requests in slot s's buffer as one batch and empties
// the buffer, also when Run panics.
func (q *Queue[O, R]) runSlot(s *slot, opts O) []R {
	q.batches.Add(1)
	if n := len(s.reqs); n > 1 {
		q.coalesced.Add(int64(n))
	}
	defer func() { s.reqs = slices.Delete(s.reqs, 0, len(s.reqs)) }()
	return q.run(s.reqs, opts)
}

// reply picks request i's reply from a batch's, as Submit returns it.
func reply[R any](rs []R, i int) (*R, error) {
	if i >= len(rs) {
		return nil, errNoReply
	}
	return &rs[i], nil
}
