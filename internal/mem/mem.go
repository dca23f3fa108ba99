// Package mem implements the process-wide memory broker that governs
// the memory occupied by operator state — dimension lookup tables,
// result bitmaps, and aggregation hash tables — across every query the
// engine is running at once.
//
// The paper's shared operators (§3) assume all of that state fits in
// memory; under heavy concurrent traffic it does not. The broker makes
// the footprint explicit: every allocator of operator state registers a
// Reservation and grows it before allocating. Three grant disciplines
// cover the three kinds of state:
//
//   - TryGrow is a *refusable* grant: it fails when the budget is
//     exhausted, and the caller degrades gracefully. The aggregation
//     tables use it — a denied grant triggers a grace-hash partitioned
//     spill to disk (see internal/exec).
//   - MustGrow is an *overdraft* grant for state the plan cannot run
//     without (dimension lookups, result bitmaps, spill page buffers):
//     it always succeeds but is tracked, and the bytes granted past the
//     budget are reported as Overdraft so the planner's admission
//     estimates can be audited.
//   - Admit is an *admission claim* the task-graph executor takes
//     before each plan node starts: when the node's estimated footprint
//     does not fit, the node is deferred — blocked, not refused — until
//     running work releases memory. Deferred claims are granted in
//     strict FIFO order, so a large claim is never starved by a stream
//     of small ones: once it is the oldest waiter every newcomer queues
//     behind it, admitted work drains, and at the latest the idle broker
//     grants it. A claim on an idle broker — one with no unreleased
//     admission claim, whatever bytes standing reservations hold —
//     always succeeds, even past the limit, so a node larger than the
//     whole budget still runs (relying on the operators' spill paths to
//     stay within it).
//
// Brokers nest: Child creates a broker whose reservations are also
// charged to the parent, giving per-request caps under one global
// budget; its denials and deferrals are counted on the parent too. A
// Broker with limit 0 tracks usage without enforcing one.
// All methods are safe for concurrent use, and a nil *Reservation is a
// valid no-op reservation (used when governance is disabled).
package mem

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Broker arbitrates a byte budget among reservations and admission
// claims.
type Broker struct {
	parent *Broker

	limit int64 // 0 = track only, no enforcement

	mu        sync.Mutex
	used      int64          // bytes held by reservations
	peak      int64          // high-water mark of used
	claimed   int64          // bytes held by admission claims
	claims    int            // admission claims granted and not yet released
	overdraft int64          // bytes granted past the limit by MustGrow
	denied    int64          // TryGrow calls refused
	admitted  int64          // Admit calls granted
	deferred  int64          // Admit calls that had to wait
	deferNS   int64          // total nanoseconds Admit calls spent waiting
	waiters   []*admitWaiter // deferred admission claims, oldest first
}

// admitWaiter is one deferred Admit call queued for FIFO grant.
type admitWaiter struct {
	estimate int64
	ch       chan struct{} // closed when the claim is granted
	granted  bool          // guarded by the broker's mu
}

// New returns a broker enforcing limit bytes; limit <= 0 tracks usage
// without enforcing a budget.
func New(limit int64) *Broker {
	if limit < 0 {
		limit = 0
	}
	return &Broker{limit: limit}
}

// Child returns a broker whose reservations are charged against both
// its own limit and this broker's budget — a per-request cap under the
// global budget. limit <= 0 means the child only forwards to the
// parent.
func (b *Broker) Child(limit int64) *Broker {
	c := New(limit)
	c.parent = b
	return c
}

// Limit returns the enforced budget (0 = unlimited).
func (b *Broker) Limit() int64 { return b.limit }

// Used returns the bytes currently held by reservations.
func (b *Broker) Used() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Peak returns the high-water mark of Used since construction.
func (b *Broker) Peak() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peak
}

// Stats is a snapshot of a broker's counters.
type Stats struct {
	Limit       int64         // enforced budget (0 = unlimited)
	Used        int64         // bytes currently reserved
	Peak        int64         // high-water mark of Used
	Claimed     int64         // bytes currently held by admission claims
	Overdraft   int64         // bytes granted past the limit (required state)
	Denied      int64         // refusable grants denied (each one triggers a spill)
	Admitted    int64         // admission claims granted
	Deferred    int64         // admission claims that waited for memory
	DeferredFor time.Duration // total time admission claims spent waiting
	Waiting     int           // admission claims currently queued
}

func (s Stats) String() string {
	return fmt.Sprintf("limit=%d used=%d peak=%d claimed=%d overdraft=%d denied=%d admitted=%d deferred=%d waiting=%d",
		s.Limit, s.Used, s.Peak, s.Claimed, s.Overdraft, s.Denied, s.Admitted, s.Deferred, s.Waiting)
}

// Stats returns a snapshot of the broker's counters.
func (b *Broker) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Stats{
		Limit:       b.limit,
		Used:        b.used,
		Peak:        b.peak,
		Claimed:     b.claimed,
		Overdraft:   b.overdraft,
		Denied:      b.denied,
		Admitted:    b.admitted,
		Deferred:    b.deferred,
		DeferredFor: time.Duration(b.deferNS),
		Waiting:     len(b.waiters),
	}
}

// grow attempts to add n bytes of reservation. With must set the grant
// always succeeds (overdraft); otherwise it fails when the limit would
// be exceeded. The child's lock is held while the parent is consulted
// (lock order is strictly child → parent, so this cannot deadlock).
func (b *Broker) grow(n int64, must bool) bool {
	if n <= 0 {
		return true
	}
	b.mu.Lock()
	if !must && b.limit > 0 && b.used+n > b.limit {
		b.denied++
		b.mu.Unlock()
		// The ancestors count the denial too: a spill forced by a
		// request's own cap is still a spill of the database's.
		for a := b.parent; a != nil; a = a.parent {
			a.mu.Lock()
			a.denied++
			a.mu.Unlock()
		}
		return false
	}
	if b.parent != nil && !b.parent.grow(n, must) {
		b.denied++
		b.mu.Unlock()
		return false
	}
	if b.limit > 0 && b.used+n > b.limit {
		over := b.used + n - b.limit
		if over > n {
			over = n
		}
		b.overdraft += over
	}
	b.used += n
	if b.used > b.peak {
		b.peak = b.used
	}
	b.mu.Unlock()
	return true
}

// shrink returns n bytes and wakes admission waiters.
func (b *Broker) shrink(n int64) {
	if n <= 0 {
		return
	}
	b.mu.Lock()
	b.used -= n
	if b.used < 0 { // release bug; clamp rather than corrupt accounting
		b.used = 0
	}
	b.wakeAdmitsLocked()
	b.mu.Unlock()
	if b.parent != nil {
		b.parent.shrink(n)
	}
}

// admitsLocked reports whether a claim of estimate bytes can be granted
// now: it fits alongside current usage and claims, or the broker is
// idle (the oversize-claim escape hatch). Idle means no admitted work
// is running — every granted claim has been released — not that no byte
// is held: reservations that outlive any one unit of work (a request's
// hoisted lookup set, the result cache's standing charge) are released
// by nobody a waiter could wait for, so counting them would wedge a
// claim that does not fit beside them forever. Callers hold b.mu.
func (b *Broker) admitsLocked(estimate int64) bool {
	if b.limit == 0 || b.used+b.claimed+estimate <= b.limit {
		return true
	}
	return b.claims == 0
}

// grantLocked books a granted claim of estimate bytes. Callers hold b.mu.
func (b *Broker) grantLocked(estimate int64) {
	b.claimed += estimate
	b.claims++
	b.admitted++
}

// wakeAdmitsLocked grants queued admission claims in FIFO order until
// the oldest no longer fits. Strict ordering — a later claim never
// overtakes the head — is what makes large claims starvation-free:
// once a claim is the oldest waiter every newcomer queues behind it,
// admitted work drains, and at the latest the idle broker grants it.
// Callers hold b.mu.
func (b *Broker) wakeAdmitsLocked() {
	for len(b.waiters) > 0 {
		w := b.waiters[0]
		if !b.admitsLocked(w.estimate) {
			return
		}
		b.grantLocked(w.estimate)
		w.granted = true
		close(w.ch)
		b.waiters[0] = nil
		b.waiters = b.waiters[1:]
	}
}

// Reserve registers a new, empty reservation. The tag is for debugging
// only. A nil broker returns a nil reservation, whose methods are
// no-ops that always grant.
func (b *Broker) Reserve(tag string) *Reservation {
	if b == nil {
		return nil
	}
	return &Reservation{b: b, tag: tag}
}

// Reservation is one allocator's tracked slice of the budget. It is
// not safe for concurrent use by multiple goroutines (each pipeline or
// pass owns its reservations); the broker underneath is.
type Reservation struct {
	b    *Broker
	tag  string
	held int64
	peak int64
}

// TryGrow requests n more bytes; it reports false — without changing
// the reservation — when the budget is exhausted. The caller is
// expected to degrade (spill) rather than retry.
func (r *Reservation) TryGrow(n int64) bool {
	if r == nil {
		return true
	}
	if !r.b.grow(n, false) {
		return false
	}
	r.add(n)
	return true
}

// MustGrow takes n more bytes unconditionally, overdrafting the budget
// if necessary. Reserved for state the plan cannot run without.
func (r *Reservation) MustGrow(n int64) {
	if r == nil || n <= 0 {
		return
	}
	r.b.grow(n, true)
	r.add(n)
}

func (r *Reservation) add(n int64) {
	r.held += n
	if r.held > r.peak {
		r.peak = r.held
	}
}

// Shrink returns n bytes of the reservation.
func (r *Reservation) Shrink(n int64) {
	if r == nil || n <= 0 {
		return
	}
	if n > r.held {
		n = r.held
	}
	r.held -= n
	r.b.shrink(n)
}

// Release returns everything the reservation holds. The reservation
// stays usable (a released reservation can grow again).
func (r *Reservation) Release() {
	if r == nil {
		return
	}
	r.Shrink(r.held)
}

// Held returns the bytes currently reserved.
func (r *Reservation) Held() int64 {
	if r == nil {
		return 0
	}
	return r.held
}

// Peak returns the reservation's own high-water mark.
func (r *Reservation) Peak() int64 {
	if r == nil {
		return 0
	}
	return r.peak
}

// Admit claims estimate bytes for a unit of work about to execute,
// deferring (blocking) while the claim does not fit alongside current
// usage and other claims. Deferred claims are granted strictly oldest
// first. A claim on an idle broker — no other claim granted and not yet
// released — is always granted, even past the limit and whatever bytes
// reservations hold; execution then relies on the operators' spill
// paths. Every deferred claim therefore waits only for claims that will
// be released, so admission can only defer work, never wedge it. The
// returned release function must be called when the work finishes (it
// is idempotent). Admit returns ctx's error if the context is done
// first. A nil broker admits everything.
//
// Claims gate admission only: they are not counted in Used, and the
// operators' actual reservations enforce the budget during execution.
func (b *Broker) Admit(ctx context.Context, estimate int64) (release func(), err error) {
	if b == nil {
		return func() {}, nil
	}
	if estimate < 0 {
		estimate = 0
	}
	b.mu.Lock()
	if len(b.waiters) == 0 && b.admitsLocked(estimate) {
		b.grantLocked(estimate)
		b.mu.Unlock()
		return b.releaser(estimate), nil
	}
	w := &admitWaiter{estimate: estimate, ch: make(chan struct{})}
	b.waiters = append(b.waiters, w)
	b.mu.Unlock()
	start := time.Now()
	select {
	case <-w.ch:
		b.noteDeferred(time.Since(start))
		return b.releaser(estimate), nil
	case <-ctx.Done():
		b.noteDeferred(time.Since(start))
		b.mu.Lock()
		if w.granted {
			// Granted between ctx firing and us taking the lock; the
			// caller is abandoning the work, so return the claim.
			b.returnLocked(estimate)
		} else {
			for i, q := range b.waiters {
				if q == w {
					b.waiters = append(b.waiters[:i], b.waiters[i+1:]...)
					break
				}
			}
		}
		b.mu.Unlock()
		return func() {}, ctx.Err()
	}
}

// releaser returns the idempotent release function of a granted claim.
func (b *Broker) releaser(estimate int64) func() {
	released := false
	return func() {
		b.mu.Lock()
		if !released {
			released = true
			b.returnLocked(estimate)
		}
		b.mu.Unlock()
	}
}

// returnLocked books the release of a granted claim of estimate bytes
// and wakes the waiters it makes room for. Callers hold b.mu.
func (b *Broker) returnLocked(estimate int64) {
	b.claims--
	b.claimed -= estimate
	if b.claimed < 0 {
		b.claimed = 0
	}
	b.wakeAdmitsLocked()
}

// noteDeferred counts one admission claim that waited, on b and — like
// denials — on every ancestor, so the database-wide stats see the
// deferrals of per-request child brokers.
func (b *Broker) noteDeferred(waited time.Duration) {
	for ; b != nil; b = b.parent {
		b.mu.Lock()
		b.deferred++
		b.deferNS += int64(waited)
		b.mu.Unlock()
	}
}
