package exec

import (
	"runtime"
	"sync/atomic"
)

// The unified worker pool.
//
// One Pool governs every goroutine a run may put to work: the workers
// of its task lists (lookup builds, class passes, cache rollups — see
// RunTasks) and the page-aligned scan morsels and finalization tasks a
// running pass fans out (poolDrive). All draw slots from the same
// bounded channel, so "4 task workers × 4 scan workers" cannot
// oversubscribe to 16 goroutines — intra- and inter-class parallelism
// compose against one width instead of multiplying.

// capFactor is the oversubscription allowance folded into WorkerCap.
// The engine's shared passes are dominated by page I/O (and, in the
// benchmarks, injected device latency), so a hardware thread can
// usefully multiplex several workers blocked in reads; a factor of 1
// would serialize the whole engine on single-core machines.
const capFactor = 8

// WorkerCap is the GOMAXPROCS-derived ceiling on effective pool width.
// Requests beyond it are clamped by NewPool, bounding total executor
// goroutines regardless of what the caller's knobs multiply out to.
func WorkerCap() int {
	c := capFactor * runtime.GOMAXPROCS(0)
	if c < 1 {
		c = 1
	}
	return c
}

// Pool is the bounded worker-slot pool one run schedules on. A nil Pool
// behaves as width 1 (serial). Pools are cheap; create one per run.
type Pool struct {
	width int
	slots chan struct{}
	// cur/peak track the slots held: task workers, the run's caller
	// among them, plus the morsel helpers they fanned out.
	cur, peak atomic.Int64
}

// NewPool returns a pool of the requested width clamped to
// [1, WorkerCap()].
func NewPool(width int) *Pool {
	if width < 1 {
		width = 1
	}
	if c := WorkerCap(); width > c {
		width = c
	}
	return &Pool{width: width, slots: make(chan struct{}, width)}
}

// Width is the clamped slot count. Nil-safe: a nil pool has width 1.
func (p *Pool) Width() int {
	if p == nil {
		return 1
	}
	return p.width
}

// join claims a worker slot, blocking until a slot frees or stop is
// closed (the work ran out or aborted; a nil stop waits for the slot).
// It reports whether the slot was claimed; the caller must leave after
// true. Helpers never hold a slot while waiting on anything else, so
// join cannot deadlock against the workers already running.
func (p *Pool) join(stop <-chan struct{}) bool {
	select {
	case p.slots <- struct{}{}:
	default:
		select {
		case p.slots <- struct{}{}:
		case <-stop:
			return false
		}
	}
	running := p.cur.Add(1)
	for {
		pk := p.peak.Load()
		if running <= pk || p.peak.CompareAndSwap(pk, running) {
			return true
		}
	}
}

// leave returns a slot claimed by join.
func (p *Pool) leave() {
	p.cur.Add(-1)
	<-p.slots
}

// Peak is the maximum number of slots observed held at once — task
// workers plus morsel helpers. Nil-safe.
func (p *Pool) Peak() int {
	if p == nil {
		return 0
	}
	return int(p.peak.Load())
}
