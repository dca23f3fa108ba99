// Package dag runs an explicit operator task graph on a bounded worker
// pool. The executor's global plan is naturally a DAG — shared dimension
// lookup builds feed class passes, class passes and cache rollups are
// mutually independent — and this package is the small, generic scheduler
// that exploits it: ready nodes (all dependencies done) start as soon as a
// worker slot is free, an optional admission gate sizes each start against
// the memory budget, and the first error cancels everything else while
// still draining in-flight work before Run returns.
//
// The worker slots live in a Pool (pool.go) shared with the work a node
// itself fans out: a running class pass splits its shared scan into
// page-aligned morsels, and its extra scan workers Join the same pool
// the scheduler starts nodes from. One width therefore bounds every
// executor goroutine, inter-class and intra-class alike.
//
// Without a pool, or with a width-1 one, the graph runs serially in
// insertion order, which for the graphs the planner builds (dependencies
// are always inserted before their dependents) reproduces the pre-DAG
// sequential executor exactly.
package dag

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Node is one task in the graph.
type Node struct {
	// Label names the node in errors and debug output.
	Label string
	// Cost is the node's estimated peak memory footprint in bytes,
	// passed to the admission gate before the node starts.
	Cost int64
	// Run does the node's work. It must respect ctx cancellation.
	Run func(ctx context.Context) error

	deps     []*Node
	done     chan struct{}
	sequence int
}

// Graph is a set of nodes with dependencies. Not safe for concurrent
// mutation; build the whole graph, then call Run once.
type Graph struct {
	nodes []*Node
}

// Add inserts a node that starts only after all of deps have finished
// successfully. deps must already be in the graph (the planner inserts
// builds before the classes that consume them), which makes insertion
// order a valid topological order.
func (g *Graph) Add(n *Node, deps ...*Node) *Node {
	n.deps = append(n.deps[:0], deps...)
	n.done = make(chan struct{})
	n.sequence = len(g.nodes)
	g.nodes = append(g.nodes, n)
	return n
}

// Len returns the number of nodes in the graph.
func (g *Graph) Len() int { return len(g.nodes) }

// Options configures one Run.
type Options struct {
	// Pool supplies the worker slots: its width bounds the tasks
	// executing at once, and nil or a width-1 pool runs the graph
	// serially in insertion order. Callers pass the same pool to the
	// work their nodes fan out (shared-scan morsels), so node starts and
	// morsel helpers draw on one width. A pool belongs to a single Run.
	Pool *Pool
	// Gate, when non-nil, is called with the node's Cost before the node
	// starts (after a worker slot is acquired, so a blocked admission
	// never wedges ready work behind it on the same slot... each waiter
	// holds only its own slot). It returns a release func invoked when
	// the node finishes, or an error which aborts the run. Gates must be
	// refusal-free for at least one caller at a time (the memory broker's
	// idle-broker escape hatch) or Run can deadlock.
	Gate func(ctx context.Context, cost int64) (release func(), err error)
}

// Stats reports what one Run did.
type Stats struct {
	// Nodes is the number of graph nodes that were scheduled.
	Nodes int
	// WorkerPeak is the pool-wide peak: nodes plus the scan-morsel
	// helpers they fanned out, everything that held a worker slot at
	// once (1 for a serial run of a non-empty graph).
	WorkerPeak int
}

// Run executes the graph and blocks until every started node has
// finished, even on error — callers may tear down shared state (memory
// reservations, lookup tables) immediately after Run returns. The first
// node error cancels the derived context, unstarted nodes are skipped,
// and that first error is returned.
func (g *Graph) Run(ctx context.Context, opts Options) (Stats, error) {
	st := Stats{Nodes: len(g.nodes)}
	if len(g.nodes) == 0 {
		return st, ctx.Err()
	}
	if opts.Pool.Width() <= 1 {
		return g.runSerial(ctx, opts, st)
	}
	return g.runParallel(ctx, opts, opts.Pool, st)
}

// runSerial executes nodes one at a time in insertion order, which is a
// topological order by Add's contract. This is the width-1
// degradation target: identical work, identical order, no goroutines.
func (g *Graph) runSerial(ctx context.Context, opts Options, st Stats) (Stats, error) {
	st.WorkerPeak = 1
	for _, n := range g.nodes {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		release := func() {}
		if opts.Gate != nil {
			var err error
			release, err = opts.Gate(ctx, n.Cost)
			if err != nil {
				return st, fmt.Errorf("dag: admit %s: %w", n.Label, err)
			}
		}
		err := n.Run(ctx)
		release()
		if err != nil {
			return st, fmt.Errorf("%s: %w", n.Label, err)
		}
	}
	return st, nil
}

func (g *Graph) runParallel(ctx context.Context, opts Options, pool *Pool, st Stats) (Stats, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		firstErr atomic.Pointer[error]
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		e := err
		if firstErr.CompareAndSwap(nil, &e) {
			cancel()
		}
	}

	for _, n := range g.nodes {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			defer close(n.done)
			for _, d := range n.deps {
				select {
				case <-d.done:
				case <-runCtx.Done():
					return
				}
			}
			if runCtx.Err() != nil {
				return
			}
			if !pool.acquire(runCtx.Done()) {
				return
			}
			defer pool.release()
			release := func() {}
			if opts.Gate != nil {
				var err error
				release, err = opts.Gate(runCtx, n.Cost)
				if err != nil {
					if runCtx.Err() == nil {
						fail(fmt.Errorf("dag: admit %s: %w", n.Label, err))
					}
					return
				}
			}
			if runCtx.Err() != nil {
				release()
				return
			}
			pool.enter()
			err := n.Run(runCtx)
			pool.exit()
			release()
			if err != nil {
				fail(fmt.Errorf("%s: %w", n.Label, err))
			}
		}(n)
	}
	wg.Wait()

	st.WorkerPeak = pool.Peak()
	if p := firstErr.Load(); p != nil {
		return st, *p
	}
	return st, ctx.Err()
}
