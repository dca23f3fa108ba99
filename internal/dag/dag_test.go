package dag

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSerialOrder: without a pool or with a width-1 one, nodes run in
// insertion order, one at a time, which is the pre-DAG sequential
// executor the system degrades to.
func TestSerialOrder(t *testing.T) {
	for _, pool := range []*Pool{nil, NewPool(1)} {
		var g Graph
		var order []string
		mk := func(label string, deps ...*Node) *Node {
			return g.Add(&Node{Label: label, Run: func(context.Context) error {
				order = append(order, label)
				return nil
			}}, deps...)
		}
		a := mk("a")
		b := mk("b", a)
		mk("c")
		mk("d", b)
		workers := pool.Width()
		st, err := g.Run(context.Background(), Options{Pool: pool})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.Nodes != 4 || st.WorkerPeak != 1 {
			t.Fatalf("workers=%d: stats %+v", workers, st)
		}
		if got := fmt.Sprint(order); got != "[a b c d]" {
			t.Fatalf("workers=%d: order %s", workers, got)
		}
	}
}

// TestDependencies: a node never starts before all its dependencies have
// finished, at any worker count.
func TestDependencies(t *testing.T) {
	var g Graph
	const n = 50
	done := make([]atomic.Bool, n)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		i := i
		var deps []*Node
		if i >= 2 {
			deps = []*Node{nodes[i-1], nodes[i-2]}
		}
		nodes[i] = g.Add(&Node{
			Label: fmt.Sprintf("n%d", i),
			Run: func(context.Context) error {
				for _, d := range deps {
					idx := d.sequence
					if !done[idx].Load() {
						return fmt.Errorf("n%d ran before n%d finished", i, idx)
					}
				}
				done[i].Store(true)
				return nil
			},
		}, deps...)
	}
	if _, err := g.Run(context.Background(), Options{Pool: NewPool(8)}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelPeak: independent nodes actually overlap. Each node blocks
// until `want` nodes are running at once, so the test fails by timeout if
// the scheduler serializes them.
func TestParallelPeak(t *testing.T) {
	var g Graph
	const want = 4
	var running atomic.Int64
	release := make(chan struct{})
	var once sync.Once
	for i := 0; i < want; i++ {
		g.Add(&Node{Label: fmt.Sprintf("p%d", i), Run: func(ctx context.Context) error {
			if running.Add(1) == want {
				once.Do(func() { close(release) })
			}
			select {
			case <-release:
				return nil
			case <-time.After(10 * time.Second):
				return errors.New("peers never arrived")
			case <-ctx.Done():
				return ctx.Err()
			}
		}})
	}
	st, err := g.Run(context.Background(), Options{Pool: NewPool(want)})
	if err != nil {
		t.Fatal(err)
	}
	if st.WorkerPeak != want {
		t.Fatalf("peak %d, want %d", st.WorkerPeak, want)
	}
}

// TestErrorSkipsDependents: a failing node cancels the run; its
// dependents never execute, independent in-flight nodes drain, and Run
// returns the first error.
func TestErrorSkipsDependents(t *testing.T) {
	var g Graph
	boom := errors.New("boom")
	var ranDependent, drained atomic.Bool
	inFlight := make(chan struct{})
	slow := g.Add(&Node{Label: "slow", Run: func(ctx context.Context) error {
		close(inFlight)
		<-ctx.Done() // run until the failure cancels us
		drained.Store(true)
		return nil
	}})
	bad := g.Add(&Node{Label: "bad", Run: func(context.Context) error {
		<-inFlight // guarantee slow started first
		return boom
	}})
	g.Add(&Node{Label: "child", Run: func(context.Context) error {
		ranDependent.Store(true)
		return nil
	}}, bad)
	_, err := g.Run(context.Background(), Options{Pool: NewPool(3)})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if ranDependent.Load() {
		t.Fatal("dependent of failed node ran")
	}
	if !drained.Load() {
		t.Fatal("Run returned before in-flight node finished")
	}
	_ = slow
}

// TestGate: every executed node is admitted with its cost and released
// exactly once, serial and parallel alike.
func TestGate(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var g Graph
		costs := []int64{10, 20, 30}
		for i, c := range costs {
			g.Add(&Node{Label: fmt.Sprintf("g%d", i), Cost: c, Run: func(context.Context) error { return nil }})
		}
		var admitted, released atomic.Int64
		gate := func(_ context.Context, cost int64) (func(), error) {
			admitted.Add(cost)
			return func() { released.Add(cost) }, nil
		}
		if _, err := g.Run(context.Background(), Options{Pool: NewPool(workers), Gate: gate}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if admitted.Load() != 60 || released.Load() != 60 {
			t.Fatalf("workers=%d: admitted=%d released=%d", workers, admitted.Load(), released.Load())
		}
	}
}

// TestGateError: an admission failure aborts the run with the gate's
// error.
func TestGateError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var g Graph
		g.Add(&Node{Label: "n", Run: func(context.Context) error { return nil }})
		refused := errors.New("refused")
		gate := func(context.Context, int64) (func(), error) { return nil, refused }
		if _, err := g.Run(context.Background(), Options{Pool: NewPool(workers), Gate: gate}); !errors.Is(err, refused) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, refused)
		}
	}
}

// TestCanceledContext: a pre-canceled context runs nothing.
func TestCanceledContext(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var g Graph
		var ran atomic.Bool
		g.Add(&Node{Label: "n", Run: func(context.Context) error { ran.Store(true); return nil }})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := g.Run(ctx, Options{Pool: NewPool(workers)}); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if ran.Load() {
			t.Fatalf("workers=%d: node ran under canceled context", workers)
		}
	}
}

// TestEmptyGraph: running an empty graph is a no-op.
func TestEmptyGraph(t *testing.T) {
	var g Graph
	st, err := g.Run(context.Background(), Options{Pool: NewPool(4)})
	if err != nil || st.Nodes != 0 || st.WorkerPeak != 0 {
		t.Fatalf("st=%+v err=%v", st, err)
	}
}
