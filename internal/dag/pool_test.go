package dag

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
)

// TestPoolWidthClamp: widths clamp into [1, WorkerCap()], and a nil pool
// reads as serial.
func TestPoolWidthClamp(t *testing.T) {
	cap := WorkerCap()
	if want := capFactor * runtime.GOMAXPROCS(0); cap != want {
		t.Fatalf("WorkerCap() = %d, want %d", cap, want)
	}
	cases := []struct{ req, want int }{
		{0, 1}, {-3, 1}, {1, 1}, {2, 2}, {cap, cap}, {cap + 1, cap}, {1 << 20, cap},
	}
	for _, c := range cases {
		if got := NewPool(c.req).Width(); got != c.want {
			t.Errorf("NewPool(%d).Width() = %d, want %d", c.req, got, c.want)
		}
	}
	var nilPool *Pool
	if got := nilPool.Width(); got != 1 {
		t.Fatalf("nil pool Width() = %d, want 1", got)
	}
	if got := nilPool.Peak(); got != 0 {
		t.Fatalf("nil pool Peak() = %d, want 0", got)
	}
}

// TestPoolJoinLeavePeak: Join grants exactly width slots, a full pool
// refuses a joiner whose stop channel closes, and Peak records the
// high-water mark of joined workers.
func TestPoolJoinLeavePeak(t *testing.T) {
	p := NewPool(2)
	if p.Width() != 2 {
		t.Fatalf("Width() = %d, want 2", p.Width())
	}
	open := make(chan struct{})
	if !p.Join(open) || !p.Join(open) {
		t.Fatal("Join refused with free slots")
	}
	closed := make(chan struct{})
	close(closed)
	if p.Join(closed) {
		t.Fatal("Join granted a slot on a full pool with stop closed")
	}
	if got := p.Peak(); got != 2 {
		t.Fatalf("Peak() = %d, want 2", got)
	}
	p.Leave()
	if !p.Join(open) {
		t.Fatal("Join refused after Leave freed a slot")
	}
	p.Leave()
	p.Leave()
	if got := p.Peak(); got != 2 {
		t.Fatalf("Peak() = %d after drain, want 2 (high-water mark)", got)
	}
}

// TestPoolJoinUnblocksOnStop: a Join blocked on a saturated pool must
// return false (not hang) when its stop channel closes — this is how a
// finished shared scan releases helpers that never got a slot.
func TestPoolJoinUnblocksOnStop(t *testing.T) {
	p := NewPool(1)
	open := make(chan struct{})
	if !p.Join(open) {
		t.Fatal("first Join refused")
	}
	stop := make(chan struct{})
	got := make(chan bool)
	go func() { got <- p.Join(stop) }()
	close(stop)
	if <-got {
		t.Fatal("blocked Join returned true after stop closed")
	}
	p.Leave()
}

// TestGraphWorkerPeakCountsMorselHelpers: a single node that fans work
// out via Join must raise Stats.WorkerPeak above one — the pool-wide
// peak counts nodes and their helpers against the same width.
func TestGraphWorkerPeakCountsMorselHelpers(t *testing.T) {
	pool := NewPool(4)
	var g Graph
	g.Add(&Node{Label: "fanout", Run: func(ctx context.Context) error {
		stop := make(chan struct{})
		defer close(stop)
		joined := make(chan struct{}, 3)
		release := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if !pool.Join(stop) {
					joined <- struct{}{} // count refusals too, to not wedge the barrier
					return
				}
				defer pool.Leave()
				joined <- struct{}{}
				<-release
			}()
		}
		for i := 0; i < 3; i++ {
			<-joined
		}
		close(release)
		wg.Wait()
		return nil
	}})
	st, err := g.Run(context.Background(), Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if st.WorkerPeak != 4 {
		t.Fatalf("WorkerPeak = %d, want 4 (node + 3 morsel helpers)", st.WorkerPeak)
	}
}

// TestGraphSharedPoolBoundsNodes: with a width-1 shared pool... the run
// degrades to the serial path even if many nodes are ready, and a node
// error still cancels the rest.
func TestGraphSharedPoolBoundsNodes(t *testing.T) {
	pool := NewPool(1)
	boom := errors.New("boom")
	var g Graph
	ran := 0
	g.Add(&Node{Label: "a", Run: func(context.Context) error { ran++; return nil }})
	g.Add(&Node{Label: "b", Run: func(context.Context) error { ran++; return boom }})
	g.Add(&Node{Label: "c", Run: func(context.Context) error { ran++; return nil }})
	st, err := g.Run(context.Background(), Options{Pool: pool})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran != 2 {
		t.Fatalf("serial run executed %d nodes before the error, want 2", ran)
	}
	if st.WorkerPeak != 1 {
		t.Fatalf("WorkerPeak = %d, want 1", st.WorkerPeak)
	}
}
