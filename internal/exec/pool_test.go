package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// TestPoolJoinLeavePeak: join grants exactly width slots, a full pool
// refuses a joiner whose stop channel closes, and Peak records the
// high-water mark of joined workers.
func TestPoolJoinLeavePeak(t *testing.T) {
	p := NewPool(2)
	if p.Width() != 2 {
		t.Fatalf("Width() = %d, want 2", p.Width())
	}
	open := make(chan struct{})
	if !p.join(open) || !p.join(open) {
		t.Fatal("join refused with free slots")
	}
	closed := make(chan struct{})
	close(closed)
	if p.join(closed) {
		t.Fatal("join granted a slot on a full pool with stop closed")
	}
	if got := p.Peak(); got != 2 {
		t.Fatalf("Peak() = %d, want 2", got)
	}
	p.leave()
	if !p.join(open) {
		t.Fatal("join refused after leave freed a slot")
	}
	p.leave()
	p.leave()
	if got := p.Peak(); got != 2 {
		t.Fatalf("Peak() = %d after drain, want 2 (high-water mark)", got)
	}
}

// TestPoolJoinUnblocksOnStop: a join blocked on a saturated pool must
// return false (not hang) when its stop channel closes — this is how a
// finished shared scan releases helpers that never got a slot.
func TestPoolJoinUnblocksOnStop(t *testing.T) {
	p := NewPool(1)
	open := make(chan struct{})
	if !p.join(open) {
		t.Fatal("first join refused")
	}
	stop := make(chan struct{})
	got := make(chan bool)
	go func() { got <- p.join(stop) }()
	close(stop)
	if <-got {
		t.Fatal("blocked join returned true after stop closed")
	}
	p.leave()
}

// TestRunTasksSerialOrder: without a pool or with a width-1 one, a task
// list runs inline in index order, under the caller's own context.
func TestRunTasksSerialOrder(t *testing.T) {
	ctx := context.Background()
	for _, pool := range []*Pool{nil, NewPool(1)} {
		var order []int
		err := RunTasks(ctx, pool, 4, func(tctx context.Context, i int) error {
			if tctx != ctx {
				t.Error("width-1 task ran under a derived context")
			}
			order = append(order, i)
			return nil
		})
		if err != nil || fmt.Sprint(order) != "[0 1 2 3]" {
			t.Fatalf("width %d: order %v, err %v", pool.Width(), order, err)
		}
	}
}

// TestRunTasksSharedPoolBoundsTasks: on a width-1 shared pool a list
// runs serially even though every task is ready, claims no pool slot,
// and a task's error stops it before the tasks after it start.
func TestRunTasksSharedPoolBoundsTasks(t *testing.T) {
	boom := errors.New("boom")
	for _, pool := range []*Pool{nil, NewPool(1)} {
		var order []int
		err := RunTasks(context.Background(), pool, 4, func(_ context.Context, i int) error {
			order = append(order, i)
			if i == 1 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) || fmt.Sprint(order) != "[0 1]" {
			t.Fatalf("width %d: failing list ran %v, err %v", pool.Width(), order, err)
		}
		if pool.Peak() != 0 {
			t.Fatalf("width %d: serial list claimed pool slots (peak %d)", pool.Width(), pool.Peak())
		}
	}
}

// TestRunTasksParallelPeak: independent tasks actually overlap, the
// caller being one of the workers. Each task blocks until `want` tasks
// are running at once, so the test fails by timeout if the list is
// serialized.
func TestRunTasksParallelPeak(t *testing.T) {
	const want = 4
	var running atomic.Int64
	release := make(chan struct{})
	var once sync.Once
	pool := NewPool(want)
	err := RunTasks(context.Background(), pool, want, func(ctx context.Context, _ int) error {
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
	})
	if err != nil {
		t.Fatal(err)
	}
	if pool.Peak() != want {
		t.Fatalf("peak %d, want %d", pool.Peak(), want)
	}
}

// TestRunTasksFirstErrorDrains: a failing task cancels the context the
// list runs under; unstarted tasks never run, the in-flight one drains
// before RunTasks returns, and the first error is returned.
func TestRunTasksFirstErrorDrains(t *testing.T) {
	boom := errors.New("boom")
	var drained atomic.Bool
	var late atomic.Int64
	inFlight := make(chan struct{})
	const n = 10
	err := RunTasks(context.Background(), NewPool(2), n, func(ctx context.Context, i int) error {
		switch i {
		case 0:
			close(inFlight)
			<-ctx.Done() // run until the failure cancels us
			time.Sleep(10 * time.Millisecond)
			drained.Store(true)
			return nil
		case 1:
			<-inFlight // guarantee task 0 started first
			return boom
		}
		late.Add(1)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if late.Load() != 0 {
		t.Fatalf("%d tasks started after the failure", late.Load())
	}
	if !drained.Load() {
		t.Fatal("RunTasks returned before the in-flight task finished")
	}
}

// TestRunTasksCanceledContext: a pre-canceled context runs nothing and
// fails the list with the context's error.
func TestRunTasksCanceledContext(t *testing.T) {
	for _, width := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ran atomic.Bool
		err := RunTasks(ctx, NewPool(width), 3, func(context.Context, int) error { ran.Store(true); return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("width %d: err = %v", width, err)
		}
		if ran.Load() {
			t.Fatalf("width %d: a task ran under a canceled context", width)
		}
	}
}

// TestRunTasksPeakCountsMorselHelpers: a single task that fans work out
// on the pool raises the peak above one — the caller, running the task
// as worker 0, and its helpers hold slots of one width — and an empty
// list claims no slot at all.
func TestRunTasksPeakCountsMorselHelpers(t *testing.T) {
	pool := NewPool(4)
	if err := RunTasks(context.Background(), pool, 0, nil); err != nil || pool.Peak() != 0 {
		t.Fatalf("empty list: err %v, peak %d", err, pool.Peak())
	}
	err := RunTasks(context.Background(), pool, 1, func(context.Context, int) error {
		stop := make(chan struct{})
		defer close(stop)
		joined := make(chan struct{}, 4)
		release := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if !pool.join(stop) {
					joined <- struct{}{} // count refusals too, to not wedge the barrier
					return
				}
				defer pool.leave()
				joined <- struct{}{}
				<-release
			}()
		}
		// Three helpers fit beside the caller; the fourth waits until
		// the first leaves.
		for i := 0; i < 3; i++ {
			<-joined
		}
		close(release)
		<-joined
		wg.Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pool.Peak() != 4 {
		t.Fatalf("peak = %d, want 4 (the task + 3 helpers, never more)", pool.Peak())
	}
}
