package sched

import (
	"context"
	"errors"
	"go/parser"
	"go/token"
	"io/fs"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// echo is the tests' reply type: the size of the batch that ran.
type echo struct{ BatchSize int }

// echoRun answers every request with a trivial reply recording the
// batch size.
func echoRun(batch []Request, _ int) []echo {
	outs := make([]echo, len(batch))
	for i := range outs {
		outs[i].BatchSize = len(batch)
	}
	return outs
}

// gatedRun is a fake Run that reports each batch's keys on entered and
// then blocks until gate is closed, so a test can hold runner slots
// while it queues requests behind them.
type gatedRun struct {
	gate    chan struct{}
	entered chan []string
}

func newGatedRun() *gatedRun {
	return &gatedRun{gate: make(chan struct{}), entered: make(chan []string, 256)}
}

func (g *gatedRun) run(batch []Request, opts int) []echo {
	keys := make([]string, len(batch))
	for i, r := range batch {
		keys[i] = r.Key
	}
	g.entered <- keys
	<-g.gate
	return echoRun(batch, opts)
}

// result is one asynchronous Submit's return.
type result struct {
	key string
	out *echo
	err error
}

// submitAsync submits on a new goroutine and reports on res.
func submitAsync(ctx context.Context, q *Queue[int, echo], key string, opts int, alone bool, res chan<- result) {
	go func() {
		out, err := q.Submit(ctx, key, opts, alone)
		res <- result{key, out, err}
	}()
}

// holdSlot submits a blocker that occupies the queue's only slot and
// waits until it is running.
func holdSlot(t *testing.T, q *Queue[int, echo], g *gatedRun) <-chan result {
	t.Helper()
	res := make(chan result, 1)
	submitAsync(context.Background(), q, "blocker", 0, false, res)
	if keys := <-g.entered; !slices.Equal(keys, []string{"blocker"}) {
		t.Fatalf("first run got %v, want the blocker alone", keys)
	}
	return res
}

// waitQueued waits until n submissions wait behind busy slots.
func waitQueued(t *testing.T, q *Queue[int, echo], n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		q.mu.Lock()
		got := len(q.waiting)
		q.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d submissions queued, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// collect receives n results and indexes them by key.
func collect(t *testing.T, res <-chan result, n int) map[string]result {
	t.Helper()
	out := map[string]result{}
	for i := 0; i < n; i++ {
		r := <-res
		out[r.key] = r
	}
	return out
}

func TestIdlePathRunsInlineWithoutAllocating(t *testing.T) {
	outs := []echo{{BatchSize: 1}}
	var goroutines int
	var inline bool
	q := NewQueue(2, func(batch []Request, _ int) []echo {
		goroutines = runtime.NumGoroutine()
		var buf [4096]byte
		inline = strings.Contains(string(buf[:runtime.Stack(buf[:], false)]), "TestIdlePathRunsInlineWithoutAllocating")
		return outs
	})
	before := runtime.NumGoroutine()
	out, err := q.Submit(context.Background(), "k", 0, false)
	if err != nil || out != &outs[0] {
		t.Fatalf("idle submit returned (%v, %v), want the run's outcome", out, err)
	}
	if !inline || goroutines != before {
		t.Fatalf("idle submit ran inline=%t with %d goroutines (had %d): want the caller's goroutine and none started", inline, goroutines, before)
	}

	q = NewQueue(1, func([]Request, int) []echo { return outs })
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := q.Submit(ctx, "k", 0, false); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("idle submit allocates %.1f times, want 0", allocs)
	}
	if m := q.Metrics(); m.Batches != m.Submissions || m.Coalesced != 0 {
		t.Fatalf("idle metrics %+v: every submission should be a batch of one", m)
	}
}

func TestQueuedMergeAtNextFreeSlot(t *testing.T) {
	g := newGatedRun()
	q := NewQueue(1, g.run)
	defer q.Stop()
	blocker := holdSlot(t, q, g)

	const n = 5
	res := make(chan result, n)
	for i := 0; i < n; i++ {
		submitAsync(context.Background(), q, string(rune('a'+i)), 0, false, res)
	}
	waitQueued(t, q, n)
	close(g.gate)
	if r := <-blocker; r.err != nil || r.out.BatchSize != 1 {
		t.Fatalf("blocker returned (%+v, %v)", r.out, r.err)
	}
	for key, r := range collect(t, res, n) {
		if r.err != nil || r.out.BatchSize != n {
			t.Fatalf("%s returned (%+v, %v), want one batch of %d", key, r.out, r.err, n)
		}
	}
	if keys := <-g.entered; len(keys) != n {
		t.Fatalf("second run got %v, want all %d queued requests", keys, n)
	}
	if m := q.Metrics(); m.Batches != 2 || m.Submissions != n+1 || m.Coalesced != n {
		t.Fatalf("metrics %+v, want 2 batches, %d submissions, %d coalesced", m, n+1, n)
	}
}

func TestUnequalOptionsNeverMerge(t *testing.T) {
	g := newGatedRun()
	q := NewQueue(1, g.run)
	defer q.Stop()
	blocker := holdSlot(t, q, g)

	res := make(chan result, 5)
	for i, opts := range []int{1, 2, 1, 2, 1} {
		submitAsync(context.Background(), q, string(rune('a'+i)), opts, false, res)
		waitQueued(t, q, i+1)
	}
	close(g.gate)
	<-blocker
	got := collect(t, res, 5)
	for key, want := range map[string]int{"a": 3, "b": 2, "c": 3, "d": 2, "e": 3} {
		if r := got[key]; r.err != nil || r.out.BatchSize != want {
			t.Fatalf("%s returned (%+v, %v), want a batch of %d", key, r.out, r.err, want)
		}
	}
	if keys := <-g.entered; !slices.Equal(keys, []string{"a", "c", "e"}) {
		t.Fatalf("first merged batch %v, want [a c e]", keys)
	}
	if keys := <-g.entered; !slices.Equal(keys, []string{"b", "d"}) {
		t.Fatalf("second merged batch %v, want [b d]", keys)
	}
}

// TestAloneRequestsRunAlone: with the only slot held and requests
// queued behind it, a request flagged alone neither waits nor merges —
// it runs at once on its caller as a batch of one.
func TestAloneRequestsRunAlone(t *testing.T) {
	g := newGatedRun()
	q := NewQueue(1, func(batch []Request, opts int) []echo {
		if batch[0].Key == "blocker" {
			return g.run(batch, opts)
		}
		return echoRun(batch, opts)
	})
	defer q.Stop()
	blocker := holdSlot(t, q, g)

	res := make(chan result, 2)
	for i, key := range []string{"a", "c"} {
		submitAsync(context.Background(), q, key, 0, false, res)
		waitQueued(t, q, i+1)
	}
	for _, key := range []string{"b", "d"} {
		if out, err := q.Submit(context.Background(), key, 0, true); err != nil || out.BatchSize != 1 {
			t.Fatalf("alone %s returned (%+v, %v), want a batch of one while the slot is held", key, out, err)
		}
	}
	waitQueued(t, q, 2)
	close(g.gate)
	<-blocker
	for key, r := range collect(t, res, 2) {
		if r.err != nil || r.out.BatchSize != 2 {
			t.Fatalf("%s returned (%+v, %v), want a batch of 2", key, r.out, r.err)
		}
	}
	if m := q.Metrics(); m.Batches != 4 || m.Submissions != 5 || m.Coalesced != 2 {
		t.Fatalf("metrics %+v, want 4 batches, 5 submissions, 2 coalesced", m)
	}
}

// TestRunPanicLeavesQueueUsable: a Run that panics reaches its callers
// as a panic — inline on the caller's goroutine, queued re-raised on
// each waiter's — and its slot comes back empty, so the next request
// runs at once.
func TestRunPanicLeavesQueueUsable(t *testing.T) {
	g := newGatedRun()
	q := NewQueue(1, func(batch []Request, opts int) []echo {
		switch batch[0].Key {
		case "blocker":
			return g.run(batch, opts)
		case "panic":
			panic("boom")
		}
		return echoRun(batch, opts)
	})
	defer q.Stop()
	submit := func(key string) (out *echo, p any, err error) {
		defer func() { p = recover() }()
		out, err = q.Submit(context.Background(), key, 0, false)
		return out, nil, err
	}
	idle := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			q.mu.Lock()
			free, buffered := len(q.free), 0
			if free == 1 {
				buffered = len(q.free[0].reqs)
			}
			q.mu.Unlock()
			if free == 1 && buffered == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d free slots holding %d requests, want the one slot back and empty", free, buffered)
			}
			time.Sleep(time.Millisecond)
		}
		if out, p, err := submit("k"); p != nil || err != nil || out.BatchSize != 1 {
			t.Fatalf("submit after a panic returned (%+v, %v, %v), want a batch of one", out, p, err)
		}
	}

	if _, p, _ := submit("panic"); p != "boom" {
		t.Fatalf("inline run recovered %v, want the runner's panic", p)
	}
	idle()

	blocker := holdSlot(t, q, g)
	panicked := make(chan any, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, p, _ := submit("panic")
			panicked <- p
		}()
	}
	waitQueued(t, q, 2)
	close(g.gate)
	<-blocker
	for i := 0; i < 2; i++ {
		if p := <-panicked; p != "boom" {
			t.Fatalf("queued caller recovered %v, want the runner's panic", p)
		}
	}
	idle()
}

// TestCanceledWhileQueuedFailsWithContextError: a request whose context
// is done before it is admitted, or while it waits behind a busy slot,
// returns the context error at once, and its batch runs without it.
func TestCanceledWhileQueuedFailsWithContextError(t *testing.T) {
	g := newGatedRun()
	q := NewQueue(1, g.run)
	defer q.Stop()
	done, cancelDone := context.WithCancel(context.Background())
	cancelDone()
	if _, err := q.Submit(done, "k", 0, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled submission returned %v, want context.Canceled", err)
	}

	blocker := holdSlot(t, q, g)
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan result, 2)
	submitAsync(ctx, q, "canceled", 0, false, res)
	waitQueued(t, q, 1)
	submitAsync(context.Background(), q, "live", 0, false, res)
	waitQueued(t, q, 2)
	cancel()
	// The slot is still held: the canceled caller must not wait for it.
	if r := <-res; r.key != "canceled" || !errors.Is(r.err, context.Canceled) {
		t.Fatalf("first return (%s, %v), want the canceled request with context.Canceled", r.key, r.err)
	}
	waitQueued(t, q, 1)
	close(g.gate)
	<-blocker
	if r := <-res; r.err != nil || r.out.BatchSize != 1 {
		t.Fatalf("live request returned (%+v, %v), want a batch of one", r.out, r.err)
	}
	if keys := <-g.entered; !slices.Equal(keys, []string{"live"}) {
		t.Fatalf("batch ran %v, want only the live request", keys)
	}
}

// TestBackpressure: with the only slot held, the queue takes maxQueue
// requests and refuses the next with ErrQueueFull.
func TestBackpressure(t *testing.T) {
	g := newGatedRun()
	q := NewQueue(1, g.run)
	defer q.Stop()
	blocker := holdSlot(t, q, g)

	res := make(chan result, maxQueue)
	for i := 0; i < maxQueue; i++ {
		submitAsync(context.Background(), q, "k", 0, false, res)
	}
	waitQueued(t, q, maxQueue)
	if _, err := q.Submit(context.Background(), "over", 0, false); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue returned %v, want ErrQueueFull", err)
	}
	if got := q.Metrics().Rejected; got != 1 {
		t.Fatalf("metrics count %d rejections, want 1", got)
	}
	close(g.gate)
	<-blocker
	for i := 0; i < maxQueue; i++ {
		if r := <-res; r.err != nil {
			t.Fatalf("queued submission failed after unblocking: %v", r.err)
		}
	}
}

func TestBatchCappedAtMaxBatch(t *testing.T) {
	g := newGatedRun()
	q := NewQueue(1, g.run)
	defer q.Stop()
	blocker := holdSlot(t, q, g)

	const n = MaxBatch + 4
	res := make(chan result, n)
	for i := 0; i < n; i++ {
		submitAsync(context.Background(), q, "k", 0, false, res)
	}
	waitQueued(t, q, n)
	close(g.gate)
	<-blocker
	sizes := map[int]int{}
	for i := 0; i < n; i++ {
		r := <-res
		if r.err != nil {
			t.Fatal(r.err)
		}
		sizes[r.out.BatchSize]++
	}
	if sizes[MaxBatch] != MaxBatch || sizes[n-MaxBatch] != n-MaxBatch {
		t.Fatalf("batch sizes %v, want %d requests in a batch of %d and %d in one of %d", sizes, MaxBatch, MaxBatch, n-MaxBatch, n-MaxBatch)
	}
}

// TestSubmitAfterStop: Stop fails queued requests with ErrStopped,
// refuses later ones, waits for the request running on its caller's
// goroutine, and is idempotent.
func TestSubmitAfterStop(t *testing.T) {
	g := newGatedRun()
	q := NewQueue(1, g.run)
	blocker := holdSlot(t, q, g)
	res := make(chan result, 1)
	submitAsync(context.Background(), q, "queued", 0, false, res)
	waitQueued(t, q, 1)
	stopped := make(chan struct{})
	go func() {
		q.Stop()
		close(stopped)
	}()
	if r := <-res; !errors.Is(r.err, ErrStopped) {
		t.Fatalf("queued submission returned %v after Stop, want ErrStopped", r.err)
	}
	for _, alone := range []bool{false, true} {
		if _, err := q.Submit(context.Background(), "k", 0, alone); !errors.Is(err, ErrStopped) {
			t.Fatalf("Submit (alone %t) after Stop returned %v, want ErrStopped", alone, err)
		}
	}
	select {
	case <-stopped:
		t.Fatal("Stop returned while a request was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(g.gate)
	if r := <-blocker; r.err != nil {
		t.Fatalf("the running request failed: %v", r.err)
	}
	<-stopped
	q.Stop()
}

func TestRunnerMustDeliver(t *testing.T) {
	// A Run callback that forgets a submission must not strand its
	// caller, inline or queued: the queue backstops with an error.
	gate := make(chan struct{})
	entered := make(chan struct{}, 2)
	q := NewQueue(1, func(batch []Request, _ int) []echo {
		entered <- struct{}{}
		if batch[0].Key == "first" {
			<-gate
		}
		return nil
	})
	defer q.Stop()
	res := make(chan result, 2)
	submitAsync(context.Background(), q, "first", 0, false, res)
	<-entered
	submitAsync(context.Background(), q, "queued", 0, false, res)
	waitQueued(t, q, 1)
	close(gate)
	for key, r := range collect(t, res, 2) {
		if r.err == nil {
			t.Fatalf("%s: submission with a no-op runner returned no error", key)
		}
	}
}

// TestSchedImportsNoEngine: the queue is generic over the reply type, so
// its non-test sources import no package of the engine.
func TestSchedImportsNoEngine(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no non-test sources parsed")
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if path == "mdxopt" || strings.HasPrefix(path, "mdxopt/") {
					t.Errorf("%s imports %s: the admission queue must not depend on the engine", name, path)
				}
			}
		}
	}
}
