package sched

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"mdxopt/internal/core"
	"mdxopt/internal/plan"
	"mdxopt/internal/query"
)

// echoRun answers every request with a trivial outcome recording the
// batch size.
func echoRun(batch []Request) []Outcome {
	outs := make([]Outcome, len(batch))
	for i := range outs {
		outs[i].BatchSize = len(batch)
	}
	return outs
}

func TestWindowCoalescesConcurrentSubmissions(t *testing.T) {
	s := New(Config{Window: 100 * time.Millisecond, Run: echoRun})
	defer s.Stop()

	const n = 5
	var wg sync.WaitGroup
	outs := make([]*Outcome, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = s.Submit(context.Background(), "k", nil)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submission %d: %v", i, errs[i])
		}
		if outs[i].BatchSize < 2 {
			t.Fatalf("submission %d ran in a batch of %d; a 100ms window should have merged the burst", i, outs[i].BatchSize)
		}
	}
	m := s.Metrics()
	if m.Submissions != n {
		t.Fatalf("metrics count %d submissions, want %d", m.Submissions, n)
	}
	if m.Coalesced == 0 {
		t.Fatal("metrics report no coalesced submissions")
	}
	if m.Batches >= n {
		t.Fatalf("%d batches for %d concurrent submissions: nothing merged", m.Batches, n)
	}
}

func TestMaxBatchRunsWithoutWaitingOutWindow(t *testing.T) {
	s := New(Config{Window: time.Hour, MaxBatch: 2, Run: echoRun})
	defer s.Stop()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := s.Submit(context.Background(), "k", nil)
			if err != nil {
				t.Error(err)
				return
			}
			if out.BatchSize != 2 {
				t.Errorf("batch size %d, want 2", out.BatchSize)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a full batch waited out an hour-long window")
	}
}

// TestBackpressure makes the queue bound observable deterministically:
// the batch runner blocks, the queue (capacity 1) fills, and the next
// submission is refused with ErrQueueFull.
func TestBackpressure(t *testing.T) {
	block := make(chan struct{})
	running := make(chan struct{})
	var runningOnce sync.Once
	s := New(Config{
		Window:   time.Millisecond,
		MaxBatch: 1,
		MaxQueue: 1,
		Run: func(batch []Request) []Outcome {
			runningOnce.Do(func() { close(running) })
			<-block
			return echoRun(batch)
		},
	})
	defer s.Stop()

	// S1 is admitted and runs (blocking inside Run).
	go s.Submit(context.Background(), "s1", nil)
	<-running
	// S2 fills the queue while the loop is stuck in Run.
	res2 := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), "s2", nil)
		res2 <- err
	}()
	// Wait until S2 occupies the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Submissions < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second submission never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	// S3 must bounce.
	if _, err := s.Submit(context.Background(), "s3", nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue returned %v, want ErrQueueFull", err)
	}
	if got := s.Metrics().Rejected; got != 1 {
		t.Fatalf("metrics count %d rejections, want 1", got)
	}
	close(block)
	if err := <-res2; err != nil {
		t.Fatalf("queued submission failed after unblocking: %v", err)
	}
}

func TestSubmitAfterStop(t *testing.T) {
	s := New(Config{Run: echoRun})
	s.Stop()
	if _, err := s.Submit(context.Background(), "k", nil); !errors.Is(err, ErrStopped) {
		t.Fatalf("Submit after Stop returned %v, want ErrStopped", err)
	}
	// Stop is idempotent.
	s.Stop()
}

func TestCanceledWhileQueuedFailsWithContextError(t *testing.T) {
	s := New(Config{Window: 50 * time.Millisecond, Run: echoRun})
	defer s.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Submit(ctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled submission returned %v, want context.Canceled", err)
	}
}

func TestRunnerMustDeliver(t *testing.T) {
	// A Run callback that forgets a submission must not strand its
	// caller: the scheduler backstops with an error.
	s := New(Config{Window: time.Millisecond, Run: func([]Request) []Outcome { return nil }})
	defer s.Stop()
	_, err := s.Submit(context.Background(), "k", nil)
	if err == nil {
		t.Fatal("submission with a no-op runner returned no error")
	}
}

func TestExecPlanFailureFallsBackPerSubmission(t *testing.T) {
	// When planning the merged batch fails, Exec replans each request
	// alone, so one unplannable request cannot sink its batch mates.
	// With a planFn that always fails, every request must still get its
	// own error — delivered from a single-request retry, which we
	// observe via the calls planFn receives.
	planErr := errors.New("unplannable")
	var calls [][]string
	planFn := func(reqs []Request) ([][]*query.Query, *plan.Global, error) {
		var keys []string
		for _, r := range reqs {
			keys = append(keys, r.Key)
		}
		calls = append(calls, keys)
		return nil, nil, planErr
	}
	reqs := []Request{{Key: "a"}, {Key: "b"}}
	outs := Exec(nil, planFn, reqs, core.ExecOptions{})
	if len(outs) != len(reqs) {
		t.Fatalf("%d outcomes for %d requests", len(outs), len(reqs))
	}
	for i, out := range outs {
		if !errors.Is(out.Err, planErr) {
			t.Fatalf("request %s got %v, want the plan error", reqs[i].Key, out.Err)
		}
	}
	// One merged attempt plus one single-request retry each.
	if len(calls) != 3 || len(calls[0]) != 2 || len(calls[1]) != 1 || len(calls[2]) != 1 {
		t.Fatalf("planFn call shapes %v, want [a b], [a], [b]", calls)
	}
}
