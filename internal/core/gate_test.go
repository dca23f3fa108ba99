package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"mdxopt/internal/exec"
	"mdxopt/internal/mem"
	"mdxopt/internal/plan"
)

// gatedRun starts Run on a broker-governed copy of env with every node
// admitted through broker.Admit, and returns a channel that yields
// Run's error when it finishes.
func gatedRun(t *testing.T, ctx context.Context, broker *mem.Broker, workers int) <-chan error {
	t.Helper()
	db, qs := testDB(t)
	queries := qset(qs, "Q1", "Q2")
	est := plan.NewEstimator(db)
	g, err := Optimize(est, queries, GG)
	if err != nil {
		t.Fatal(err)
	}
	env := exec.NewEnv(db)
	env.Ctx = ctx
	env.Mem = broker
	done := make(chan error, 1)
	go func() {
		var st exec.Stats
		_, err := Run(env, g, queries, &st, ExecOptions{Workers: workers, Est: est,
			Gate: func(ctx context.Context, cost int64) (func(), error) {
				return broker.Admit(ctx, cost)
			}})
		done <- err
	}()
	return done
}

// TestRunGateDefersUntilRelease: a saturated memory broker must defer
// the plan's nodes — not error them — and let them run once memory is
// released. The running work is itself an admitted claim: a broker with
// no unreleased claim is idle and admits anything.
func TestRunGateDefersUntilRelease(t *testing.T) {
	for _, workers := range []int{1, 2} {
		broker := mem.New(1 << 10)
		releaseBlocker, err := broker.Admit(context.Background(), 1<<10)
		if err != nil {
			t.Fatal(err)
		}
		done := gatedRun(t, context.Background(), broker, workers)
		select {
		case err := <-done:
			t.Fatalf("workers=%d: plan ran while the broker was saturated (err %v)", workers, err)
		case <-time.After(20 * time.Millisecond):
		}
		releaseBlocker()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("workers=%d: deferred run errored: %v", workers, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: plan did not run after memory was released", workers)
		}
		s := broker.Stats()
		if s.Deferred == 0 || s.Admitted < 2 {
			t.Fatalf("workers=%d: broker did not record the deferral: %v", workers, s)
		}
		if s.Claimed != 0 || s.Waiting != 0 || s.Used != 0 {
			t.Fatalf("workers=%d: admission claim leaked: %v", workers, s)
		}
	}
}

// TestRunGateCanceledContextFailsRun: the run's context bounds the
// admission wait — a node waiting for memory fails the run with the
// context's error instead of waiting forever, and leaves no waiter
// queued.
func TestRunGateCanceledContextFailsRun(t *testing.T) {
	broker := mem.New(100)
	releaseBlocker, err := broker.Admit(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	defer releaseBlocker()

	ctx, cancel := context.WithCancel(context.Background())
	done := gatedRun(t, ctx, broker, 1)
	waitWaiting(t, broker)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled admission returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled run still waiting for admission")
	}
	if s := broker.Stats(); s.Waiting != 0 || s.Claimed != 100 {
		t.Fatalf("canceled wait left broker %v, want only the blocker's claim", s)
	}
}

// waitWaiting blocks until some admission claim is queued on b.
func waitWaiting(t *testing.T, b *mem.Broker) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().Waiting == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no admission claim ever queued")
		}
		time.Sleep(time.Millisecond)
	}
}
