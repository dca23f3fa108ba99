package core

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"mdxopt/internal/exec"
	"mdxopt/internal/mem"
	"mdxopt/internal/plan"
	"mdxopt/internal/query"
	"mdxopt/internal/storage"
)

// detCounters projects the deterministic work counters of a Stats — the
// fields whose values must be identical at every worker count. I/O and
// wall time legitimately vary with scheduling and pool state; everything
// else may not.
func detCounters(s exec.Stats) [8]int64 {
	return [8]int64{
		s.TuplesScanned, s.TupleProbes, s.TuplesAgg, s.TuplesFetched,
		s.HashBuildRows, s.BitmapWords, s.BitTests, s.CacheRows,
	}
}

// runDAG executes g at the given worker count on a fresh broker-governed
// Env, with per-task admission gating, and verifies the broker drains.
func runDAG(t *testing.T, env *exec.Env, g *plan.Global, queries []*query.Query, workers int) (*Execution, exec.Stats) {
	t.Helper()
	broker := mem.New(0)
	e := *env
	e.Mem = broker
	var st exec.Stats
	ex, err := Run(&e, g, queries, &st, ExecOptions{
		Workers: workers,
		Est:     plan.NewEstimator(env.DB),
		Gate: func(ctx context.Context, cost int64) (func(), error) {
			return broker.Admit(ctx, cost)
		},
	})
	if err != nil {
		t.Fatalf("Run(workers=%d): %v", workers, err)
	}
	if used := broker.Stats().Used; used != 0 {
		t.Fatalf("Run(workers=%d) left %d bytes reserved", workers, used)
	}
	return ex, st
}

// TestDAGExecutionEquivalence fuzzes the executor's task lists: for
// random query sets, running the plan at 2, 4 and 8 workers must produce
// byte-identical results (same groups in the same order) and identical
// deterministic work counters — per attributed query and in total — as
// the serial order at 1 worker.
func TestDAGExecutionEquivalence(t *testing.T) {
	db, _ := testDB(t)
	env := exec.NewEnv(db)
	env.MorselPages = 2 // tiny morsels force heavy work-stealing
	est := plan.NewEstimator(db)
	rng := rand.New(rand.NewSource(20260808))

	for trial := 0; trial < 8; trial++ {
		n := 3 + rng.Intn(5)
		queries := make([]*query.Query, n)
		for i := range queries {
			queries[i] = randomQuery(rng, db.Schema, "E"+string(rune('a'+i)))
		}
		g, err := Optimize(est, queries, GG)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		base, baseTotal := runDAG(t, env, g, queries, 1)
		if base.WorkerPeak > 1 {
			t.Fatalf("trial %d: serial run peaked at %d workers", trial, base.WorkerPeak)
		}
		for _, workers := range []int{2, 4, 8} {
			got, gotTotal := runDAG(t, env, g, queries, workers)
			if got.WorkerPeak < 1 || got.WorkerPeak > got.EffectiveWorkers {
				t.Fatalf("trial %d workers=%d: peak %d of effective width %d",
					trial, workers, got.WorkerPeak, got.EffectiveWorkers)
			}
			if got.DAGNodes != base.DAGNodes {
				t.Fatalf("trial %d workers=%d: %d tasks vs %d serial",
					trial, workers, got.DAGNodes, base.DAGNodes)
			}
			if detCounters(gotTotal) != detCounters(baseTotal) {
				t.Fatalf("trial %d workers=%d: total counters %v, serial %v",
					trial, workers, detCounters(gotTotal), detCounters(baseTotal))
			}
			for i, q := range queries {
				if got.Results[i].Err != nil || base.Results[i].Err != nil {
					t.Fatalf("trial %d workers=%d: unexpected result error for %s", trial, workers, q.Name)
				}
				if !got.Results[i].Equal(base.Results[i]) {
					t.Fatalf("trial %d workers=%d: result for %s differs from serial\n  query: %s",
						trial, workers, q.Name, q)
				}
				if detCounters(got.PerQuery[i]) != detCounters(base.PerQuery[i]) {
					t.Fatalf("trial %d workers=%d: attributed counters for %s %v, serial %v",
						trial, workers, q.Name, detCounters(got.PerQuery[i]), detCounters(base.PerQuery[i]))
				}
			}
		}
	}
}

// TestDAGEquivalenceUnderDetach pre-cancels one query's per-submission
// context: at every worker count the detached query must come back with
// its context error and partial results discarded, while the remaining
// queries stay byte-identical to the serial run.
func TestDAGEquivalenceUnderDetach(t *testing.T) {
	db, qs := testDB(t)
	queries := qset(qs, "Q1", "Q2", "Q3", "Q7")
	est := plan.NewEstimator(db)
	g, err := Optimize(est, queries, GG)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	env := exec.NewEnv(db)
	env.QueryCtx = func(q *query.Query) context.Context {
		if q == queries[0] {
			return canceled
		}
		return context.Background()
	}

	base, _ := runDAG(t, env, g, queries, 1)
	for _, workers := range []int{1, 4, 8} {
		got, _ := runDAG(t, env, g, queries, workers)
		if !errors.Is(got.Results[0].Err, context.Canceled) {
			t.Fatalf("workers=%d: detached query err = %v, want context.Canceled",
				workers, got.Results[0].Err)
		}
		for i := 1; i < len(queries); i++ {
			if got.Results[i].Err != nil {
				t.Fatalf("workers=%d: live query %s errored: %v", workers, queries[i].Name, got.Results[i].Err)
			}
			if !got.Results[i].Equal(base.Results[i]) {
				t.Fatalf("workers=%d: result for %s differs from serial", workers, queries[i].Name)
			}
			if detCounters(got.PerQuery[i]) != detCounters(base.PerQuery[i]) {
				t.Fatalf("workers=%d: attributed counters for %s differ from serial", workers, queries[i].Name)
			}
		}
	}
}

// TestDAGErrorReleasesResources injects disk faults so tasks fail while
// others are in flight, and checks the error paths leak
// nothing: the broker drains to zero, every buffer-pool page is
// unpinned (FlushAll refuses while pages are pinned), and the engine
// runs the same plan cleanly once the fault clears.
func TestDAGErrorReleasesResources(t *testing.T) {
	db, qs := testDB(t)
	queries := qset(qs, "Q1", "Q2", "Q3", "Q7", "Q8")
	est := plan.NewEstimator(db)
	g, err := Optimize(est, queries, GG)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected disk fault")
	faultOn := func(disk *storage.DiskManager) {
		disk.SetFault(func(op string, page uint32) error {
			if op == "read" {
				return boom
			}
			return nil
		})
	}

	// One faulted file per round: a dimension table (a build fails),
	// then each class's view heap (that class's pass fails mid-scan while
	// its siblings are in flight).
	victims := []*storage.File{db.DimTables[0].File()}
	for _, c := range g.Classes {
		victims = append(victims, c.View.Heap.File())
	}
	for vi, f := range victims {
		if err := db.ColdReset(); err != nil {
			t.Fatal(err)
		}
		faultOn(f.Disk())
		broker := mem.New(0)
		env := exec.NewEnv(db)
		env.Mem = broker
		var st exec.Stats
		_, err := Run(env, g, queries, &st, ExecOptions{Workers: 4, Est: est,
			Gate: func(ctx context.Context, cost int64) (func(), error) {
				return broker.Admit(ctx, cost)
			}})
		f.Disk().SetFault(nil)
		if !errors.Is(err, boom) {
			t.Fatalf("victim %d: Run err = %v, want injected fault", vi, err)
		}
		if used := broker.Stats().Used; used != 0 {
			t.Fatalf("victim %d: failed run left %d bytes reserved", vi, used)
		}
		if err := db.Pool.FlushAll(); err != nil {
			t.Fatalf("victim %d: pinned pages leaked across the failure: %v", vi, err)
		}
	}

	// Recovery: the same plan runs cleanly at full width.
	if err := db.ColdReset(); err != nil {
		t.Fatal(err)
	}
	env := exec.NewEnv(db)
	ex, _ := runDAG(t, env, g, queries, 4)
	for i, q := range queries {
		want, err := exec.Naive(env, q)
		if err != nil {
			t.Fatal(err)
		}
		if !ex.Results[i].Equal(want) {
			t.Fatalf("after recovery: wrong result for %s", q.Name)
		}
	}
}

// TestRunIOExcludesForeignFiles runs Q1+Q2 serially from a cold pool,
// once alone and once while another goroutine's work reads 8 pages of an
// unrelated file in the same buffer pool (injected through the first
// QueryCtx call, i.e. mid-pass). The run's page reads must not change:
// a node measures only the files it owns, at width 1 as at any width.
func TestRunIOExcludesForeignFiles(t *testing.T) {
	db, qs := testDB(t)
	queries := qset(qs, "Q1", "Q2")
	g, err := Optimize(plan.NewEstimator(db), queries, GG)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := db.Pool.OpenFile(filepath.Join(t.TempDir(), "foreign.pages"))
	if err != nil {
		t.Fatal(err)
	}
	const foreignPages = 8
	for i := 0; i < foreignPages; i++ {
		pg, err := db.Pool.NewPage(foreign)
		if err != nil {
			t.Fatal(err)
		}
		pg.Unpin()
	}
	defer func() {
		if err := db.Pool.CloseFile(foreign); err != nil {
			t.Fatal(err)
		}
	}()

	coldReads := func(hook func()) int64 {
		t.Helper()
		if err := db.ColdReset(); err != nil {
			t.Fatal(err)
		}
		env := exec.NewEnv(db)
		if hook != nil {
			var once sync.Once
			env.QueryCtx = func(*query.Query) context.Context {
				once.Do(hook)
				return nil
			}
		}
		var st exec.Stats
		if _, err := Run(env, g, queries, &st, ExecOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		return st.IO.Reads()
	}
	alone := coldReads(nil)
	before := db.Pool.Stats().Reads()
	beside := coldReads(func() {
		for i := uint32(0); i < foreignPages; i++ {
			pg, err := db.Pool.Fetch(foreign, i)
			if err != nil {
				t.Error(err)
				return
			}
			pg.Unpin()
		}
	})
	if got := foreign.IOStats().Reads(); got != foreignPages {
		t.Fatalf("hook read %d foreign pages, want %d", got, foreignPages)
	}
	if poolReads := db.Pool.Stats().Reads() - before; poolReads != beside+foreignPages {
		t.Fatalf("pool read %d pages, want the run's %d plus %d foreign", poolReads, beside, foreignPages)
	}
	if beside != alone {
		t.Fatalf("cold Q1+Q2 read %d pages beside foreign reads, %d alone", beside, alone)
	}
}
