package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mdxopt/internal/exec"
	"mdxopt/internal/plan"
	"mdxopt/internal/query"
)

// TestRunGateAdmitsEveryTask: every task is admitted once with its
// estimated footprint and released once, at every width. At width 1
// the admissions come in the run's task order — the lookup builds in
// dimension order, then the classes in plan order — under the caller's
// own context.
func TestRunGateAdmitsEveryTask(t *testing.T) {
	db, qs := testDB(t)
	queries := qset(qs, "Q1", "Q2", "Q3", "Q7", "Q8")
	est := plan.NewEstimator(db)
	g, err := Optimize(est, queries, GG)
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for _, b := range plan.BuildTasks(g) {
		want = append(want, est.BuildMemory(b))
	}
	for _, c := range g.Classes {
		want = append(want, est.ClassPassMemory(c, len(want) > 0))
	}
	if len(want) <= len(g.Classes) {
		t.Fatal("the plan hoists no lookup build")
	}
	ctx := context.WithValue(context.Background(), t, "caller")
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var admitted []int64
		var released atomic.Int64
		env := exec.NewEnv(db)
		env.Ctx = ctx
		var st exec.Stats
		ex, err := Run(env, g, queries, &st, ExecOptions{Workers: workers, Est: est,
			Gate: func(gctx context.Context, cost int64) (func(), error) {
				if workers == 1 && gctx != ctx {
					t.Error("a width-1 task ran under a derived context")
				}
				mu.Lock()
				admitted = append(admitted, cost)
				mu.Unlock()
				return func() { released.Add(1) }, nil
			}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ex.DAGNodes != len(want) || len(admitted) != len(want) || released.Load() != int64(len(want)) {
			t.Fatalf("workers=%d: %d tasks, %d admitted, %d released; want %d", workers, ex.DAGNodes, len(admitted), released.Load(), len(want))
		}
		if workers == 1 && !slices.Equal(admitted, want) {
			t.Fatalf("serial admissions %v, want %v", admitted, want)
		}
		if ex.WorkerPeak < 1 || ex.WorkerPeak > ex.EffectiveWorkers || ex.EffectiveWorkers != workers {
			t.Fatalf("workers=%d: peak %d of effective width %d", workers, ex.WorkerPeak, ex.EffectiveWorkers)
		}
	}
}

// TestRunGateErrorIsAdmissionError: a refused admission fails the run
// with the gate's error, labeled as the admission of the refused task.
func TestRunGateErrorIsAdmissionError(t *testing.T) {
	db, qs := testDB(t)
	queries := qset(qs, "Q1", "Q2")
	g, err := Optimize(plan.NewEstimator(db), queries, GG)
	if err != nil {
		t.Fatal(err)
	}
	refused := errors.New("refused")
	for _, workers := range []int{1, 4} {
		var st exec.Stats
		_, err := Run(exec.NewEnv(db), g, queries, &st, ExecOptions{Workers: workers,
			Gate: func(context.Context, int64) (func(), error) { return nil, refused }})
		if !errors.Is(err, refused) || !strings.HasPrefix(err.Error(), "core: admit build ") {
			t.Fatalf("workers=%d: err = %v, want the first build's refused admission", workers, err)
		}
	}
}

// TestRunFailedBuildStartsNoClass: the lookup builds are the first task
// list, so when a build fails no class pass starts — no pass ever asks
// for a query's context — and the error names the failing build.
func TestRunFailedBuildStartsNoClass(t *testing.T) {
	db, qs := testDB(t)
	queries := qset(qs, "Q1", "Q2", "Q3", "Q7", "Q8")
	g, err := Optimize(plan.NewEstimator(db), queries, GG)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected disk fault")
	dim := db.DimTables[0].File().Disk()
	for _, workers := range []int{1, 4} {
		if err := db.ColdReset(); err != nil {
			t.Fatal(err)
		}
		dim.SetFault(func(op string, _ uint32) error {
			if op == "read" {
				return boom
			}
			return nil
		})
		env := exec.NewEnv(db)
		var passes atomic.Int64
		env.QueryCtx = func(*query.Query) context.Context {
			passes.Add(1)
			return nil
		}
		var st exec.Stats
		_, err := Run(env, g, queries, &st, ExecOptions{Workers: workers})
		dim.SetFault(nil)
		if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "core: build "+db.Schema.Dims[0].Name+": ") {
			t.Fatalf("workers=%d: err = %v, want the first dimension's build to fail", workers, err)
		}
		if passes.Load() != 0 {
			t.Fatalf("workers=%d: a class pass started after a build failed", workers)
		}
		if err := db.Pool.FlushAll(); err != nil {
			t.Fatalf("workers=%d: pinned pages leaked across the failure: %v", workers, err)
		}
	}
}

// TestRunEmptyPlan: a plan without classes or rollups runs no task and
// reports a peak of 0 at every width.
func TestRunEmptyPlan(t *testing.T) {
	db, _ := testDB(t)
	for _, workers := range []int{1, 4} {
		var st exec.Stats
		ex, err := Run(exec.NewEnv(db), &plan.Global{}, nil, &st, ExecOptions{Workers: workers})
		if err != nil || ex.DAGNodes != 0 || ex.WorkerPeak != 0 || len(ex.Results) != 0 {
			t.Fatalf("workers=%d: %+v, err %v", workers, ex, err)
		}
	}
}
