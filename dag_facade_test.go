package mdxopt

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"mdxopt/internal/workload"
)

// TestWorkersEquivalence runs the same expressions serially and with
// the parallel executor and requires byte-identical answers:
// same component queries, groups, orders and values, and the same
// deterministic work counters.
func TestWorkersEquivalence(t *testing.T) {
	db := sample(t)
	srcs := []string{
		// Four component queries at mixed granularities: several classes.
		`{A''.A1.CHILDREN, A'.AA2} on COLUMNS {B''.B1, B'.BB3} on ROWS CONTEXT ABCD FILTER (D'.DD1)`,
		workload.MDX()["Q1"],
	}
	for _, src := range srcs {
		base, err := db.QueryWith(src, Options{Workers: 1, ColdCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if base.Stats.DAGNodes == 0 || base.Stats.WorkerPeak != 1 {
			t.Fatalf("serial run reported DAG nodes=%d peak=%d",
				base.Stats.DAGNodes, base.Stats.WorkerPeak)
		}
		par, err := db.QueryWith(src, Options{Workers: 4, ColdCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par.Queries, base.Queries) {
			t.Fatalf("parallel answer differs from serial for %q", src)
		}
		if par.Stats.DAGNodes != base.Stats.DAGNodes {
			t.Fatalf("DAG nodes %d vs %d serial", par.Stats.DAGNodes, base.Stats.DAGNodes)
		}
		if par.Stats.TuplesScanned != base.Stats.TuplesScanned ||
			par.Stats.TuplesFetched != base.Stats.TuplesFetched {
			t.Fatalf("parallel work counters differ: %+v vs %+v", par.Stats, base.Stats)
		}
		if used := db.MemoryStats().Used; used != 0 {
			t.Fatalf("%d bytes still reserved after the query", used)
		}
	}
}

// TestWorkersUnderMutation races parallel-executor queries against
// value-preserving mutations: answers must never change, with the
// serialization and the task lists' error/cleanup paths exercised
// together.
func TestWorkersUnderMutation(t *testing.T) {
	dir, err := os.MkdirTemp("", "mdxopt-dagmut-test")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db, err := CreateSample(filepath.Join(dir, "db"), 0.002)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	pool := workload.MDX()
	srcs := []string{pool["Q1"], pool["Q3"], pool["Q7"]}
	opts := Options{Workers: 4}
	want := make([]*Answer, len(srcs))
	for i, src := range srcs {
		if want[i], err = db.QueryWith(src, opts); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	errs := make(chan error, 16)
	var wg sync.WaitGroup
	for w := range srcs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a, err := db.QueryWith(srcs[w], opts)
				if err != nil {
					errs <- fmt.Errorf("worker %d iter %d: %w", w, i, err)
					return
				}
				if !reflect.DeepEqual(a.Queries, want[w].Queries) {
					errs <- fmt.Errorf("worker %d iter %d: answer changed under concurrent mutation", w, i)
					return
				}
			}
		}(w)
	}

	if err := db.Materialize("A''", "B''", "C''", "D'"); err != nil {
		errs <- fmt.Errorf("materialize: %w", err)
	}
	if err := db.Refresh(); err != nil {
		errs <- fmt.Errorf("refresh: %w", err)
	}
	if err := db.Compact("A''", "B''", "C''", "D'"); err != nil {
		errs <- fmt.Errorf("compact: %w", err)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if used := db.MemoryStats().Used; used != 0 {
		t.Fatalf("%d bytes still reserved after the race", used)
	}
}
