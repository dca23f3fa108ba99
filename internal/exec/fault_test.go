package exec

import (
	"context"
	"errors"
	"testing"

	"mdxopt/internal/dag"
	"mdxopt/internal/query"
	"mdxopt/internal/storage"
)

// TestOperatorsPropagateDiskFaults injects read faults into the base
// table and the index files and checks every operator surfaces the error
// (no panics, no partial results mistaken for success) and that the
// system recovers once the fault clears.
func TestOperatorsPropagateDiskFaults(t *testing.T) {
	db, qs := testDB(t)
	env := NewEnv(db)
	view := db.ViewByLevels([]int{1, 1, 1, 0})
	boom := errors.New("injected disk fault")

	faultOn := func(disk *storage.DiskManager) {
		disk.SetFault(func(op string, page uint32) error {
			if op == "read" {
				return boom
			}
			return nil
		})
	}

	// Fault the base table: hash joins fail mid-scan.
	if err := db.ColdReset(); err != nil {
		t.Fatal(err)
	}
	faultOn(db.Base().Heap.File().Disk())
	var st Stats
	if _, err := HashJoinQuery(env, db.Base(), qs["Q1"], &st); !errors.Is(err, boom) {
		t.Fatalf("HashJoinQuery err = %v, want injected fault", err)
	}
	if _, err := SharedScanHash(env, db.Base(), []*query.Query{qs["Q1"], qs["Q2"]}, &st); !errors.Is(err, boom) {
		t.Fatalf("SharedScanHash err = %v, want injected fault", err)
	}
	db.Base().Heap.File().Disk().SetFault(nil)

	// Fault the view's heap: index joins fail at the probe.
	if err := db.ColdReset(); err != nil {
		t.Fatal(err)
	}
	faultOn(view.Heap.File().Disk())
	if _, err := IndexJoinQuery(env, view, qs["Q7"], &st); !errors.Is(err, boom) {
		t.Fatalf("IndexJoinQuery err = %v, want injected fault", err)
	}
	view.Heap.File().Disk().SetFault(nil)

	// Fault an index file: bitmap construction fails.
	if err := db.ColdReset(); err != nil {
		t.Fatal(err)
	}
	faultOn(view.Indexes[0].File().Disk())
	if _, err := SharedIndex(env, view, []*query.Query{qs["Q7"], qs["Q8"]}, &st); !errors.Is(err, boom) {
		t.Fatalf("SharedIndex err = %v, want injected fault", err)
	}
	view.Indexes[0].File().Disk().SetFault(nil)

	// Fault a dimension table: lookup builds fail.
	if err := db.ColdReset(); err != nil {
		t.Fatal(err)
	}
	faultOn(db.DimTables[0].File().Disk())
	if _, _, err := SharedMixed(env, view, []*query.Query{qs["Q3"]}, []*query.Query{qs["Q7"]}, &st); !errors.Is(err, boom) {
		t.Fatalf("SharedMixed err = %v, want injected fault", err)
	}
	db.DimTables[0].File().Disk().SetFault(nil)

	// Recovery: everything works again.
	if err := db.ColdReset(); err != nil {
		t.Fatal(err)
	}
	r, err := HashJoinQuery(env, db.Base(), qs["Q1"], &st)
	if err != nil {
		t.Fatalf("after clearing faults: %v", err)
	}
	checkAgainstOracle(t, env, r)
}

// TestCancellationAbortsScans cancels a context mid-scan and checks the
// operators abort promptly with the context's error.
func TestCancellationAbortsScans(t *testing.T) {
	db, qs := testDB(t)

	// Already-canceled context: the scan aborts at the first check.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	env := NewEnv(db)
	env.Ctx = ctx
	var st Stats
	if _, err := HashJoinQuery(env, db.Base(), qs["Q1"], &st); !errors.Is(err, context.Canceled) {
		t.Fatalf("hash join err = %v, want context.Canceled", err)
	}
	if st.TuplesScanned >= db.Base().Rows() {
		t.Fatal("canceled scan processed the whole table")
	}
	if _, _, err := SharedMixed(env, db.ViewByLevels([]int{1, 1, 1, 0}),
		[]*query.Query{qs["Q3"]}, []*query.Query{qs["Q7"]}, &st); !errors.Is(err, context.Canceled) {
		t.Fatalf("mixed err = %v, want context.Canceled", err)
	}
	if _, err := SharedIndex(env, db.ViewByLevels([]int{1, 1, 1, 0}),
		[]*query.Query{qs["Q5"], qs["Q6"]}, &st); !errors.Is(err, context.Canceled) {
		t.Fatalf("shared index err = %v, want context.Canceled", err)
	}

	// Parallel workers abort too.
	env.Pool = dag.NewPool(3)
	if _, err := SharedScanHash(env, db.Base(), []*query.Query{qs["Q1"], qs["Q2"]}, &st); !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel err = %v, want context.Canceled", err)
	}

	// A live context leaves everything working.
	env2 := NewEnv(db)
	env2.Ctx = context.Background()
	r, err := HashJoinQuery(env2, db.Base(), qs["Q1"], &st)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, env2, r)
}
