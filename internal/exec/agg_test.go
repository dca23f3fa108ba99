package exec

import (
	"testing"

	"mdxopt/internal/dag"
	"mdxopt/internal/query"
)

// aggVariants builds copies of q with every aggregate function.
func aggVariants(q *query.Query) []*query.Query {
	var out []*query.Query
	for _, agg := range []query.Agg{query.Sum, query.Count, query.Min, query.Max, query.Avg} {
		c := *q
		c.Agg = agg
		out = append(out, &c)
	}
	return out
}

// TestAggregatesOnBaseMatchOracle evaluates every aggregate of several
// workload queries on the base table and checks against the oracle.
func TestAggregatesOnBaseMatchOracle(t *testing.T) {
	db, qs := testDB(t)
	env := NewEnv(db)
	for _, name := range []string{"Q1", "Q3", "Q9"} {
		for _, q := range aggVariants(qs[name]) {
			var st Stats
			got, err := HashJoinQuery(env, db.Base(), q, &st)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, q.Agg, err)
			}
			want, err := Naive(env, q)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s/%s: hash join disagrees with oracle", name, q.Agg)
			}
		}
	}
}

// TestAggregatesOnMultiViewMatchOracle materializes a multi-aggregate
// view and evaluates every aggregate of a query from it, via both the
// hash and the bitmap-index paths.
func TestAggregatesOnMultiViewMatchOracle(t *testing.T) {
	db, qs := testDB(t)
	env := NewEnv(db)

	// A multi-aggregate view answering Q1/Q5-shaped queries, with an
	// index on dimension A for the bitmap path.
	levels := []int{1, 1, 1, 1}
	mv := db.ViewByLevels(levels)
	if mv == nil {
		var err error
		mv, err = db.MaterializeMulti(levels)
		if err != nil {
			t.Fatalf("MaterializeMulti: %v", err)
		}
		if err := db.BuildIndex(mv, 0); err != nil {
			t.Fatal(err)
		}
	}
	if !mv.MultiAgg() {
		t.Fatal("view lacks the multi-aggregate layout")
	}

	for _, base := range aggVariants(qs["Q5"]) {
		var st Stats
		hr, err := HashJoinQuery(env, mv, base, &st)
		if err != nil {
			t.Fatalf("hash %s: %v", base.Agg, err)
		}
		want, err := Naive(env, base)
		if err != nil {
			t.Fatal(err)
		}
		if !hr.Equal(want) {
			t.Fatalf("hash join %s on multi view disagrees with oracle", base.Agg)
		}
		ir, err := IndexJoinQuery(env, mv, base, &st)
		if err != nil {
			t.Fatalf("index %s: %v", base.Agg, err)
		}
		if !ir.Equal(want) {
			t.Fatalf("index join %s on multi view disagrees with oracle", base.Agg)
		}
	}
}

// TestNonSumRejectedOnSumOnlyView checks the executor refuses to compute
// COUNT from a view that only stores sums.
func TestNonSumRejectedOnSumOnlyView(t *testing.T) {
	db, qs := testDB(t)
	env := NewEnv(db)
	sumView := db.ViewByLevels([]int{1, 1, 1, 0})
	if sumView.MultiAgg() {
		t.Fatal("paper view unexpectedly multi-aggregate")
	}
	q := *qs["Q5"]
	q.Agg = query.Count
	var st Stats
	if _, err := HashJoinQuery(env, sumView, &q, &st); err == nil {
		t.Fatal("COUNT on a sum-only view was accepted")
	}
	// SUM on the same view remains fine.
	q.Agg = query.Sum
	if _, err := HashJoinQuery(env, sumView, &q, &st); err != nil {
		t.Fatal(err)
	}
}

// TestSharedOperatorsMixedAggregates runs a shared scan whose member
// queries use different aggregates.
func TestSharedOperatorsMixedAggregates(t *testing.T) {
	db, qs := testDB(t)
	env := NewEnv(db)
	variants := aggVariants(qs["Q1"])
	var st Stats
	results, err := SharedScanHash(env, db.Base(), variants, &st)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range variants {
		want, err := Naive(env, q)
		if err != nil {
			t.Fatal(err)
		}
		if !results[i].Equal(want) {
			t.Fatalf("shared scan %s disagrees with oracle", q.Agg)
		}
	}
	// Cross-aggregate sanity: avg = sum / count, min <= avg <= max.
	sum, count, min, max, avg := results[0], results[1], results[2], results[3], results[4]
	for i := range sum.Groups {
		s, c, a := sum.Groups[i].Value, count.Groups[i].Value, avg.Groups[i].Value
		if c == 0 || s/c != a {
			t.Fatalf("group %d: avg %v != sum/count %v", i, a, s/c)
		}
		if min.Groups[i].Value > a || a > max.Groups[i].Value {
			t.Fatalf("group %d: avg outside [min,max]", i)
		}
	}
}

// TestParallelSharedScanMatchesSerial checks partitioned scans with
// merged per-worker aggregation tables produce identical results for
// every aggregate, on both the pure-hash and the mixed operators.
func TestParallelSharedScanMatchesSerial(t *testing.T) {
	db, qs := testDB(t)
	group := aggVariants(qs["Q1"])
	group = append(group, qs["Q2"], qs["Q3"])

	serialEnv := NewEnv(db)
	var serialStats Stats
	want, err := SharedScanHash(serialEnv, db.Base(), group, &serialStats)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 3, 7} {
		env := NewEnv(db)
		env.Pool = dag.NewPool(workers)
		var st Stats
		got, err := SharedScanHash(env, db.Base(), group, &st)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range group {
			if !got[i].Equal(want[i]) {
				t.Fatalf("workers=%d: result %d differs from serial", workers, i)
			}
		}
		// Work conservation: same tuples scanned and probed in total.
		if st.TuplesScanned != serialStats.TuplesScanned {
			t.Fatalf("workers=%d scanned %d, serial %d", workers, st.TuplesScanned, serialStats.TuplesScanned)
		}
		if st.TupleProbes != serialStats.TupleProbes {
			t.Fatalf("workers=%d probed %d, serial %d", workers, st.TupleProbes, serialStats.TupleProbes)
		}
	}

	// Mixed operator, parallel.
	view := db.ViewByLevels([]int{1, 1, 1, 0})
	hash := []*query.Query{qs["Q3"]}
	index := []*query.Query{qs["Q5"], qs["Q7"]}
	serialH, serialI, err := SharedMixed(serialEnv, view, hash, index, &serialStats)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(db)
	env.Pool = dag.NewPool(4)
	var st Stats
	gh, gi, err := SharedMixed(env, view, hash, index, &st)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serialH {
		if !gh[i].Equal(serialH[i]) {
			t.Fatalf("mixed parallel hash result %d differs", i)
		}
	}
	for i := range serialI {
		if !gi[i].Equal(serialI[i]) {
			t.Fatalf("mixed parallel index result %d differs", i)
		}
	}
}
