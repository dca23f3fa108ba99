package exec

import (
	"context"
	"reflect"
	"testing"
	"time"

	"mdxopt/internal/query"
)

// canceledCtx returns an already-canceled context.
func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestDetachLeavesSharersIntact cancels one query's per-submission
// context before a shared scan: its pipelines must detach (Result.Err
// set) while the other query's answer stays oracle-correct and the pass
// completes.
func TestDetachLeavesSharersIntact(t *testing.T) {
	db, qs := testDB(t)
	env := NewEnv(db)
	dead, live := qs["Q1"], qs["Q9"]
	env.QueryCtx = func(q *query.Query) context.Context {
		if q == dead {
			return canceledCtx()
		}
		return context.Background()
	}
	defer func() { env.QueryCtx = nil }()

	var st Stats
	rs, err := SharedScanHash(env, db.Base(), []*query.Query{dead, live}, &st)
	if err != nil {
		t.Fatalf("SharedScanHash: %v", err)
	}
	if rs[0].Err == nil {
		t.Fatal("canceled query's result has no error")
	}
	if rs[1].Err != nil {
		t.Fatalf("surviving query's result has error: %v", rs[1].Err)
	}
	if st.TuplesScanned != db.Base().Rows() {
		t.Fatalf("pass scanned %d of %d rows: detach aborted the shared scan", st.TuplesScanned, db.Base().Rows())
	}
	env.QueryCtx = nil
	checkAgainstOracle(t, env, rs[1])
}

// TestAllDetachedAbortsPass verifies the complementary rule: when every
// pipeline's submission is canceled there is no one left to scan for,
// so the pass stops early instead of reading the whole table.
func TestAllDetachedAbortsPass(t *testing.T) {
	db, qs := testDB(t)
	env := NewEnv(db)
	env.QueryCtx = func(*query.Query) context.Context { return canceledCtx() }
	defer func() { env.QueryCtx = nil }()

	var st Stats
	rs, err := SharedScanHash(env, db.Base(), []*query.Query{qs["Q1"], qs["Q9"]}, &st)
	if err != nil {
		t.Fatalf("SharedScanHash: %v", err)
	}
	for i, r := range rs {
		if r.Err == nil {
			t.Fatalf("result %d of an all-canceled pass has no error", i)
		}
	}
	if st.TuplesScanned >= db.Base().Rows() {
		t.Fatalf("all pipelines detached but the pass scanned all %d rows", st.TuplesScanned)
	}
}

// TestDetachIndexPass exercises detachment on the shared-probe side.
func TestDetachIndexPass(t *testing.T) {
	db, qs := testDB(t)
	view := db.ViewByLevels([]int{1, 1, 1, 0})
	if view == nil {
		t.Skip("A'B'C'D view not materialized")
	}
	env := NewEnv(db)
	dead, live := qs["Q7"], qs["Q8"]
	env.QueryCtx = func(q *query.Query) context.Context {
		if q == dead {
			return canceledCtx()
		}
		return context.Background()
	}
	defer func() { env.QueryCtx = nil }()

	var st Stats
	rs, err := SharedIndex(env, view, []*query.Query{dead, live}, &st)
	if err != nil {
		t.Fatalf("SharedIndex: %v", err)
	}
	if rs[0].Err == nil {
		t.Fatal("canceled query's result has no error")
	}
	if rs[1].Err != nil {
		t.Fatalf("surviving query's result has error: %v", rs[1].Err)
	}
	env.QueryCtx = nil
	checkAgainstOracle(t, env, rs[1])
}

// TestAttributeConservesComponents checks the attribution invariant:
// per-query shares sum back to the pass totals (when pass >= sum of
// own), and each query keeps at least its own exactly-counted work.
func TestAttributeConservesComponents(t *testing.T) {
	var pass Stats
	pass.TuplesScanned = 1000
	pass.TupleProbes = 250
	pass.TuplesAgg = 103

	own := []Stats{{TupleProbes: 100, TuplesAgg: 1}, {TupleProbes: 150, TuplesAgg: 2}, {}}
	out := Attribute(pass, own)
	if len(out) != 3 {
		t.Fatalf("Attribute returned %d stats, want 3", len(out))
	}
	var sumScan, sumProbes, sumAgg int64
	for i, s := range out {
		if s.TupleProbes < own[i].TupleProbes {
			t.Fatalf("query %d lost own probes: %d < %d", i, s.TupleProbes, own[i].TupleProbes)
		}
		sumScan += s.TuplesScanned
		sumProbes += s.TupleProbes
		sumAgg += s.TuplesAgg
	}
	if sumScan != pass.TuplesScanned {
		t.Fatalf("scan shares sum to %d, want %d", sumScan, pass.TuplesScanned)
	}
	if sumProbes != pass.TupleProbes {
		t.Fatalf("probe shares sum to %d, want %d", sumProbes, pass.TupleProbes)
	}
	if sumAgg != pass.TuplesAgg {
		t.Fatalf("agg shares sum to %d, want %d", sumAgg, pass.TuplesAgg)
	}
	// The 1000-row scan splits 334/333/333 — remainder to the earliest.
	if out[0].TuplesScanned != 334 || out[2].TuplesScanned != 333 {
		t.Fatalf("scan split %d/%d/%d, want 334/333/333",
			out[0].TuplesScanned, out[1].TuplesScanned, out[2].TuplesScanned)
	}
}

// TestAttributeClampsNegativeResidual: when the queries' own counts
// exceed the pass total for a component (possible for fetch-side
// counters), attribution must not go negative — own counts are kept.
func TestAttributeClampsNegativeResidual(t *testing.T) {
	var pass Stats
	pass.TuplesFetched = 10
	own := []Stats{{TuplesFetched: 8}, {TuplesFetched: 8}}
	out := Attribute(pass, own)
	for i, s := range out {
		if s.TuplesFetched != 8 {
			t.Fatalf("query %d fetched share %d, want its own 8", i, s.TuplesFetched)
		}
	}
}

// TestStatComponentsCoverEveryField is the compile-coupled check the
// Stats doc promises: every int64 and time.Duration leaf of Stats,
// including those of the nested IO counters, is a cell of
// statComponents, so Attribute never silently drops a counter.
func TestStatComponentsCoverEveryField(t *testing.T) {
	var s Stats
	cells := map[uintptr]bool{}
	for _, c := range statComponents(&s) {
		cells[reflect.ValueOf(c).Pointer()] = true
	}
	durType := reflect.TypeOf(time.Duration(0))
	leaves := 0
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			switch {
			case f.Kind() == reflect.Struct:
				walk(f, name+".")
			case f.Type() == durType || f.Kind() == reflect.Int64:
				leaves++
				if !cells[f.Addr().Pointer()] {
					t.Errorf("Stats.%s is not in statComponents", name)
				}
			}
		}
	}
	walk(reflect.ValueOf(&s).Elem(), "")
	if n := len(statComponents(&s)); n != leaves {
		t.Fatalf("statComponents has %d cells, Stats has %d int64/Duration leaves", n, leaves)
	}
}
