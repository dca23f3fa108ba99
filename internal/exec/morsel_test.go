package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"mdxopt/internal/dag"
	"mdxopt/internal/query"
)

// Morsel-driven scan equivalence: the shared-scan operators must produce
// byte-identical results and identical deterministic work counters at
// every worker count and morsel grain — the merge order (worker index),
// the canonical result sort, and the exact float64 measure sums make the
// outcome independent of how pages were dealt out.

// scanCounters projects the deterministic counters of a shared pass —
// the fields that may not vary with worker count or morsel grain. I/O
// and wall-clock metrics legitimately change with scheduling.
func scanCounters(s Stats) [8]int64 {
	return [8]int64{
		s.TuplesScanned, s.TupleProbes, s.TuplesAgg, s.TuplesFetched,
		s.HashBuildRows, s.BitmapWords, s.BitTests, s.CacheRows,
	}
}

// checkOwnCounters requires every result's own deterministic work to
// equal the serial pass's.
func checkOwnCounters(t *testing.T, got, want []*Result) {
	t.Helper()
	for i := range got {
		if deriveCounters(got[i].Own) != deriveCounters(want[i].Own) {
			t.Fatalf("%s own counters %v, serial %v", got[i].Query.Name, deriveCounters(got[i].Own), deriveCounters(want[i].Own))
		}
	}
}

// TestMorselEquivalenceRandomized fuzzes SharedScanHash across widths:
// random query subsets at every width and grain of widthGrains (down to
// one-page morsels, the maximum-stealing worst case) — all must match
// the serial pass exactly, per-member own counters included.
func TestMorselEquivalenceRandomized(t *testing.T) {
	db, qs := testDB(t)
	all := []*query.Query{qs["Q1"], qs["Q2"], qs["Q3"], qs["Q4"], qs["Q9"]}
	rng := rand.New(rand.NewSource(20260808))

	for trial := 0; trial < 6; trial++ {
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		group := append([]*query.Query(nil), all[:2+rng.Intn(len(all)-1)]...)

		env := NewEnv(db)
		var baseSt Stats
		baseline, err := SharedScanHash(env, db.Base(), group, &baseSt)
		if err != nil {
			t.Fatalf("trial %d serial: %v", trial, err)
		}
		for _, run := range widthGrains {
			penv := NewEnv(db)
			penv.Pool, penv.MorselPages = dag.NewPool(run[0]), run[1]
			var st Stats
			results, err := SharedScanHash(penv, db.Base(), group, &st)
			if err != nil {
				t.Fatalf("trial %d run %v: %v", trial, run, err)
			}
			checkIdentical(t, results, baseline)
			checkOwnCounters(t, results, baseline)
			if scanCounters(st) != scanCounters(baseSt) {
				t.Fatalf("trial %d run %v: counters %v, serial %v",
					trial, run, scanCounters(st), scanCounters(baseSt))
			}
		}
	}
}

// TestMorselEquivalenceMixed runs the mixed scan+probe pass at every
// width: only the scan side fans out into morsels, and both result sets
// must stay identical to serial.
func TestMorselEquivalenceMixed(t *testing.T) {
	db, qs := testDB(t)
	view := db.ViewByLevels([]int{1, 1, 1, 0})
	if view == nil {
		t.Skip("A'B'C'D view not materialized")
	}
	hash := []*query.Query{qs["Q3"]}
	index := []*query.Query{qs["Q7"], qs["Q8"]}

	env := NewEnv(db)
	var baseSt Stats
	baseHash, baseIndex, err := SharedMixed(env, view, hash, index, &baseSt)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range widthGrains {
		penv := NewEnv(db)
		penv.Pool, penv.MorselPages = dag.NewPool(run[0]), run[1]
		var st Stats
		gotHash, gotIndex, err := SharedMixed(penv, view, hash, index, &st)
		if err != nil {
			t.Fatalf("run %v: %v", run, err)
		}
		checkIdentical(t, gotHash, baseHash)
		checkIdentical(t, gotIndex, baseIndex)
		checkOwnCounters(t, gotHash, baseHash)
		checkOwnCounters(t, gotIndex, baseIndex)
		if scanCounters(st) != scanCounters(baseSt) {
			t.Fatalf("run %v: counters %v, serial %v",
				run, scanCounters(st), scanCounters(baseSt))
		}
	}
}

// TestMorselSpillEquivalence: a memory budget far below the working set
// forces every worker's aggregation table through the spill path; the
// merged results must still match the unbudgeted serial run and the
// broker must drain to zero.
func TestMorselSpillEquivalence(t *testing.T) {
	db, qs := testDB(t)
	group := []*query.Query{qs["Q1"], qs["Q2"], qs["Q3"], qs["Q4"], qs["Q9"]}

	env := NewEnv(db)
	var baseSt Stats
	baseline, err := SharedScanHash(env, db.Base(), group, &baseSt)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range widthGrains {
		penv, broker := budgetedEnv(t, db, 1<<12)
		penv.Pool, penv.MorselPages = dag.NewPool(run[0]), run[1]
		var st Stats
		results, err := SharedScanHash(penv, db.Base(), group, &st)
		if err != nil {
			t.Fatalf("run %v: %v", run, err)
		}
		checkIdentical(t, results, baseline)
		checkOwnCounters(t, results, baseline)
		checkDrained(t, broker)
		if st.SpillBytes == 0 {
			t.Fatalf("run %v: 4KiB budget did not spill: %s", run, st)
		}
	}
}

// TestMorselDetachMidScan cancels one query's per-submission context
// partway through a parallel scan — triggered by a disk-read hook, so
// the cancellation lands mid-morsel with workers in flight. The dead
// query must come back detached, the pass must still scan every row
// exactly once across all workers, and the survivor must stay
// oracle-correct.
func TestMorselDetachMidScan(t *testing.T) {
	db, qs := testDB(t)
	if err := db.ColdReset(); err != nil {
		t.Fatal(err)
	}
	dead, live := qs["Q1"], qs["Q9"]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	disk := db.Base().Heap.File().Disk()
	var reads atomic.Int64
	disk.SetFault(func(op string, page uint32) error {
		if op == "read" && reads.Add(1) == 8 {
			cancel()
		}
		return nil
	})
	defer disk.SetFault(nil)

	env := NewEnv(db)
	env.Pool = dag.NewPool(4)
	env.MorselPages = 1
	env.QueryCtx = func(q *query.Query) context.Context {
		if q == dead {
			return ctx
		}
		return context.Background()
	}

	var st Stats
	rs, err := SharedScanHash(env, db.Base(), []*query.Query{dead, live}, &st)
	if err != nil {
		t.Fatalf("SharedScanHash: %v", err)
	}
	if !errors.Is(rs[0].Err, context.Canceled) {
		t.Fatalf("dead query's err = %v, want context.Canceled", rs[0].Err)
	}
	if rs[1].Err != nil {
		t.Fatalf("surviving query's result has error: %v", rs[1].Err)
	}
	if st.TuplesScanned != db.Base().Rows() {
		t.Fatalf("pass scanned %d of %d rows: detach aborted the shared scan",
			st.TuplesScanned, db.Base().Rows())
	}
	disk.SetFault(nil)
	env.QueryCtx = nil
	checkAgainstOracle(t, env, rs[1])
}

// TestMorselAllDetachedStopsEarly: when every pipeline detaches, the
// morsel workers stop claiming at the next boundary instead of scanning
// the rest of the table for no one.
func TestMorselAllDetachedStopsEarly(t *testing.T) {
	db, qs := testDB(t)
	env := NewEnv(db)
	env.Pool = dag.NewPool(4)
	env.MorselPages = 1
	env.QueryCtx = func(*query.Query) context.Context { return canceledCtx() }

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

// TestPoolDriveClaimsEveryRangeOnce: whatever the width and grain —
// zero pages, fewer pages than workers, one worker — the driver's
// claims are grain-aligned, lie inside [0, n) and cover it exactly once,
// so no page is scanned twice or skipped; the first real error is
// returned, errDetached is not. At width 1 the claims run inline, in
// order, without allocating.
func TestPoolDriveClaimsEveryRangeOnce(t *testing.T) {
	db, _ := testDB(t)
	env := NewEnv(db)
	for _, n := range []int64{0, 1, 5, 40, 1001} {
		for _, width := range []int{1, 2, 3, 8} {
			env.Pool = dag.NewPool(width)
			for _, grain := range []int64{1, 3, 16} {
				claims := make([][][2]int64, width)
				err := poolDrive(env, n, grain, width, func(w int, from, to int64) error {
					claims[w] = append(claims[w], [2]int64{from, to})
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				seen := make([]int, n)
				for _, cs := range claims {
					for _, c := range cs {
						if c[0]%grain != 0 || c[0] >= c[1] || c[1] > n || c[1]-c[0] > grain {
							t.Fatalf("n=%d width=%d grain=%d: bad claim %v", n, width, grain, c)
						}
						for p := c[0]; p < c[1]; p++ {
							seen[p]++
						}
					}
				}
				for p, k := range seen {
					if k != 1 {
						t.Fatalf("n=%d width=%d grain=%d: page %d claimed %d times", n, width, grain, p, k)
					}
				}
			}
		}
	}
	var next int64
	inOrder := func(w int, from, to int64) error {
		if w != 0 || from != next {
			return fmt.Errorf("worker %d claimed %d, want worker 0 at %d", w, from, next)
		}
		next = to
		return nil
	}
	env.Pool = nil
	if allocs := testing.AllocsPerRun(5, func() {
		next = 0
		if err := poolDrive(env, 1001, 16, 1, inOrder); err != nil || next != 1001 {
			t.Fatalf("width 1: %v, claimed up to %d", err, next)
		}
	}); allocs != 0 {
		t.Fatalf("poolDrive at width 1 allocates %v objects, want 0", allocs)
	}

	boom := errors.New("boom")
	for _, width := range []int{1, 4} {
		env.Pool = dag.NewPool(width)
		for _, fail := range []error{boom, errDetached} {
			err := poolDrive(env, 100, 1, width, func(w int, from, to int64) error {
				if from == 10 {
					return fail
				}
				return nil
			})
			if want := map[error]error{boom: boom, errDetached: nil}[fail]; err != want {
				t.Fatalf("width %d, run failing with %v: poolDrive returned %v, want %v", width, fail, err, want)
			}
		}
	}
}

// TestScanWidthResolution: a pass's width is its pool's, clamped to the
// pool cap, and serial without a pool.
func TestScanWidthResolution(t *testing.T) {
	db, _ := testDB(t)
	env := NewEnv(db)
	if got := env.scanWidth(); got != 1 {
		t.Fatalf("scanWidth without a pool = %d, want 1", got)
	}
	env.Pool = dag.NewPool(2)
	if got := env.scanWidth(); got != 2 {
		t.Fatalf("scanWidth = %d with a width-2 pool, want 2", got)
	}
	env.Pool = dag.NewPool(1 << 20)
	if got, cap := env.scanWidth(), dag.WorkerCap(); got != cap {
		t.Fatalf("scanWidth = %d, want clamp to WorkerCap %d", got, cap)
	}
}
