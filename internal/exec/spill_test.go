package exec

import (
	"fmt"
	"sync"
	"testing"

	"mdxopt/internal/mem"
	"mdxopt/internal/query"
)

// Spill correctness: under a memory budget smaller than the working
// set, every shared operator must spill its aggregation state and still
// produce results byte-identical to the unbudgeted run (the datagen
// measures are whole dollars, so float64 sums are exact under any
// association order — Result.Equal compares with ==). After every pass
// the broker's accounting must return to zero.

// budgetedEnv returns an Env governed by a fresh broker with the given
// budget, spilling into a test temp dir with a small fanout (so the
// page-buffer overdraft stays modest).
func budgetedEnv(t *testing.T, db interface{}, budget int64) (*Env, *mem.Broker) {
	t.Helper()
	env := NewEnv(sharedDB)
	broker := mem.New(budget)
	env.Mem = broker
	env.SpillDir = t.TempDir()
	env.SpillFanout = 4
	return env, broker
}

// checkDrained fails the test if the broker still holds memory after a
// pass finished.
func checkDrained(t *testing.T, broker *mem.Broker) {
	t.Helper()
	if used := broker.Used(); used != 0 {
		t.Fatalf("broker holds %d bytes after the pass (stats: %s)", used, broker.Stats())
	}
}

func checkIdentical(t *testing.T, got, want []*Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result count %d != %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: spilled result differs from in-memory result\n got %d groups total %v\nwant %d groups total %v",
				got[i].Query.Name, len(got[i].Groups), got[i].Total(), len(want[i].Groups), want[i].Total())
		}
	}
}

func TestSpillEquivalenceSharedScanHash(t *testing.T) {
	db, qs := testDB(t)
	group := []*query.Query{qs["Q1"], qs["Q2"], qs["Q3"], qs["Q4"], qs["Q9"]}

	var baseline []*Result
	{
		env := NewEnv(db)
		var st Stats
		var err error
		baseline, err = SharedScanHash(env, db.Base(), group, &st)
		if err != nil {
			t.Fatal(err)
		}
		if st.SpillBytes != 0 || st.SpillPartitions != 0 {
			t.Fatalf("ungoverned run spilled: %s", st)
		}
	}

	for _, budget := range []int64{1 << 12, 1 << 16, 1 << 22} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			env, broker := budgetedEnv(t, db, budget)
			var st Stats
			results, err := SharedScanHash(env, db.Base(), group, &st)
			if err != nil {
				t.Fatal(err)
			}
			checkIdentical(t, results, baseline)
			checkDrained(t, broker)
			if budget == 1<<12 && st.SpillBytes == 0 {
				t.Fatalf("4KiB budget did not spill: %s", st)
			}
			if st.PeakMemory == 0 {
				t.Fatalf("no memory tracked: %s", st)
			}
		})
	}
}

func TestSpillEquivalenceSharedIndex(t *testing.T) {
	db, qs := testDB(t)
	indexed := db.ViewByLevels([]int{1, 1, 1, 0})
	group := []*query.Query{qs["Q5"], qs["Q6"], qs["Q7"], qs["Q8"]}

	env0 := NewEnv(db)
	var st0 Stats
	baseline, err := SharedIndex(env0, indexed, group, &st0)
	if err != nil {
		t.Fatal(err)
	}

	env, broker := budgetedEnv(t, db, 1<<12)
	var st Stats
	results, err := SharedIndex(env, indexed, group, &st)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, results, baseline)
	checkDrained(t, broker)
	if st.SpillBytes == 0 {
		t.Fatalf("tiny budget did not spill on the index path: %s", st)
	}
}

func TestSpillEquivalenceSharedMixed(t *testing.T) {
	db, qs := testDB(t)
	view := db.ViewByLevels([]int{1, 1, 1, 0})
	hash := []*query.Query{qs["Q3"]}
	index := []*query.Query{qs["Q5"], qs["Q6"], qs["Q7"]}

	env0 := NewEnv(db)
	var st0 Stats
	hr0, ir0, err := SharedMixed(env0, view, hash, index, &st0)
	if err != nil {
		t.Fatal(err)
	}

	// The mixed working set on this small view is only a few KiB, so the
	// budget must be tiny for required state (lookups, bitmaps) to
	// overdraft it and force every aggregation grant to be denied.
	env, broker := budgetedEnv(t, db, 1<<8)
	var st Stats
	hr, ir, err := SharedMixed(env, view, hash, index, &st)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, hr, hr0)
	checkIdentical(t, ir, ir0)
	checkDrained(t, broker)
	if st.SpillBytes == 0 {
		t.Fatalf("tiny budget did not spill on the mixed path: %s", st)
	}
}

func TestSpillEquivalenceParallelWorkers(t *testing.T) {
	db, qs := testDB(t)
	group := []*query.Query{qs["Q1"], qs["Q2"], qs["Q3"], qs["Q4"]}

	// Baseline: parallel but ungoverned (parallel merge order already
	// yields exact sums: whole-dollar measures).
	env0 := NewEnv(db)
	env0.Pool = NewPool(4)
	var st0 Stats
	baseline, err := SharedScanHash(env0, db.Base(), group, &st0)
	if err != nil {
		t.Fatal(err)
	}

	env, broker := budgetedEnv(t, db, 1<<12)
	env.Pool = NewPool(4)
	var st Stats
	results, err := SharedScanHash(env, db.Base(), group, &st)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, results, baseline)
	checkDrained(t, broker)
	if st.SpillBytes == 0 {
		t.Fatalf("tiny budget did not spill with parallel workers: %s", st)
	}
}

// mergeWidths are the key widths the spill-merge tests run at.
var mergeWidths = []struct {
	name  string
	cards []int32
}{
	{"one_word", []int32{1 << 16, 4}},
	{"two_word", []int32{1 << 30, 1 << 30, 1 << 30}},
}

// mergeKey is the i-th key of a spill-merge test. The two-word keys
// share three low words and differ in the high word, so the merge
// table's equality test must read both.
func mergeKey(kp *keyPacker, i int) (lo, hi uint64) {
	if kp.twoWords() {
		return kp.pack([]int32{int32(i % 3), 0, int32(i) << 4})
	}
	return kp.pack([]int32{int32(i), int32(i % 4)})
}

// spilledTable folds rounds × keys deltas of value(round, i) into a
// fresh table on env, which must spill, and returns it with the
// expected sums.
func spilledTable(t *testing.T, env *Env, kp *keyPacker, rounds, keys int, value func(round, i int) float64) (*foldTable, map[[2]uint64]float64) {
	t.Helper()
	tab := newFoldTable(env, query.Sum, kp, "t")
	want := make(map[[2]uint64]float64)
	for round := 0; round < rounds; round++ {
		for i := 0; i < keys; i++ {
			lo, hi := mergeKey(kp, i)
			d := accum{a: value(round, i), set: true}
			if err := tab.foldKey(lo, hi, d); err != nil {
				t.Fatal(err)
			}
			want[[2]uint64{lo, hi}] += d.a
		}
	}
	if tab.sp == nil {
		t.Fatal("saturated broker did not force a spill")
	}
	return tab, want
}

// checkMergedRows requires rows to hold every key of want exactly once,
// with its exact sum.
func checkMergedRows(t *testing.T, kp *keyPacker, rows []foldRow, want map[[2]uint64]float64) {
	t.Helper()
	if len(rows) != len(want) {
		t.Fatalf("got %d groups, want %d (duplicates mean a key was split between merge table and overflow)", len(rows), len(want))
	}
	seen := make(map[[2]uint64]bool, len(rows))
	for _, r := range rows {
		k := rowKey(kp, r)
		if seen[k] {
			t.Fatalf("key %#x surfaced twice", k)
		}
		seen[k] = true
		if r.a != want[k] {
			t.Fatalf("key %#x: got %v, want %v", k, r.a, want[k])
		}
	}
}

// TestFoldTableMergeOverflow forces the partition merge itself past the
// budget, at both key widths: a blocker reservation keeps the broker
// saturated, so each merge sub-pass admits only the keys its
// progress-floor slab holds and diverts the rest to an overflow
// partition. The result must still be exact.
func TestFoldTableMergeOverflow(t *testing.T) {
	for _, mw := range mergeWidths {
		t.Run(mw.name, func(t *testing.T) {
			broker := mem.New(1 << 10)
			env := &Env{Mem: broker, SpillDir: t.TempDir(), SpillFanout: 2}
			blocker := broker.Reserve("blocker")
			blocker.MustGrow(1 << 10) // saturate: every TryGrow from here on is denied

			kp, _ := newKeyPackerFromCards(mw.cards)
			tab, want := spilledTable(t, env, kp, 3, 100, func(round, i int) float64 { return float64(i*round + 1) })
			defer tab.close()
			rows, err := tab.rows()
			if err != nil {
				t.Fatal(err)
			}
			checkMergedRows(t, kp, rows, want)
			tab.close()
			blocker.Release()
			checkDrained(t, broker)
		})
	}
}

// TestFoldTableMergeStickyOverflow verifies, at both key widths, that
// overflow diversion is sticky within a merge sub-pass. With a grant
// retried per record, a key whose first record was diverted could be
// admitted to the merge table on a later record when a concurrent
// pipeline releases memory mid-merge — the key would then surface
// twice, with its sum split between the two copies. Stickiness is
// observable deterministically through the denial counter: each
// sub-pass consults the broker at most once after its progress-floor
// keys, so a merge of N keys incurs at most N denials, while per-record
// retries incur one denial per diverted record (hundreds per key here).
func TestFoldTableMergeStickyOverflow(t *testing.T) {
	for _, mw := range mergeWidths {
		t.Run(mw.name, func(t *testing.T) {
			// The budget comfortably holds the spill's merge floor, so
			// denial comes from the blocker, not from the floor's own
			// overdraft.
			const budget = 1 << 16
			broker := mem.New(budget)
			env := &Env{Mem: broker, SpillDir: t.TempDir(), SpillFanout: 2}
			blocker := broker.Reserve("blocker")
			blocker.MustGrow(budget) // saturate through both the folds and the merge

			const keys = 200
			kp, _ := newKeyPackerFromCards(mw.cards)
			// Several records per key, spread through each partition.
			tab, want := spilledTable(t, env, kp, 4, keys, func(round, i int) float64 { return float64(i + round*keys + 1) })
			defer tab.close()
			deniedBefore := broker.Stats().Denied
			rows, err := tab.rows()
			if err != nil {
				t.Fatal(err)
			}
			if denied := broker.Stats().Denied - deniedBefore; denied > keys {
				t.Fatalf("merge denied %d grants for %d keys: diversion retries the broker per record instead of sticking to overflow", denied, keys)
			}
			checkMergedRows(t, kp, rows, want)
			tab.close()
			blocker.Release()
			checkDrained(t, broker)
		})
	}
}

// TestConcurrentSpillStress runs several budgeted shared scans at once
// against one broker; run under -race this exercises concurrent
// TryGrow/MustGrow/Shrink and concurrent spill file traffic.
func TestConcurrentSpillStress(t *testing.T) {
	db, qs := testDB(t)
	group := []*query.Query{qs["Q1"], qs["Q2"], qs["Q3"], qs["Q4"]}

	env0 := NewEnv(db)
	var st0 Stats
	baseline, err := SharedScanHash(env0, db.Base(), group, &st0)
	if err != nil {
		t.Fatal(err)
	}

	broker := mem.New(1 << 11) // small enough that every scan spills even unoverlapped
	dir := t.TempDir()
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			env := NewEnv(db)
			env.Mem = broker
			env.SpillDir = dir
			env.SpillFanout = 4
			for round := 0; round < 3; round++ {
				var st Stats
				results, err := SharedScanHash(env, db.Base(), group, &st)
				if err != nil {
					errs[g] = err
					return
				}
				for i := range results {
					if !results[i].Equal(baseline[i]) {
						errs[g] = fmt.Errorf("goroutine %d round %d: %s diverged", g, round, results[i].Query.Name)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	checkDrained(t, broker)
	if broker.Stats().Denied == 0 {
		t.Fatal("stress run never hit the budget")
	}
}
