package exec

import (
	"fmt"
	"sync"
	"testing"

	"mdxopt/internal/dag"
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
	env0.Pool = dag.NewPool(4)
	var st0 Stats
	baseline, err := SharedScanHash(env0, db.Base(), group, &st0)
	if err != nil {
		t.Fatal(err)
	}

	env, broker := budgetedEnv(t, db, 1<<12)
	env.Pool = dag.NewPool(4)
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

// TestAggTableMergeOverflow forces the partition merge itself past the
// budget: a blocker reservation keeps the broker saturated, so each
// merge sub-pass admits only its aggFloorEntries progress-floor keys
// and diverts the rest to an overflow partition. The result must still
// be exact.
func TestAggTableMergeOverflow(t *testing.T) {
	broker := mem.New(1 << 10)
	env := &Env{Mem: broker, SpillDir: t.TempDir(), SpillFanout: 2}

	blocker := broker.Reserve("blocker")
	blocker.MustGrow(1 << 10) // saturate: every TryGrow from here on is denied

	tab := newAggTable(env, query.Sum, 4, "t")
	defer tab.close()

	const keys = 100
	want := make(map[string]float64)
	var kb [4]byte
	for round := 0; round < 3; round++ {
		for i := 0; i < keys; i++ {
			kb[0], kb[1], kb[2], kb[3] = byte(i), byte(i>>8), 0, 0
			d := accum{a: float64(i*round + 1), set: true}
			if err := tab.add(kb[:], d); err != nil {
				t.Fatal(err)
			}
			want[string(kb[:])] += d.a
		}
	}
	if tab.sp == nil {
		t.Fatal("saturated broker did not force a spill")
	}

	pairs, err := tab.pairs()
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != keys {
		t.Fatalf("got %d groups, want %d", len(pairs), keys)
	}
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1].key >= pairs[i].key {
			t.Fatal("pairs not sorted by raw key")
		}
	}
	for _, pr := range pairs {
		if pr.ac.a != want[pr.key] {
			t.Fatalf("key %x: got %v, want %v", pr.key, pr.ac.a, want[pr.key])
		}
	}
	tab.close()
	blocker.Release()
	checkDrained(t, broker)
}

// TestAggTableMergeStickyOverflow verifies that overflow diversion is
// sticky within a merge sub-pass. With per-record TryGrow, a key whose
// first record was diverted could be admitted to the merge table on a
// later record when a concurrent pipeline releases memory mid-merge —
// the key would then surface twice, with its sum split between the two
// copies. Stickiness is observable deterministically through the
// denial counter: each sub-pass consults the broker at most once after
// its progress-floor keys, so a merge of N keys incurs at most N
// denials, while per-record retries incur one denial per diverted
// record (hundreds per key here).
func TestAggTableMergeStickyOverflow(t *testing.T) {
	// The budget comfortably holds the spill's merge floor, so denial
	// comes from the blocker, not from the floor's own overdraft.
	const budget = 1 << 16
	broker := mem.New(budget)
	env := &Env{Mem: broker, SpillDir: t.TempDir(), SpillFanout: 2}

	blocker := broker.Reserve("blocker")
	blocker.MustGrow(budget) // saturate through both the adds and the merge

	tab := newAggTable(env, query.Sum, 4, "t")
	defer tab.close()

	const keys = 200
	const rounds = 4 // several records per key, spread through each partition
	want := make(map[string]float64)
	var kb [4]byte
	for round := 0; round < rounds; round++ {
		for i := 0; i < keys; i++ {
			kb[0], kb[1] = byte(i), byte(i>>8)
			d := accum{a: float64(i + round*keys + 1), set: true}
			if err := tab.add(kb[:], d); err != nil {
				t.Fatal(err)
			}
			want[string(kb[:])] += d.a
		}
	}
	if tab.sp == nil {
		t.Fatal("saturated broker did not force a spill")
	}

	deniedBefore := broker.Stats().Denied
	pairs, err := tab.pairs()
	if err != nil {
		t.Fatal(err)
	}
	if denied := broker.Stats().Denied - deniedBefore; denied > keys {
		t.Fatalf("merge denied %d grants for %d keys: diversion retries the broker per record instead of sticking to overflow", denied, keys)
	}
	if len(pairs) != keys {
		t.Fatalf("got %d groups, want %d (duplicates mean a key was split between merge table and overflow)", len(pairs), keys)
	}
	for _, pr := range pairs {
		if pr.ac.a != want[pr.key] {
			t.Fatalf("key %x: got %v, want %v", pr.key, pr.ac.a, want[pr.key])
		}
	}
	tab.close()
	blocker.Release()
	checkDrained(t, broker)
}

// TestAggTableMergeFromSpilled covers the parallel-merge path where the
// source worker table has itself spilled.
func TestAggTableMergeFromSpilled(t *testing.T) {
	broker := mem.New(1 << 20)
	env := &Env{Mem: broker, SpillDir: t.TempDir(), SpillFanout: 2}

	src := newAggTable(env, query.Sum, 4, "src")
	defer src.close()
	blocker := broker.Reserve("blocker")
	blocker.MustGrow(1 << 20)
	var kb [4]byte
	for i := 0; i < 50; i++ {
		kb[0] = byte(i)
		if err := src.add(kb[:], accum{a: float64(i), set: true}); err != nil {
			t.Fatal(err)
		}
	}
	if src.sp == nil {
		t.Fatal("source did not spill")
	}
	blocker.Release()

	dst := newAggTable(env, query.Sum, 4, "dst")
	defer dst.close()
	for i := 0; i < 50; i++ {
		kb[0] = byte(i)
		if err := dst.add(kb[:], accum{a: 100, set: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dst.mergeFrom(src); err != nil {
		t.Fatal(err)
	}
	src.close()
	pairs, err := dst.pairs()
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 50 {
		t.Fatalf("got %d groups, want 50", len(pairs))
	}
	for _, pr := range pairs {
		i := float64(pr.key[0])
		if pr.ac.a != 100+i {
			t.Fatalf("key %d: got %v, want %v", pr.key[0], pr.ac.a, 100+i)
		}
	}
	dst.close()
	checkDrained(t, broker)
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
