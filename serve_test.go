package mdxopt

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"mdxopt/internal/workload"
)

// Serving-layer tests: the admission scheduler merging concurrent
// requests into shared passes, with per-request results, attribution,
// cancellation, and mutation serialization.

// TestBatchedEquivalence is the acceptance check that sharing a pass
// never changes answers: concurrent batched requests must return
// exactly the rows their non-batched runs return.
func TestBatchedEquivalence(t *testing.T) {
	db := sample(t)
	pool := workload.MDX()
	srcs := []string{pool["Q1"], pool["Q2"], pool["Q3"], pool["Q4"]}

	want := make([]*Answer, len(srcs))
	for i, src := range srcs {
		a, err := db.Query(src)
		if err != nil {
			t.Fatalf("reference query %d: %v", i, err)
		}
		want[i] = a
	}

	// A long window guarantees the burst lands in one batch regardless
	// of scheduling jitter.
	db.EnableBatching(BatchConfig{Window: 150 * time.Millisecond})
	defer db.DisableBatching()

	got := make([]*Answer, len(srcs))
	errs := make([]error, len(srcs))
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func(i int, src string) {
			defer wg.Done()
			got[i], errs[i] = db.QueryContext(context.Background(), src, Options{Batching: true})
		}(i, src)
	}
	wg.Wait()

	sawSharing := false
	for i := range srcs {
		if errs[i] != nil {
			t.Fatalf("batched query %d: %v", i, errs[i])
		}
		if !got[i].Batched {
			t.Fatalf("batched query %d: Answer.Batched is false", i)
		}
		if got[i].BatchSize < 2 {
			t.Fatalf("batched query %d ran in a batch of %d; the burst should have merged", i, got[i].BatchSize)
		}
		if got[i].SharedWith > 0 {
			sawSharing = true
		}
		if !reflect.DeepEqual(got[i].Queries, want[i].Queries) {
			t.Fatalf("batched query %d: results differ from the standalone run\n got %+v\nwant %+v",
				i, got[i].Queries, want[i].Queries)
		}
	}
	if !sawSharing {
		t.Fatal("no request shared a pass: Q1–Q4 share base views, SharedWith should be > 0")
	}
	bs := db.BatchStats()
	if bs.Submissions < int64(len(srcs)) || bs.Coalesced == 0 {
		t.Fatalf("scheduler metrics %+v: expected %d admitted submissions with coalescing", bs, len(srcs))
	}
}

// TestBatchedSharedPassReadsFewerPages is the serving acceptance
// criterion: with a pool far smaller than the data, four concurrent
// requests that can only be answered from the base table must cost
// fewer physical page reads batched (one shared scan) than run
// back-to-back (four scans). COUNT queries force base-table plans: the
// sample's views store SUM only.
func TestBatchedSharedPassReadsFewerPages(t *testing.T) {
	dir, err := os.MkdirTemp("", "mdxopt-serve-test")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	dbDir := filepath.Join(dir, "db")
	if db, err := CreateSample(dbDir, 0.005); err != nil {
		t.Fatalf("CreateSample: %v", err)
	} else if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// 16 frames of 8 KiB against a ~10k-row base: every scan pays
	// physical reads, the regime where sharing a pass matters.
	db, err := OpenWith(dbDir, OpenOptions{PoolFrames: 16})
	if err != nil {
		t.Fatalf("OpenWith: %v", err)
	}
	defer func() { db.Close() }()

	srcs := []string{
		`{A''.A1.CHILDREN} on COLUMNS CONTEXT ABCD AGGREGATE COUNT FILTER (D'.DD1)`,
		`{B''.B2.CHILDREN} on COLUMNS CONTEXT ABCD AGGREGATE COUNT FILTER (D'.DD1)`,
		`{C''.C1.CHILDREN} on COLUMNS CONTEXT ABCD AGGREGATE COUNT FILTER (D'.DD1)`,
		`{A''.MEMBERS} on COLUMNS {B''.B1} on ROWS CONTEXT ABCD AGGREGATE COUNT FILTER (D'.DD1)`,
	}

	// Separate baseline: each request pays its own cold scan.
	var separate int64
	for i, src := range srcs {
		a, err := db.QueryWith(src, Options{ColdCache: true})
		if err != nil {
			t.Fatalf("separate query %d: %v", i, err)
		}
		if a.Stats.PageReads == 0 {
			t.Fatalf("separate query %d read no pages; the pool is too large for this test", i)
		}
		separate += a.Stats.PageReads
	}

	// A freshly reopened database starts the batch cold, as each
	// separate query did.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = OpenWith(dbDir, OpenOptions{PoolFrames: 16}); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	db.EnableBatching(BatchConfig{Window: 200 * time.Millisecond})
	answers := make([]*Answer, len(srcs))
	errs := make([]error, len(srcs))
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func(i int, src string) {
			defer wg.Done()
			answers[i], errs[i] = db.QueryContext(context.Background(), src, Options{Batching: true})
		}(i, src)
	}
	wg.Wait()

	// Attributed per-request reads sum back to what the shared passes
	// physically read, so the totals are directly comparable.
	var batched int64
	for i := range srcs {
		if errs[i] != nil {
			t.Fatalf("batched query %d: %v", i, errs[i])
		}
		if answers[i].SharedWith != len(srcs)-1 {
			t.Fatalf("batched query %d shared with %d requests, want %d (all COUNT queries class on the base table)",
				i, answers[i].SharedWith, len(srcs)-1)
		}
		batched += answers[i].Stats.PageReads
	}
	if batched >= separate {
		t.Fatalf("batched serving read %d pages, separate %d: sharing the base scan should cost less", batched, separate)
	}
	t.Logf("page reads: batched %d vs separate %d", batched, separate)
}

// TestBatchedCancellation checks per-caller detachment: canceling one
// request of a batch returns its context error while batch mates
// complete with correct answers.
func TestBatchedCancellation(t *testing.T) {
	db := sample(t)
	pool := workload.MDX()
	ref, err := db.Query(pool["Q2"])
	if err != nil {
		t.Fatal(err)
	}

	db.EnableBatching(BatchConfig{Window: 200 * time.Millisecond})
	defer db.DisableBatching()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var canceledAns, liveAns *Answer
	var canceledErr, liveErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		canceledAns, canceledErr = db.QueryContext(ctx, pool["Q1"], Options{Batching: true})
	}()
	go func() {
		defer wg.Done()
		liveAns, liveErr = db.QueryContext(context.Background(), pool["Q2"], Options{Batching: true})
	}()
	// Let both requests enter the window, then abandon the first.
	time.Sleep(30 * time.Millisecond)
	cancel()
	wg.Wait()

	if !errors.Is(canceledErr, context.Canceled) {
		t.Fatalf("canceled request returned (%v, %v), want context.Canceled", canceledAns, canceledErr)
	}
	if liveErr != nil {
		t.Fatalf("surviving request failed: %v", liveErr)
	}
	if !reflect.DeepEqual(liveAns.Queries, ref.Queries) {
		t.Fatal("surviving request's results differ from its standalone run")
	}
}

// TestQueryRacesMutationSerialized is the regression test for the
// documented concurrency contract: queries racing Materialize, Refresh
// and Compact are serialized internally — nothing fails, nothing
// crashes, and answers never change (the mutations add no facts). Run
// with -race to exercise the locking.
func TestQueryRacesMutationSerialized(t *testing.T) {
	dir, err := os.MkdirTemp("", "mdxopt-mutrace-test")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db, err := CreateSample(filepath.Join(dir, "db"), 0.002)
	if err != nil {
		t.Fatalf("CreateSample: %v", err)
	}
	defer db.Close()

	pool := workload.MDX()
	srcs := []string{pool["Q1"], pool["Q3"], pool["Q5"], pool["Q7"]}
	want := make([]*Answer, len(srcs))
	for i, src := range srcs {
		if want[i], err = db.Query(src); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	errs := make(chan error, 64)
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
				a, err := db.Query(srcs[w])
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

	// Mutations on the writer side: a new materialization, a refresh,
	// a compaction — all value-preserving (no facts added).
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
}

// TestOneRequestPath: an unbatched query is a batch of one. The same
// texts run unbatched on one fresh open and batched alone on another
// return identical queries, plans, classes and stats — everything but
// wall time and the fields that report batching.
func TestOneRequestPath(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	if db, err := CreateSample(dir, 0.002); err != nil {
		t.Fatalf("CreateSample: %v", err)
	} else if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	pool := workload.MDX()
	srcs := []string{pool["Q1"], pool["Q2"], pool["Q3"], pool["Q4"]}
	run := func(opts Options) []*Answer {
		db, err := OpenWith(dir, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		out := make([]*Answer, len(srcs))
		for i, src := range srcs {
			if out[i], err = db.QueryWith(src, opts); err != nil {
				t.Fatalf("%s (batching=%t): %v", src, opts.Batching, err)
			}
		}
		return out
	}
	alone, batched := run(Options{}), run(Options{Batching: true})
	for i, src := range srcs {
		a, b := alone[i], batched[i]
		if a.Batched || a.BatchSize != 0 || a.SharedWith != 0 {
			t.Fatalf("%s: unbatched answer reports batching: %t %d %d", src, a.Batched, a.BatchSize, a.SharedWith)
		}
		if !b.Batched || b.BatchSize != 1 || b.SharedWith != 0 {
			t.Fatalf("%s: batched answer reports %t %d %d, want a batch of one", src, b.Batched, b.BatchSize, b.SharedWith)
		}
		if !reflect.DeepEqual(b.Queries, a.Queries) {
			t.Fatalf("%s: batched results differ from the unbatched run", src)
		}
		if b.Plan != a.Plan {
			t.Fatalf("%s: batched plan\n%s\nunbatched plan\n%s", src, b.Plan, a.Plan)
		}
		if !reflect.DeepEqual(b.Classes, a.Classes) {
			t.Fatalf("%s: batched classes %+v, unbatched %+v", src, b.Classes, a.Classes)
		}
		as, bs := a.Stats, b.Stats
		as.WallNanos, bs.WallNanos = 0, 0
		if as != bs {
			t.Fatalf("%s: batched stats %+v, unbatched %+v", src, bs, as)
		}
	}
}

// TestOneRequestPathConcurrent fires unbatched and batched requests for
// one text at once. Batches hold one request each, so both kinds hit
// the same plan-cache entry and run its query objects concurrently;
// under -race this checks that a plan of one is only ever read.
func TestOneRequestPathConcurrent(t *testing.T) {
	db, err := CreateSample(filepath.Join(t.TempDir(), "db"), 0.002)
	if err != nil {
		t.Fatalf("CreateSample: %v", err)
	}
	defer db.Close()
	src := workload.MDX()["Q3"]
	ref, err := db.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	db.EnableBatching(BatchConfig{Window: time.Millisecond, MaxBatch: 1, MaxQueue: 64})

	const callers, rounds = 8, 4
	hits0 := db.PlanCacheHits()
	errs := make(chan error, callers*rounds)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				batching := (c+r)%2 == 1
				ans, err := db.QueryWith(src, Options{Batching: batching})
				switch {
				case err != nil:
					errs <- fmt.Errorf("caller %d round %d (batching=%t): %w", c, r, batching, err)
				case !reflect.DeepEqual(ans.Queries, ref.Queries):
					errs <- fmt.Errorf("caller %d round %d (batching=%t): results differ", c, r, batching)
				case ans.Plan != ref.Plan:
					errs <- fmt.Errorf("caller %d round %d (batching=%t): plan %q, want %q", c, r, batching, ans.Plan, ref.Plan)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if hits := db.PlanCacheHits() - hits0; hits != callers*rounds {
		t.Fatalf("%d plan-cache hits for %d requests of one cached text", hits, callers*rounds)
	}
}
