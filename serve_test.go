package mdxopt

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdxopt/internal/sched"
	"mdxopt/internal/workload"
)

// Serving-layer tests: the admission queue merging concurrent requests
// into shared passes, with per-request results, attribution,
// cancellation, and mutation serialization.

// errHeld is what a blocker request of holdSlots returns.
var errHeld = errors.New("runner slot held by the test")

// holdSlots occupies every runner slot of db's admission queue, so that
// requests submitted meanwhile queue up. It swaps in a queue whose first
// runs, one per slot, are blockers that wait for release and return errHeld
// without touching the database, and returns once they all hold a slot.
// waitQueued(n) blocks until n more requests are admitted; release lets
// the blockers go, so the next free slot merges everything queued with
// equal options — deterministically, with no timing involved. The
// original queue is restored when the test ends.
func holdSlots(t *testing.T, db *DB) (waitQueued func(n int), release func()) {
	t.Helper()
	slots := admissionSlots(db.effectiveWorkers(0))
	gate := make(chan struct{})
	var held sync.WaitGroup
	held.Add(slots)
	var runs atomic.Int32
	orig := db.queue
	q := sched.NewQueue(slots, func(reqs []sched.Request, opts Options) []reply {
		if runs.Add(1) <= int32(slots) {
			held.Done()
			<-gate
			return []reply{{err: errHeld}}
		}
		return db.serve(reqs, opts)
	})
	db.queue = q
	t.Cleanup(func() {
		q.Stop()
		db.queue = orig
	})
	blockers := make(chan error, slots)
	for i := 0; i < slots; i++ {
		go func() {
			_, err := db.Query("blocker")
			blockers <- err
		}()
	}
	held.Wait()
	waitQueued = func(n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for q.Metrics().Submissions < int64(slots+n) {
			if time.Now().After(deadline) {
				t.Fatalf("%d requests admitted behind the held slots, want %d", q.Metrics().Submissions-int64(slots), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	release = func() {
		t.Helper()
		close(gate)
		for i := 0; i < slots; i++ {
			if err := <-blockers; !errors.Is(err, errHeld) {
				t.Fatalf("blocker returned %v, want errHeld", err)
			}
		}
	}
	return waitQueued, release
}

// burst sends every source concurrently with ctx while db's runner
// slots are held, releases them once all are queued, and returns the
// answers in source order.
func burst(t *testing.T, db *DB, srcs []string) ([]*Answer, []error) {
	t.Helper()
	waitQueued, release := holdSlots(t, db)
	answers := make([]*Answer, len(srcs))
	errs := make([]error, len(srcs))
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func(i int, src string) {
			defer wg.Done()
			answers[i], errs[i] = db.Query(src)
		}(i, src)
	}
	waitQueued(len(srcs))
	release()
	wg.Wait()
	return answers, errs
}

// TestBatchedEquivalence is the acceptance check that sharing a pass
// never changes answers: concurrent requests merged into one batch must
// return exactly the rows their standalone runs return.
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
		if a.BatchSize != 1 || a.SharedWith != 0 {
			t.Fatalf("reference query %d on an idle database ran in a batch of %d sharing with %d", i, a.BatchSize, a.SharedWith)
		}
		want[i] = a
	}

	got, errs := burst(t, db, srcs)
	sawSharing := false
	for i := range srcs {
		if errs[i] != nil {
			t.Fatalf("batched query %d: %v", i, errs[i])
		}
		if got[i].BatchSize != len(srcs) {
			t.Fatalf("batched query %d ran in a batch of %d; the queued burst should have merged into one", i, got[i].BatchSize)
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
}

// TestEquivalentOptionsMerge: while the runner slots are held, requests
// whose Options differ only by spelled-out defaults (Algorithm GG, the
// database width) queue and merge into one batch, and a request with its
// own MemoryBudget runs at once, alone, without waiting for a slot.
func TestEquivalentOptionsMerge(t *testing.T) {
	db := sample(t)
	pool := workload.MDX()
	srcs := []string{pool["Q1"], pool["Q2"], pool["Q3"]}
	optss := []Options{{}, {Algorithm: GG}, {Workers: db.effectiveWorkers(0)}}
	waitQueued, release := holdSlots(t, db)
	answers := make([]*Answer, len(srcs))
	errs := make([]error, len(srcs))
	var wg sync.WaitGroup
	for i := range srcs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i], errs[i] = db.QueryWith(srcs[i], optss[i])
		}(i)
	}
	waitQueued(len(srcs))
	lone, err := db.QueryWith(pool["Q4"], Options{MemoryBudget: 1 << 30})
	if err != nil || lone.BatchSize != 1 {
		t.Fatalf("MemoryBudget request with the slots held returned a batch of %v, %v; want one, at once", lone, err)
	}
	release()
	wg.Wait()
	for i := range srcs {
		if errs[i] != nil || answers[i].BatchSize != len(srcs) {
			t.Fatalf("request %d with %+v: (%v, %v), want a batch of %d", i, optss[i], answers[i], errs[i], len(srcs))
		}
	}
}

// TestBatchedSharedPassReadsFewerPages is the serving acceptance
// criterion: with a pool far smaller than the data, four concurrent
// requests that can only be answered from the base table must cost
// fewer physical page reads merged (one shared scan) than run one at a
// time (four scans). COUNT queries force base-table plans: the sample's
// views store SUM only.
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

	// Solo baseline: each request pays its own cold scan.
	var solo int64
	for i, src := range srcs {
		a, err := db.QueryWith(src, Options{ColdCache: true})
		if err != nil {
			t.Fatalf("solo query %d: %v", i, err)
		}
		if a.Stats.PageReads == 0 {
			t.Fatalf("solo query %d read no pages; the pool is too large for this test", i)
		}
		solo += a.Stats.PageReads
	}

	// A freshly reopened database starts the batch cold, as each solo
	// query did.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = OpenWith(dbDir, OpenOptions{PoolFrames: 16}); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	answers, errs := burst(t, db, srcs)

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
	if batched >= solo {
		t.Fatalf("batched serving read %d pages, solo %d: sharing the base scan should cost less", batched, solo)
	}
	t.Logf("page reads: batched %d vs solo %d", batched, solo)
}

// TestBatchedCancellation checks per-caller cancellation: canceling a
// request queued behind busy slots returns its context error at once,
// and the request it queued with completes with correct answers.
func TestBatchedCancellation(t *testing.T) {
	db := sample(t)
	pool := workload.MDX()
	ref, err := db.Query(pool["Q2"])
	if err != nil {
		t.Fatal(err)
	}

	waitQueued, release := holdSlots(t, db)
	ctx, cancel := context.WithCancel(context.Background())
	canceled := make(chan error, 1)
	go func() {
		_, err := db.QueryContext(ctx, pool["Q1"], Options{})
		canceled <- err
	}()
	waitQueued(1)
	var liveAns *Answer
	var liveErr error
	live := make(chan struct{})
	go func() {
		defer close(live)
		liveAns, liveErr = db.Query(pool["Q2"])
	}()
	waitQueued(2)
	cancel()
	// The slots are still held: the canceled caller must not wait for them.
	if err := <-canceled; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled request returned %v, want context.Canceled", err)
	}
	release()
	<-live
	if liveErr != nil {
		t.Fatalf("surviving request failed: %v", liveErr)
	}
	if liveAns.BatchSize != 1 {
		t.Fatalf("surviving request ran in a batch of %d; the canceled one should have left it", liveAns.BatchSize)
	}
	if !reflect.DeepEqual(liveAns.Queries, ref.Queries) {
		t.Fatal("surviving request's results differ from its standalone run")
	}
}

// TestSharedCompositionOverlaps runs one cached two-request composition
// on two runners at once, its requests in opposite orders. Origins
// belong to the cached composition (sorted position), so neither run
// writes to the shared query objects: under -race this is the check.
// Each answer must equal its standalone run, share its pass with the
// other request, and list only passes its own origin took part in.
func TestSharedCompositionOverlaps(t *testing.T) {
	db, err := CreateSample(filepath.Join(t.TempDir(), "db"), 0.002)
	if err != nil {
		t.Fatalf("CreateSample: %v", err)
	}
	defer db.Close()
	// COUNT queries class on the base table, so the two always share.
	srcs := []string{
		`{B''.B2.CHILDREN} on COLUMNS CONTEXT ABCD AGGREGATE COUNT FILTER (D'.DD1)`,
		`{A''.A1.CHILDREN} on COLUMNS CONTEXT ABCD AGGREGATE COUNT FILTER (D'.DD1)`,
	}
	want := map[string]*Answer{}
	for _, src := range srcs {
		if want[src], err = db.Query(src); err != nil {
			t.Fatal(err)
		}
	}
	// Sorted position: srcs[1] sorts first.
	origin := map[string]int{srcs[0]: 2, srcs[1]: 1}
	serve := func(order []string) error {
		reqs := make([]sched.Request, len(order))
		for i, src := range order {
			reqs[i] = sched.Request{Key: src}
		}
		for i, out := range db.serve(reqs, Options{}) {
			src := order[i]
			if out.err != nil {
				return out.err
			}
			if got := out.queries[0].Origin; got != origin[src] {
				return fmt.Errorf("request %d has origin %d, want its sorted position %d", i, got, origin[src])
			}
			ans, err := db.answer(&out)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(ans.Queries, want[src].Queries) {
				return fmt.Errorf("request %d: results differ from the standalone run", i)
			}
			if ans.BatchSize != 2 || ans.SharedWith != 1 || len(ans.Classes) == 0 {
				return fmt.Errorf("request %d: batch of %d sharing with %d in %d classes, want 2, 1, >0", i, ans.BatchSize, ans.SharedWith, len(ans.Classes))
			}
			prefix := fmt.Sprintf("s%d.", origin[src])
			for _, c := range ans.Classes {
				if !slices.ContainsFunc(c.Queries, func(n string) bool { return strings.HasPrefix(n, prefix) }) {
					return fmt.Errorf("request %d lists class %v without a query of its own (%s*)", i, c.Queries, prefix)
				}
			}
		}
		return nil
	}
	if err := serve(srcs); err != nil {
		t.Fatal(err)
	}
	hits := db.PlanCacheHits()
	const rounds = 4
	errs := make(chan error, 2*rounds)
	var wg sync.WaitGroup
	for _, order := range [][]string{srcs, {srcs[1], srcs[0]}} {
		wg.Add(1)
		go func(order []string) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				errs <- serve(order)
			}
		}(order)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if got := db.PlanCacheHits() - hits; got != 2*rounds {
		t.Fatalf("%d plan-cache hits for %d runs of one cached composition", got, 2*rounds)
	}
}

// TestAdmissionOwnsNoIdleGoroutine: admission starts a goroutine only to
// run requests that queued behind busy slots, and that goroutine exits
// when the queue empties. An open database with no request in flight
// owns none, and Close leaves the goroutine count at its baseline.
func TestAdmissionOwnsNoIdleGoroutine(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	if db, err := CreateSample(dir, 0.002); err != nil {
		t.Fatalf("CreateSample: %v", err)
	} else if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	pool := workload.MDX()
	srcs := []string{pool["Q1"], pool["Q2"], pool["Q3"], pool["Q4"]}
	settled := func(what string, base int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, baseline %d", what, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	base := runtime.NumGoroutine()
	db, err := OpenWith(dir, OpenOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range srcs {
		if _, err := db.Query(src); err != nil {
			t.Fatal(err)
		}
	}
	settled("after serial requests", base)

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range srcs {
				if _, err := db.Query(srcs[(c+i)%len(srcs)]); err != nil {
					t.Error(err)
				}
			}
		}(c)
	}
	wg.Wait()
	if db.BatchStats().Submissions != int64(len(srcs)*5) {
		t.Fatalf("admission counted %+v, want %d submissions", db.BatchStats(), len(srcs)*5)
	}
	settled("after a concurrent burst", base)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	settled("after Close", base)
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

// TestOneRequestPath: the admission queue adds nothing to a lone
// request. The same texts sent one at a time through QueryWith on one
// fresh open, and handed straight to serve as compositions of one on
// another, return identical queries, plans, classes and stats —
// everything but wall time.
func TestOneRequestPath(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	if db, err := CreateSample(dir, 0.002); err != nil {
		t.Fatalf("CreateSample: %v", err)
	} else if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	pool := workload.MDX()
	srcs := []string{pool["Q1"], pool["Q2"], pool["Q3"], pool["Q4"]}
	run := func(query func(db *DB, src string) (*Answer, error)) []*Answer {
		db, err := OpenWith(dir, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		out := make([]*Answer, len(srcs))
		for i, src := range srcs {
			if out[i], err = query(db, src); err != nil {
				t.Fatalf("%s: %v", src, err)
			}
		}
		return out
	}
	queued := run(func(db *DB, src string) (*Answer, error) { return db.QueryWith(src, Options{}) })
	direct := run(func(db *DB, src string) (*Answer, error) {
		out := db.serve([]sched.Request{{Key: src, Ctx: context.Background()}}, Options{})[0]
		return db.answer(&out)
	})
	for i, src := range srcs {
		a, b := queued[i], direct[i]
		if a.BatchSize != 1 || a.SharedWith != 0 {
			t.Fatalf("%s: idle request ran in a batch of %d sharing with %d, want alone", src, a.BatchSize, a.SharedWith)
		}
		if !reflect.DeepEqual(b.Queries, a.Queries) {
			t.Fatalf("%s: results differ between the queue and serve", src)
		}
		if b.Plan != a.Plan {
			t.Fatalf("%s: queued plan\n%s\ndirect plan\n%s", src, a.Plan, b.Plan)
		}
		if !reflect.DeepEqual(b.Classes, a.Classes) {
			t.Fatalf("%s: queued classes %+v, direct %+v", src, a.Classes, b.Classes)
		}
		as, bs := a.Stats, b.Stats
		as.WallNanos, bs.WallNanos = 0, 0
		if as != bs || a.BatchSize != b.BatchSize || a.SharedWith != b.SharedWith {
			t.Fatalf("%s: queued stats %+v, direct %+v", src, as, bs)
		}
	}
}

// TestOneRequestPathConcurrent fires one text from many callers at a
// width-2 database, cycling through Options{}, its spelled-out
// equivalent, and a per-request MemoryBudget. Budgeted requests run at
// once, alone, beside whatever holds a runner slot, all on the same
// plan-cache entry's query objects; requests that queued behind a busy
// slot merge into compositions of the same text. Every answer must equal
// the reference; a request that ran alone must also report its plan.
// Under -race this checks that cached query objects are only ever read.
func TestOneRequestPathConcurrent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	if db, err := CreateSample(dir, 0.002); err != nil {
		t.Fatalf("CreateSample: %v", err)
	} else if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := OpenWith(dir, OpenOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	src := workload.MDX()["Q3"]
	ref, err := db.Query(src)
	if err != nil {
		t.Fatal(err)
	}

	const callers, rounds = 8, 4
	hits0 := db.PlanCacheHits()
	var alone atomic.Int64
	errs := make(chan error, callers*rounds)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				opts := []Options{{}, {Algorithm: GG, Workers: 2}, {MemoryBudget: 1 << 30}}[(c+r)%3]
				ans, err := db.QueryWith(src, opts)
				switch {
				case err != nil:
					errs <- fmt.Errorf("caller %d round %d: %w", c, r, err)
				case !reflect.DeepEqual(ans.Queries, ref.Queries):
					errs <- fmt.Errorf("caller %d round %d (batch of %d): results differ", c, r, ans.BatchSize)
				case ans.BatchSize == 1 && ans.Plan != ref.Plan:
					errs <- fmt.Errorf("caller %d round %d: plan %q, want %q", c, r, ans.Plan, ref.Plan)
				case ans.BatchSize == 1:
					alone.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if hits := db.PlanCacheHits() - hits0; hits < alone.Load() {
		t.Fatalf("%d plan-cache hits for %d requests of one cached text that ran alone", hits, alone.Load())
	}
}
