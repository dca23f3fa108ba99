package mdxopt

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"mdxopt/internal/sched"
	"mdxopt/internal/workload"
)

// sameAnswer compares two answers' query results exactly: names,
// group-bys, columns, member order and float64 values bit for bit. The
// sample data's measures are whole dollars, so SUM results are exact
// under any aggregation order and cache-served rollups must match
// uncached execution byte for byte.
func sameAnswer(t *testing.T, label string, got, want *Answer) {
	t.Helper()
	if len(got.Queries) != len(want.Queries) {
		t.Fatalf("%s: %d query results, want %d", label, len(got.Queries), len(want.Queries))
	}
	for i := range want.Queries {
		g, w := got.Queries[i], want.Queries[i]
		if g.Name != w.Name || g.GroupBy != w.GroupBy || g.Aggregate != w.Aggregate {
			t.Fatalf("%s: result %d is %s/%s/%s, want %s/%s/%s",
				label, i, g.Name, g.GroupBy, g.Aggregate, w.Name, w.GroupBy, w.Aggregate)
		}
		if len(g.Rows) != len(w.Rows) {
			t.Fatalf("%s: %s has %d rows, want %d", label, g.Name, len(g.Rows), len(w.Rows))
		}
		for r := range w.Rows {
			gr, wr := g.Rows[r], w.Rows[r]
			if gr.Value != wr.Value || len(gr.Members) != len(wr.Members) {
				t.Fatalf("%s: %s row %d = %v %v, want %v %v",
					label, g.Name, r, gr.Members, gr.Value, wr.Members, wr.Value)
			}
			for m := range wr.Members {
				if gr.Members[m] != wr.Members[m] {
					t.Fatalf("%s: %s row %d member %d = %q, want %q",
						label, g.Name, r, m, gr.Members[m], wr.Members[m])
				}
			}
		}
	}
}

// TestResultCacheEquivalence replays a randomized workload against a
// result-cached database and requires every answer — scan-served or
// cache-served — to be byte-identical to uncached execution, including
// after a mutation invalidates the cache.
func TestResultCacheEquivalence(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "eqdb")
	db, err := CreateSample(dir, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	var names []string
	srcs := workload.MDX()
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)

	// Uncached baseline.
	plain, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	baseline := map[string]*Answer{}
	for _, name := range names {
		a, err := plain.Query(srcs[name])
		if err != nil {
			t.Fatalf("baseline %s: %v", name, err)
		}
		baseline[name] = a
	}
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}

	cached, err := OpenWith(dir, OpenOptions{ResultCacheBudget: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()

	// Three shuffled passes: the first of each query executes and seeds
	// the cache, later ones are served by rollup.
	rng := rand.New(rand.NewSource(42))
	var sequence []string
	for pass := 0; pass < 3; pass++ {
		p := append([]string(nil), names...)
		rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		sequence = append(sequence, p...)
	}
	var hits int64
	for step, name := range sequence {
		a, err := cached.Query(srcs[name])
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, name, err)
		}
		sameAnswer(t, fmt.Sprintf("step %d (%s)", step, name), a, baseline[name])
		hits += a.Stats.ResultCacheHits
	}
	if hits == 0 {
		t.Fatal("replayed workload never hit the result cache")
	}
	if st := cached.ResultCacheStats(); st.Hits == 0 || st.Inserts == 0 {
		t.Fatalf("cache stats = %+v", st)
	}

	// Mutate: the cache must drop everything, and nothing stale may be
	// served afterwards.
	loader := cached.Load()
	if err := loader.AddCodes([]int32{0, 0, 0, 0}, 42); err != nil {
		t.Fatal(err)
	}
	if err := loader.Close(); err != nil {
		t.Fatal(err)
	}
	if st := cached.ResultCacheStats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("cache not invalidated by mutation: %+v", st)
	}
	for _, name := range names {
		first, err := cached.Query(srcs[name])
		if err != nil {
			t.Fatalf("post-mutation %s: %v", name, err)
		}
		if first.Stats.ResultCacheHits != 0 {
			t.Fatalf("post-mutation first run of %s served from a stale cache", name)
		}
		second, err := cached.Query(srcs[name])
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, "post-mutation warm "+name, second, first)
	}
}

// TestResultCacheCountersAndZeroIO pins the facade counters: a repeated
// query is served with zero page reads, Answer.Stats reports the hit,
// and DB.ResultCacheStats aggregates across requests.
func TestResultCacheCountersAndZeroIO(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ctrdb")
	db, err := CreateSample(dir, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	cdb, err := OpenWith(dir, OpenOptions{ResultCacheBudget: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()

	src := workload.MDX()["Q1"]
	cold, err := cdb.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.ResultCacheHits != 0 || cold.Stats.ResultCacheMisses == 0 {
		t.Fatalf("cold stats = %+v", cold.Stats)
	}
	warm, err := cdb.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.ResultCacheHits == 0 || warm.Stats.ResultCacheMisses != 0 {
		t.Fatalf("warm stats = %+v", warm.Stats)
	}
	if warm.Stats.PageReads != 0 {
		t.Fatalf("cache-served query read %d pages", warm.Stats.PageReads)
	}
	st := cdb.ResultCacheStats()
	if st.Hits == 0 || st.Misses == 0 || st.Inserts == 0 || st.Budget != 8<<20 {
		t.Fatalf("ResultCacheStats = %+v", st)
	}
}

// TestResultCacheBatchedPath drives two-request compositions through
// the plan cache: the second run of a composition replans (the cache's
// epoch advanced past the stored plan) and is served by rollup; the
// third reuses the stored plan and counts a plan-cache hit.
func TestResultCacheBatchedPath(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "batchdb")
	db, err := CreateSample(dir, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	cdb, err := OpenWith(dir, OpenOptions{ResultCacheBudget: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()

	pool := workload.MDX()
	srcs := []string{pool["Q3"], pool["Q1"]}
	run := func() []*Answer {
		t.Helper()
		reqs := []sched.Request{{Key: srcs[0]}, {Key: srcs[1]}}
		var out []*Answer
		for _, o := range cdb.serve(reqs, Options{}) {
			ans, err := cdb.answer(&o)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ans)
		}
		return out
	}
	first := run()
	if first[0].BatchSize != 2 || first[0].Stats.ResultCacheHits != 0 {
		t.Fatalf("first batched answer: batch of %d, %+v", first[0].BatchSize, first[0].Stats)
	}
	second := run()
	if second[0].Stats.ResultCacheHits == 0 || second[0].Stats.PageReads != 0 {
		t.Fatalf("second batched answer not cache-served: %+v", second[0].Stats)
	}
	sameAnswer(t, "batched warm", second[0], first[0])
	hits := cdb.PlanCacheHits()
	run()
	if got := cdb.PlanCacheHits(); got != hits+1 {
		t.Fatalf("PlanCacheHits went %d -> %d replaying a batch composition", hits, got)
	}
}

// TestPlanCacheLRUEviction fills the plan cache past capacity and
// checks per-entry LRU: a recently re-used entry survives the overflow,
// the least recently used one is evicted.
func TestPlanCacheLRUEviction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "lrudb")
	db, err := CreateSample(dir, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Distinct expressions: member subsets of A'' x B'' x C''.
	var srcs []string
	subsets := [][]string{
		{"A1"}, {"A2"}, {"A3"}, {"A1", "A2"}, {"A1", "A3"}, {"A2", "A3"}, {"A1", "A2", "A3"},
	}
	axis := func(dim string, names []string) string {
		s := ""
		for i, n := range names {
			if i > 0 {
				s += ", "
			}
			s += dim + "." + n
		}
		return s
	}
	for _, as := range subsets {
		for _, bs := range [][]string{{"B1"}, {"B2"}, {"B3"}, {"B1", "B2"}, {"B1", "B3"}, {"B2", "B3"}, {"B1", "B2", "B3"}} {
			for _, cs := range [][]string{{"C1"}, {"C2"}, {"C3"}, {"C1", "C2"}, {"C1", "C3"}, {"C2", "C3"}} {
				srcs = append(srcs, fmt.Sprintf(
					`{%s} on COLUMNS {%s} on ROWS {%s} on PAGES CONTEXT ABCD FILTER (D'.DD1)`,
					axis("A''", as), axis("B''", bs), axis("C''", cs)))
			}
		}
	}
	if len(srcs) < maxCachedPlans+2 {
		t.Fatalf("only %d distinct sources", len(srcs))
	}

	// Fill the cache to capacity with srcs[0..maxCachedPlans-1]. plan()
	// parses and optimizes without executing, which is all the cache
	// stores.
	for i := 0; i < maxCachedPlans; i++ {
		if _, _, _, err := db.plan(db.db.Snapshot(), []sched.Request{{Key: srcs[i]}}, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	// Refresh srcs[0]; srcs[1] becomes the LRU entry.
	if _, _, _, err := db.plan(db.db.Snapshot(), []sched.Request{{Key: srcs[0]}}, Options{}); err != nil {
		t.Fatal(err)
	}
	hitsBefore := db.PlanCacheHits()
	// Overflow with a fresh expression: exactly one entry is evicted.
	if _, _, _, err := db.plan(db.db.Snapshot(), []sched.Request{{Key: srcs[maxCachedPlans]}}, Options{}); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	size := len(db.planCache)
	db.mu.Unlock()
	if size != maxCachedPlans {
		t.Fatalf("plan cache holds %d entries, want %d", size, maxCachedPlans)
	}
	// The refreshed entry survived ...
	if _, _, _, err := db.plan(db.db.Snapshot(), []sched.Request{{Key: srcs[0]}}, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := db.PlanCacheHits(); got != hitsBefore+1 {
		t.Fatalf("refreshed entry was evicted (hits %d -> %d)", hitsBefore, got)
	}
	// ... and the least recently used one was the victim.
	if _, _, _, err := db.plan(db.db.Snapshot(), []sched.Request{{Key: srcs[1]}}, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := db.PlanCacheHits(); got != hitsBefore+1 {
		t.Fatalf("LRU entry still cached (hits %d -> %d)", hitsBefore, got)
	}
}
