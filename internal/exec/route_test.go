package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"mdxopt/internal/bitmap"
	"mdxopt/internal/query"
	"mdxopt/internal/star"
	"mdxopt/internal/table"
)

// Vectorized index-path tests: the word-at-a-time routing kernel
// (route.go) against naive per-bit oracles, and the SharedIndex and
// SharedMixed operators against Naive, with deterministic counters
// equal at every worker width and checked in closed form against the
// query bitmaps.

// naiveExpand collects the set bits of bs within [from, to) as offsets
// relative to from, the per-bit oracle for maskedWords+expandWords.
func naiveExpand(bs *bitmap.Bitset, from, to int64) []int32 {
	var out []int32
	for i := from; i < to; i++ {
		if bs.Get(i) {
			out = append(out, int32(i-from))
		}
	}
	return out
}

// naiveRoute computes the batch slots of union rows in [from, to) that
// a query's bitmap also covers: the slot is the row's rank among the
// union's set bits of the range.
func naiveRoute(union, q *bitmap.Bitset, from, to int64) []int32 {
	var out []int32
	slot := int32(0)
	for i := from; i < to; i++ {
		if !union.Get(i) {
			continue
		}
		if q.Get(i) {
			out = append(out, slot)
		}
		slot++
	}
	return out
}

func eqInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRoutingKernelMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(20260809))
	for trial := 0; trial < 200; trial++ {
		n := int64(1 + rng.Intn(700))
		union := bitmap.New(n)
		q := bitmap.New(n)
		density := rng.Float64()
		for i := int64(0); i < n; i++ {
			if rng.Float64() < density {
				union.Set(i)
				if rng.Intn(2) == 0 {
					q.Set(i)
				}
			}
		}
		// Random page-like ranges, including word-straddling and
		// word-aligned boundaries.
		from := int64(rng.Intn(int(n)))
		to := from + 1 + int64(rng.Intn(int(n-from)))
		if trial%5 == 0 {
			from = from / 64 * 64 // aligned start
		}

		var uwords []uint64
		uwords, w0 := maskedWords(uwords, union.Words(), from, to)
		sel := expandWords(nil, uwords, w0, from)
		if want := naiveExpand(union, from, to); !eqInt32(sel, want) {
			t.Fatalf("trial %d: expand [%d,%d) = %v, want %v", trial, from, to, sel, want)
		}
		hits := routeWords(nil, uwords, q.Words(), w0)
		if want := naiveRoute(union, q, from, to); !eqInt32(hits, want) {
			t.Fatalf("trial %d: route [%d,%d) = %v, want %v", trial, from, to, hits, want)
		}
	}
}

func TestRoutingKernelEdgeCases(t *testing.T) {
	n := int64(200)
	empty := bitmap.New(n)
	full := bitmap.NewFull(n)

	// Empty union: no words set, nothing expanded or routed.
	uw, w0 := maskedWords(nil, empty.Words(), 10, 150)
	if sel := expandWords(nil, uw, w0, 10); len(sel) != 0 {
		t.Fatalf("empty union expanded %v", sel)
	}
	if hits := routeWords(nil, uw, full.Words(), w0); len(hits) != 0 {
		t.Fatalf("empty union routed %v", hits)
	}

	// Full union, full query: the dense fast path must produce the
	// identity selection.
	uw, w0 = maskedWords(nil, full.Words(), 63, 129)
	sel := expandWords(nil, uw, w0, 63)
	hits := routeWords(nil, uw, full.Words(), w0)
	if len(sel) != 66 || len(hits) != 66 {
		t.Fatalf("full range [63,129): %d expanded, %d routed, want 66", len(sel), len(hits))
	}
	for i := range sel {
		if sel[i] != int32(i) || hits[i] != int32(i) {
			t.Fatalf("full range slot %d: sel=%d hits=%d", i, sel[i], hits[i])
		}
	}

	// Full union, empty query: everything fetched, nothing routed.
	if hits := routeWords(nil, uw, empty.Words(), w0); len(hits) != 0 {
		t.Fatalf("empty query routed %v", hits)
	}

	// Single-bit range.
	one := bitmap.New(n)
	one.Set(64)
	uw, w0 = maskedWords(nil, one.Words(), 64, 65)
	if sel := expandWords(nil, uw, w0, 64); !eqInt32(sel, []int32{0}) {
		t.Fatalf("single-bit range expanded %v", sel)
	}

	if sel := identitySel(nil, 4); !eqInt32(sel, []int32{0, 1, 2, 3}) {
		t.Fatalf("identitySel = %v", sel)
	}
}

// randIndexQueries synthesizes index-answerable queries on the A'B'C'D
// view: indexed predicates on A/B/C of varying density (sparse unions
// through near-full ones) and, half the time, a residual D filter that
// only the fetch-side pass tests can apply.
func randIndexQueries(t *testing.T, db *star.Database, rng *rand.Rand, n int) []*query.Query {
	t.Helper()
	schema := db.Schema
	levels := []int{1, 1, 1, 0}
	out := make([]*query.Query, n)
	for qi := range out {
		preds := make([]query.Predicate, schema.NumDims())
		// Restrict 1–3 of the indexed dims A, B, C.
		restricted := 1 + rng.Intn(3)
		dims := rng.Perm(3)[:restricted]
		for _, dim := range dims {
			card := int(schema.Dims[dim].Card(levels[dim]))
			k := 1 + rng.Intn(card) // 1 member (sparse) .. full (dense)
			members := rng.Perm(card)[:k]
			ms := make([]int32, k)
			for i, m := range members {
				ms[i] = int32(m)
			}
			preds[dim] = query.Predicate{Members: ms}
		}
		if rng.Intn(2) == 0 { // residual D filter
			card := int(schema.Dims[3].Card(levels[3]))
			k := 1 + rng.Intn(card)
			members := rng.Perm(card)[:k]
			ms := make([]int32, k)
			for i, m := range members {
				ms[i] = int32(m)
			}
			preds[3] = query.Predicate{Members: ms}
		}
		q, err := query.New(fmt.Sprintf("RQ%d", qi), schema, levels, preds)
		if err != nil {
			t.Fatalf("query.New: %v", err)
		}
		out[qi] = q
	}
	return out
}

// rootFetches computes the closed-form routing counters of a shared
// pass over view from the query bitmaps: n is how many members from
// index from on take tuples through their own result bitmap (the roots
// of the pass's derivation forest), union the OR of those bitmaps, and
// own[m] member m's own TuplesFetched — its bitmap's popcount for such
// a root, zero otherwise.
func rootFetches(t *testing.T, view *star.View, group []*query.Query, from int) (n int, own []int64, union *bitmap.Bitset) {
	t.Helper()
	env := NewEnv(sharedDB)
	own = make([]int64, len(group))
	union = bitmap.New(view.Rows())
	for _, m := range newForest(env, group).rootIdx {
		if m < from {
			continue
		}
		bs, err := resultBitmap(env, view, group[m], new(Stats))
		if err != nil {
			t.Fatal(err)
		}
		bs.OrInto(union)
		own[m] = bs.Count()
		n++
	}
	return n, own, union
}

// checkNaive requires every result to equal exec.Naive's answer.
func checkNaive(t *testing.T, label string, results []*Result) {
	t.Helper()
	env := NewEnv(sharedDB)
	for _, r := range results {
		if !r.Equal(oracle(t, env, r.Query)) {
			t.Fatalf("%s: %s differs from Naive (%d groups)", label, r.Query.Name, len(r.Groups))
		}
	}
}

// TestSharedIndexVectorScalarEquivalence is the randomized index-probe
// suite: SharedIndex at workers {1,2,4,8} over sparse and dense unions,
// single and multi query sets, and residual-dim filters must equal
// Naive, with every deterministic counter equal across widths. The
// routing counters are checked in closed form against the roots'
// bitmaps: the pass fetches popcount(union) tuples; with more than one
// pipeline each is charged that many BitTests; each root's own
// TuplesFetched is its bitmap's popcount, a derived member's zero.
func TestSharedIndexVectorScalarEquivalence(t *testing.T) {
	db, qs := testDB(t)
	view := db.ViewByLevels([]int{1, 1, 1, 0})
	if view == nil {
		t.Fatal("A'B'C'D view not materialized")
	}
	rng := rand.New(rand.NewSource(98))

	paper := []*query.Query{qs["Q5"], qs["Q6"], qs["Q7"], qs["Q8"]}
	for trial := 0; trial < 8; trial++ {
		var group []*query.Query
		switch trial {
		case 0: // single query (union aliases its bitmap)
			group = paper[:1]
		case 1: // the paper's index set
			group = paper
		default: // random sets, 2–5 queries
			group = randIndexQueries(t, db, rng, 2+rng.Intn(4))
		}

		roots, ownFetched, union := rootFetches(t, view, group, 0)
		wantFetched, wantTests := union.Count(), int64(0)
		if roots > 1 {
			wantTests = union.Count() * int64(roots)
		}

		var base []*Result
		var baseSt Stats
		for _, workers := range []int{1, 2, 4, 8} {
			env := NewEnv(db)
			env.Pool = NewPool(workers)
			env.MorselPages = 1 + rng.Intn(3)
			var st Stats
			results, err := SharedIndex(env, view, group, &st)
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if st.TuplesFetched != wantFetched || st.BitTests != wantTests {
				t.Fatalf("trial %d workers=%d: fetched %d, bit tests %d; want %d, %d",
					trial, workers, st.TuplesFetched, st.BitTests, wantFetched, wantTests)
			}
			for i, r := range results {
				if r.Own.TuplesFetched != ownFetched[i] {
					t.Fatalf("trial %d workers=%d %s: own fetched %d, want %d",
						trial, workers, group[i].Name, r.Own.TuplesFetched, ownFetched[i])
				}
			}
			if base == nil {
				checkNaive(t, fmt.Sprintf("trial %d", trial), results)
				base, baseSt = results, st
				continue
			}
			checkIdentical(t, results, base)
			if scanCounters(st) != scanCounters(baseSt) {
				t.Fatalf("trial %d workers=%d: counters %v, serial %v",
					trial, workers, scanCounters(st), scanCounters(baseSt))
			}
			for i := range results {
				if g, w := scanCounters(results[i].Own), scanCounters(base[i].Own); g != w {
					t.Fatalf("trial %d workers=%d %s: own counters %v, serial %v",
						trial, workers, group[i].Name, g, w)
				}
			}
		}
	}
}

// TestSharedMixedVectorScalarEquivalence: the mixed scan's vectorized
// bitmap filters at every width must equal Naive with counters equal
// across widths; every scanned tuple is one BitTest per filter root, and
// each filter root's own TuplesFetched is its bitmap's popcount
// (rootFetches).
func TestSharedMixedVectorScalarEquivalence(t *testing.T) {
	db, qs := testDB(t)
	view := db.ViewByLevels([]int{1, 1, 1, 0})
	rng := rand.New(rand.NewSource(99))

	for trial := 0; trial < 4; trial++ {
		hash := []*query.Query{qs["Q3"]}
		index := randIndexQueries(t, db, rng, 1+rng.Intn(3))
		if trial == 0 {
			index = []*query.Query{qs["Q7"], qs["Q8"]}
		}
		group := append(append([]*query.Query(nil), hash...), index...)
		filters, ownFetched, _ := rootFetches(t, view, group, len(hash))
		wantTests := view.Rows() * int64(filters)

		var baseHash, baseIndex []*Result
		var baseSt Stats
		for _, workers := range []int{1, 2, 4, 8} {
			env := NewEnv(db)
			env.Pool = NewPool(workers)
			env.MorselPages = 1
			var st Stats
			gotHash, gotIndex, err := SharedMixed(env, view, hash, index, &st)
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if st.BitTests != wantTests {
				t.Fatalf("trial %d workers=%d: bit tests %d, want %d", trial, workers, st.BitTests, wantTests)
			}
			got := append(append([]*Result(nil), gotHash...), gotIndex...)
			for i, r := range got {
				if r.Own.TuplesFetched != ownFetched[i] {
					t.Fatalf("trial %d workers=%d %s: own fetched %d, want %d",
						trial, workers, group[i].Name, r.Own.TuplesFetched, ownFetched[i])
				}
			}
			if baseHash == nil {
				checkNaive(t, fmt.Sprintf("trial %d", trial), got)
				baseHash, baseIndex, baseSt = gotHash, gotIndex, st
				continue
			}
			checkIdentical(t, gotHash, baseHash)
			checkIdentical(t, gotIndex, baseIndex)
			if scanCounters(st) != scanCounters(baseSt) {
				t.Fatalf("trial %d workers=%d: counters %v, serial %v",
					trial, workers, scanCounters(st), scanCounters(baseSt))
			}
		}
	}
}

// TestSharedIndexSpillEquivalence: a tight budget forces the probe
// workers' aggregation tables through the spill path; results must
// equal Naive and the broker must drain.
func TestSharedIndexSpillEquivalence(t *testing.T) {
	db, qs := testDB(t)
	view := db.ViewByLevels([]int{1, 1, 1, 0})
	group := []*query.Query{qs["Q5"], qs["Q6"], qs["Q7"], qs["Q8"]}
	for _, workers := range []int{1, 4} {
		env, broker := budgetedEnv(t, db, 1<<12)
		env.Pool = NewPool(workers)
		env.MorselPages = 1
		var st Stats
		results, err := SharedIndex(env, view, group, &st)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkNaive(t, fmt.Sprintf("workers=%d", workers), results)
		checkDrained(t, broker)
	}
}

// emptyQuery restricts A to no member at all: its result bitmap is
// empty.
func emptyQuery(t *testing.T, db *star.Database) *query.Query {
	t.Helper()
	q, err := query.New("EMPTY", db.Schema, []int{1, 1, 1, 1},
		[]query.Predicate{{Members: []int32{}}, {}, {}, {}})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// testPass builds the shared pass of hash and filter members over view
// with its one worker, outside the operators, so a test can drive the
// page loop directly: in the probe regime when probe is set, the scan
// regime otherwise. Every member is a root.
func testPass(t *testing.T, env *Env, view *star.View, hash, filters []*query.Query, probe bool) (*pagePass, *pageWorker) {
	t.Helper()
	var st Stats
	set := NewLookupSet(nil)
	s := &pagePass{view: view, tpp: int64(view.Heap.TuplesPerPage()), rows: view.Rows()}
	var pipes []*queryPipeline
	var filterMaps []*bitmap.Bitset
	for i, q := range append(append([]*query.Query(nil), hash...), filters...) {
		lookups, err := set.lookups(env, &st, q, view)
		if err != nil {
			t.Fatal(err)
		}
		p := newQueryPipeline(env, lookups, passFilter(make([][]bool, len(lookups)), lookups, view, i >= len(hash)), q, view)
		t.Cleanup(p.close)
		pipes = append(pipes, p)
		var bs *bitmap.Bitset
		if i >= len(hash) {
			if bs, err = pipelineBitmap(env, view, p, &st); err != nil {
				t.Fatal(err)
			}
			filterMaps = append(filterMaps, bs)
		}
		s.bitmaps = append(s.bitmaps, bs)
	}
	if probe {
		s.union = filterMaps[0]
		if len(filterMaps) > 1 {
			s.union = bitmap.New(s.rows)
			s.union.CopyFrom(filterMaps[0])
			for _, bs := range filterMaps[1:] {
				bs.OrInto(s.union)
			}
		}
	}
	w := newPageWorker(view, pipes)
	return s, &w
}

// TestSharedIndexEmptyUnion drives the page loop with an all-zero
// union: no page may be pinned, no counter may move, and no
// cancellation checkpoint may fire.
func TestSharedIndexEmptyUnion(t *testing.T) {
	db, _ := testDB(t)
	view := db.ViewByLevels([]int{1, 1, 1, 0})
	env := NewEnv(db)
	env.Ctx = canceledCtx() // would abort at the first checkpoint

	s, w := testPass(t, env, view, nil, []*query.Query{emptyQuery(t, db)}, true)
	if s.union.Any() {
		t.Fatal("empty member's bitmap has bits set")
	}
	before := db.Pool.Stats()
	if err := s.pages(env, w, 0, view.Heap.DataPages()); err != nil {
		t.Fatalf("empty union probe: %v", err)
	}
	if st := w.st; st.TuplesFetched != 0 || st.TuplesAgg != 0 || st.BitTests != 0 {
		t.Fatalf("empty union moved counters: fetched=%d agg=%d tests=%d",
			st.TuplesFetched, st.TuplesAgg, st.BitTests)
	}
	after := db.Pool.Stats()
	if pins := (after.Reads() + after.Hits) - (before.Reads() + before.Hits); pins != 0 {
		t.Fatalf("empty union pinned %d pages", pins)
	}
}

// TestSharedIndexDetachMidProbe cancels one query's context partway
// through a parallel vectorized probe (via a disk-read hook, so the
// cancellation lands with workers in flight): the dead query comes
// back detached, the survivor stays oracle-correct.
func TestSharedIndexDetachMidProbe(t *testing.T) {
	db, qs := testDB(t)
	view := db.ViewByLevels([]int{1, 1, 1, 0})
	if err := db.ColdReset(); err != nil {
		t.Fatal(err)
	}
	dead, live := qs["Q5"], qs["Q6"]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	disk := view.Heap.File().Disk()
	var reads atomic.Int64
	disk.SetFault(func(op string, page uint32) error {
		if op == "read" && reads.Add(1) == 4 {
			cancel()
		}
		return nil
	})
	defer disk.SetFault(nil)

	env := NewEnv(db)
	env.Pool = NewPool(4)
	env.MorselPages = 1
	env.QueryCtx = func(q *query.Query) context.Context {
		if q == dead {
			return ctx
		}
		return context.Background()
	}

	var st Stats
	rs, err := SharedIndex(env, view, []*query.Query{dead, live}, &st)
	if err != nil {
		t.Fatalf("SharedIndex: %v", err)
	}
	if !errors.Is(rs[0].Err, context.Canceled) {
		t.Fatalf("dead query's err = %v, want context.Canceled", rs[0].Err)
	}
	if rs[1].Err != nil {
		t.Fatalf("surviving query's result has error: %v", rs[1].Err)
	}
	disk.SetFault(nil)
	env.QueryCtx = nil
	checkAgainstOracle(t, env, rs[1])
}

// TestSharedIndexVectorDiskFault: a read fault during the page-batched
// fetch must surface from the vectorized probe at every width, and the
// broker must drain afterwards.
func TestSharedIndexVectorDiskFault(t *testing.T) {
	db, qs := testDB(t)
	view := db.ViewByLevels([]int{1, 1, 1, 0})
	boom := errors.New("injected disk fault")
	group := []*query.Query{qs["Q5"], qs["Q6"]}

	for _, workers := range []int{1, 4} {
		if err := db.ColdReset(); err != nil {
			t.Fatal(err)
		}
		view.Heap.File().Disk().SetFault(func(op string, page uint32) error {
			if op == "read" {
				return boom
			}
			return nil
		})
		env, broker := budgetedEnv(t, db, 1<<30)
		env.Pool = NewPool(workers)
		var st Stats
		if _, err := SharedIndex(env, view, group, &st); !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want injected fault", workers, err)
		}
		view.Heap.File().Disk().SetFault(nil)
		checkDrained(t, broker)
	}
	if err := db.ColdReset(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedIndexAllDetachedStopsEarly: with every pipeline detached
// before the probe starts, the vectorized pass stops at its first
// checkpoint instead of fetching the whole union.
func TestSharedIndexAllDetachedStopsEarly(t *testing.T) {
	db, qs := testDB(t)
	view := db.ViewByLevels([]int{1, 1, 1, 0})
	env := NewEnv(db)
	env.Pool = NewPool(4)
	env.MorselPages = 1
	env.QueryCtx = func(*query.Query) context.Context { return canceledCtx() }

	var st Stats
	rs, err := SharedIndex(env, view, []*query.Query{qs["Q5"], qs["Q6"]}, &st)
	if err != nil {
		t.Fatalf("SharedIndex: %v", err)
	}
	for i, r := range rs {
		if r.Err == nil {
			t.Fatalf("result %d of an all-canceled pass has no error", i)
		}
	}
	if st.TuplesFetched != 0 {
		t.Fatalf("all pipelines detached but the pass fetched %d tuples", st.TuplesFetched)
	}
}

// TestRouteLoopAllocs pins the page loop's steady-state allocation
// rate at zero in both regimes, mirroring TestFoldLoopAllocs: once the
// pipelines are warm and the pool holds the view's pages, re-running
// the entire pass must not allocate.
func TestRouteLoopAllocs(t *testing.T) {
	db, qs := testDB(t)
	view := db.ViewByLevels([]int{1, 1, 1, 0})
	env := NewEnv(db)
	probes := []*query.Query{qs["Q5"], qs["Q6"], qs["Q7"], qs["Q8"]}
	for _, c := range []struct {
		name          string
		hash, filters []*query.Query
		probe         bool
	}{
		{"hash and filter scan", []*query.Query{qs["Q3"]}, []*query.Query{qs["Q7"]}, false},
		{"filter-only scan", nil, []*query.Query{qs["Q7"], qs["Q8"]}, false},
		{"multi-root probe", nil, probes, true},
		{"single-root probe", nil, probes[:1], true},
	} {
		s, w := testPass(t, env, view, c.hash, c.filters, c.probe)
		pass := func() {
			if err := s.pages(env, w, 0, view.Heap.DataPages()); err != nil {
				t.Fatal(err)
			}
		}
		pass() // warm-up: pool pages resident, tables grown, scratch sized
		if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
			t.Fatalf("%s: steady-state pass allocates %v objects, want 0", c.name, allocs)
		}
		for _, p := range w.pipes {
			if p.ioErr != nil {
				t.Fatal(p.ioErr)
			}
		}
	}
}

// FuzzSelVecExpand fuzzes the word→selection-vector kernels against
// the per-bit oracles: arbitrary union/query words and an arbitrary
// sub-word range must expand and route exactly like bit-at-a-time
// iteration.
func FuzzSelVecExpand(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint16(0), uint16(128))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), uint64(0x5555555555555555), uint16(3), uint16(190))
	f.Add(uint64(1)<<63, uint64(1), uint64(1)<<63, uint64(1)<<63, uint16(63), uint16(65))
	f.Fuzz(func(t *testing.T, u0, u1, u2, q0 uint64, a, b uint16) {
		const n = 192 // three words
		union := bitmap.New(n)
		q := bitmap.New(n)
		fill := func(dst *bitmap.Bitset, w uint64, wi int) {
			for tz := 0; tz < 64; tz++ {
				if w&(1<<uint(tz)) != 0 {
					dst.Set(int64(wi*64 + tz))
				}
			}
		}
		fill(union, u0, 0)
		fill(union, u1, 1)
		fill(union, u2, 2)
		fill(q, q0, 0)
		fill(q, u1&q0, 1) // correlated middle word
		fill(q, ^u2, 2)   // anti-correlated last word

		from := int64(a) % n
		to := from + 1 + int64(b)%(n-from)

		uw, w0 := maskedWords(nil, union.Words(), from, to)
		sel := expandWords(nil, uw, w0, from)
		if want := naiveExpand(union, from, to); !eqInt32(sel, want) {
			t.Fatalf("expand [%d,%d): got %v, want %v", from, to, sel, want)
		}
		hits := routeWords(nil, uw, q.Words(), w0)
		if want := naiveRoute(union, q, from, to); !eqInt32(hits, want) {
			t.Fatalf("route [%d,%d): got %v, want %v", from, to, hits, want)
		}
		// Routed slots must index into the expanded selection.
		for _, h := range hits {
			if int(h) >= len(sel) {
				t.Fatalf("routed slot %d out of batch of %d", h, len(sel))
			}
		}
	})
}

// BenchmarkBitmapRoute isolates the routing kernel: expand one page's
// union words and route them to 4 query bitmaps, against the scalar
// per-bit equivalent; and route a whole scan-regime page (full_page).
func BenchmarkBitmapRoute(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(7))
	union := bitmap.New(n)
	queries := make([]*bitmap.Bitset, 4)
	for i := range queries {
		queries[i] = bitmap.New(n)
	}
	for i := int64(0); i < n; i++ {
		if rng.Float64() < 0.5 {
			union.Set(i)
			queries[rng.Intn(4)].Set(i)
		}
	}
	const pageRows = 170 // one 4KiB page of 24-byte tuples
	b.Run("vectorized", func(b *testing.B) {
		uwords := make([]uint64, 0, pageRows/64+2)
		sel := make([]int32, 0, pageRows)
		hits := make([]int32, 0, pageRows)
		b.ReportAllocs()
		var routed int64
		for i := 0; i < b.N; i++ {
			from := int64(i*pageRows) % (n - pageRows)
			var w0 int
			uwords, w0 = maskedWords(uwords, union.Words(), from, from+pageRows)
			sel = expandWords(sel[:0], uwords, w0, from)
			for _, q := range queries {
				hits = routeWords(hits[:0], uwords, q.Words(), w0)
				routed += int64(len(hits))
			}
		}
		reportRouted(b, routed)
	})
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		var routed int64
		for i := 0; i < b.N; i++ {
			from := int64(i*pageRows) % (n - pageRows)
			for r := from; r < from+pageRows; r++ {
				if !union.Get(r) {
					continue
				}
				for _, q := range queries {
					if q.Get(r) {
						routed++
					}
				}
			}
		}
		reportRouted(b, routed)
	})
	// full_page: one scan-regime page, whose selection words are all
	// ones, routed to a member by routeWords, against expanding the
	// member's own masked words directly, at member densities 1/64 to 1.
	for _, density := range []int{64, 8, 2, 1} {
		q := bitmap.New(n)
		for i := int64(0); i < n; i++ {
			if rng.Intn(density) == 0 {
				q.Set(i)
			}
		}
		page := func(b *testing.B, route func(from int64) int) {
			b.ReportAllocs()
			var routed int64
			for i := 0; i < b.N; i++ {
				routed += int64(route(int64(i*pageRows) % (n - pageRows)))
			}
			reportRouted(b, routed)
		}
		words := make([]uint64, 0, pageRows/64+2)
		hits := make([]int32, 0, pageRows)
		b.Run(fmt.Sprintf("full_page/1_%d/routeWords", density), func(b *testing.B) {
			page(b, func(from int64) int {
				var w0 int
				words, w0 = maskedWords(words, nil, from, from+pageRows)
				hits = routeWords(hits[:0], words, q.Words(), w0)
				return len(hits)
			})
		})
		b.Run(fmt.Sprintf("full_page/1_%d/expandWords", density), func(b *testing.B) {
			page(b, func(from int64) int {
				var w0 int
				words, w0 = maskedWords(words, q.Words(), from, from+pageRows)
				hits = expandWords(hits[:0], words, w0, from)
				return len(hits)
			})
		})
	}
}

func reportRouted(b *testing.B, routed int64) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(routed)/s, "routed/s")
	}
}

// BenchmarkFetchBatches times the production paged fetch loop — word
// expansion into a selection vector plus one FetchPage into a reused
// batch, exactly the probe worker's data path — on a warm pool over a
// half-dense row set. It must not allocate.
func BenchmarkFetchBatches(b *testing.B) {
	db, _ := testDB(b)
	view := db.ViewByLevels([]int{1, 1, 1, 0})
	heap := view.Heap
	rows := heap.Count()
	sel := bitmap.New(rows)
	rng := rand.New(rand.NewSource(11))
	for i := int64(0); i < rows; i++ {
		if rng.Float64() < 0.5 {
			sel.Set(i)
		}
	}
	tpp := int64(heap.TuplesPerPage())
	pages := heap.DataPages()
	// Warm the pool.
	next := int64(0)
	if err := heap.FetchBatches(func() int64 {
		row := sel.NextSet(next)
		next = row + 1
		return row
	}, func(*table.Batch, []int32) error { return nil }); err != nil {
		b.Fatal(err)
	}
	b.Run("paged", func(b *testing.B) {
		batch := heap.MakeBatch()
		uwords := make([]uint64, 0, tpp/64+2)
		pageSel := make([]int32, 0, tpp)
		b.ReportAllocs()
		var fetched int64
		for i := 0; i < b.N; i++ {
			for pg := int64(0); pg < pages; pg++ {
				from := pg * tpp
				to := from + tpp
				if to > rows {
					to = rows
				}
				var w0 int
				uwords, w0 = maskedWords(uwords, sel.Words(), from, to)
				pageSel = expandWords(pageSel[:0], uwords, w0, from)
				if len(pageSel) == 0 {
					continue
				}
				if err := heap.FetchPage(batch, pg, pageSel); err != nil {
					b.Fatal(err)
				}
				fetched += int64(len(pageSel))
			}
		}
		reportRouted(b, fetched)
	})

}

// passIO is the heap-file I/O of one shared pass over view from a cold
// pool: the data pages it read, in read order, and the file's read
// counters.
type passIO struct {
	pages     []int64
	seq, rand int64
}

// coldPass runs pass over view from a cold pool and records its
// heap-file reads.
func coldPass(t *testing.T, db *star.Database, view *star.View, pass func() error) passIO {
	t.Helper()
	if err := db.ColdReset(); err != nil {
		t.Fatal(err)
	}
	file := view.Heap.File()
	var io passIO
	var mu sync.Mutex // parallel workers read concurrently
	file.Disk().SetFault(func(op string, page uint32) error {
		if op == "read" {
			mu.Lock()
			io.pages = append(io.pages, int64(page)-1) // data page pg is file page pg+1
			mu.Unlock()
		}
		return nil
	})
	defer file.Disk().SetFault(nil)
	before := file.IOStats()
	if err := pass(); err != nil {
		t.Fatal(err)
	}
	d := file.IOStats().Sub(before)
	io.seq, io.rand = d.SeqReads, d.RandReads
	return io
}

// TestSharedPassRegimes pins each regime's heap I/O and work counters
// in closed form on the A'B'C'D view, from a cold pool. The scan
// regime (SharedMixed) reads every data page once, in order, as one
// sequential run, scans every row, and charges each filter root a bit
// test per row and its bitmap's popcount as fetches. The probe regime
// (SharedIndex) reads exactly the pages holding union bits, in order,
// and follows rootFetches. At widths 2 and 4 the page reads and every
// deterministic counter equal the serial pass's.
func TestSharedPassRegimes(t *testing.T) {
	db, qs := testDB(t)
	view := db.ViewByLevels([]int{1, 1, 1, 0})
	defer db.ColdReset()
	rows, pages := view.Rows(), view.Heap.DataPages()
	tpp := int64(view.Heap.TuplesPerPage())
	none := emptyQuery(t, db)
	hash := []*query.Query{qs["Q3"]}
	filters := []*query.Query{qs["Q7"], qs["Q8"]}

	type run struct {
		io passIO
		st Stats
	}
	check := func(label string, runs []run, want func(r run) error) {
		t.Helper()
		for i, r := range runs {
			if err := want(r); err != nil {
				t.Fatalf("%s width %d: %v", label, []int{1, 2, 4}[i], err)
			}
			if i > 0 && (len(r.io.pages) != len(runs[0].io.pages) || scanCounters(r.st) != scanCounters(runs[0].st)) {
				t.Fatalf("%s width %d: %d page reads, counters %v; serial %d, %v", label, []int{1, 2, 4}[i],
					len(r.io.pages), scanCounters(r.st), len(runs[0].io.pages), scanCounters(runs[0].st))
			}
		}
	}
	widths := func(pass func(env *Env, st *Stats) error) []run {
		var runs []run
		for _, w := range []int{1, 2, 4} {
			env := NewEnv(db)
			if w > 1 {
				env.Pool, env.MorselPages = NewPool(w), 1
			}
			var r run
			r.io = coldPass(t, db, view, func() error { return pass(env, &r.st) })
			runs = append(runs, r)
		}
		return runs
	}

	for _, c := range []struct {
		name          string
		hash, filters []*query.Query
	}{
		{"hash only", hash, nil},
		{"hash and filters", hash, filters},
		{"filters only", nil, filters},
		{"empty filter", nil, []*query.Query{none}},
	} {
		roots, own, _ := rootFetches(t, view, append(append([]*query.Query(nil), c.hash...), c.filters...), len(c.hash))
		var fetched int64
		for _, n := range own {
			fetched += n
		}
		runs := widths(func(env *Env, st *Stats) error {
			_, _, err := SharedMixed(env, view, c.hash, c.filters, st)
			return err
		})
		check(c.name, runs, func(r run) error {
			if len(r.io.pages) != int(pages) {
				return fmt.Errorf("read %d pages, want all %d", len(r.io.pages), pages)
			}
			if r.st.TuplesScanned != rows || r.st.BitTests != rows*int64(roots) || r.st.TuplesFetched != fetched {
				return fmt.Errorf("scanned %d, bit tests %d, fetched %d; want %d, %d, %d",
					r.st.TuplesScanned, r.st.BitTests, r.st.TuplesFetched, rows, rows*int64(roots), fetched)
			}
			return nil
		})
		// The serial scan reads in page order, one sequential run.
		if s := runs[0].io; s.seq != pages || s.rand != 0 {
			t.Fatalf("%s: %d sequential and %d random reads of %d pages", c.name, s.seq, s.rand, pages)
		}
		for i, pg := range runs[0].io.pages {
			if pg != int64(i) {
				t.Fatalf("%s: read %d was page %d", c.name, i, pg)
			}
		}
	}

	for _, group := range [][]*query.Query{filters[:1], filters} {
		roots, _, union := rootFetches(t, view, group, 0)
		var want []int64
		for pg := int64(0); pg < pages; pg++ {
			for r := pg * tpp; r < min((pg+1)*tpp, rows); r++ {
				if union.Get(r) {
					want = append(want, pg)
					break
				}
			}
		}
		wantTests := int64(0)
		if roots > 1 {
			wantTests = union.Count() * int64(roots)
		}
		label := fmt.Sprintf("probe %d roots", roots)
		runs := widths(func(env *Env, st *Stats) error {
			_, err := SharedIndex(env, view, group, st)
			return err
		})
		check(label, runs, func(r run) error {
			if r.st.TuplesScanned != 0 || r.st.TuplesFetched != union.Count() || r.st.BitTests != wantTests {
				return fmt.Errorf("scanned %d, fetched %d, bit tests %d; want 0, %d, %d",
					r.st.TuplesScanned, r.st.TuplesFetched, r.st.BitTests, union.Count(), wantTests)
			}
			return nil
		})
		if got := runs[0].io.pages; !slices.Equal(got, want) {
			t.Fatalf("%s: read pages %v, want the union's pages %v", label, got, want)
		}
	}
}
