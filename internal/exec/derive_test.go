package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mdxopt/internal/mem"
	"mdxopt/internal/query"
	"mdxopt/internal/star"
)

// Shared aggregation equivalence: whatever forest a pass arranges its
// members into, every member's result must equal the Naive oracle's —
// values and order — at every worker count and morsel grain, spilled or
// not, in all three shared operators; the roots' worker tables are
// finalized key range by key range at every width above one.

// deriveCounters projects a member's own deterministic work: the fields
// that may not vary with the worker count.
func deriveCounters(s Stats) [8]int64 {
	return [8]int64{
		s.TupleProbes, s.TuplesAgg, s.TuplesFetched, s.BitmapWords,
		s.BitTests, s.DerivedQueries, s.DerivedRows, s.PackedFolds,
	}
}

// randomPred draws a predicate for dimension d at level: unrestricted,
// every member listed, or a random non-empty subset.
func randomPred(rng *rand.Rand, d *star.Dimension, level int) query.Predicate {
	card := int(d.Card(level))
	switch rng.Intn(3) {
	case 0:
		return query.Predicate{}
	case 1:
		all := make([]int32, card)
		for i := range all {
			all[i] = int32(i)
		}
		return query.Predicate{Members: all}
	}
	var ms []int32
	for _, c := range rng.Perm(card)[:1+rng.Intn(card)] {
		ms = append(ms, int32(c))
	}
	return query.Predicate{Members: ms}
}

// coarsen draws a query derivable from root: levels at or above the
// root's, and per dimension a predicate the root's subsumes — any
// predicate where the root kept everything, otherwise members whose
// whole subtree the root selected (falling back to a predicate the root
// does not subsume when there is none, which makes a non-derivable
// classmate).
func coarsen(t *testing.T, rng *rand.Rand, name string, root *query.Query, minLevels []int) *query.Query {
	t.Helper()
	s := root.Schema
	levels := make([]int, len(root.Levels))
	preds := make([]query.Predicate, len(root.Levels))
	for i, d := range s.Dims {
		levels[i] = root.Levels[i] + rng.Intn(d.AllLevel()-root.Levels[i]+1)
		if levels[i] < minLevels[i] {
			levels[i] = minLevels[i]
		}
		rp := root.Preds[i]
		if !rp.IsRestricted() {
			preds[i] = randomPred(rng, d, levels[i])
			continue
		}
		kept := root.MemberSet(i)
		var ms []int32
		for c := int32(0); c < d.Card(levels[i]); c++ {
			whole := true
			for _, leaf := range d.Descend([]int32{c}, levels[i], root.Levels[i]) {
				whole = whole && kept[leaf]
			}
			if whole && rng.Intn(3) > 0 {
				ms = append(ms, c)
			}
		}
		if ms == nil {
			ms = []int32{int32(rng.Intn(int(d.Card(levels[i]))))}
		}
		preds[i] = query.Predicate{Members: ms}
	}
	q, err := query.New(name, s, levels, preds)
	if err != nil {
		t.Fatal(err)
	}
	q.Agg = root.Agg
	return q
}

// randomClass draws the members of one pass: a few roots at random
// levels (at or above minLevels), predicates and aggregates, each with
// a family of coarser members most of which are derivable from it or
// from one another, plus exact duplicates. Roots draw one of the first
// aggs aggregates.
func randomClass(t *testing.T, rng *rand.Rand, s *star.Schema, minLevels []int, aggs int) []*query.Query {
	t.Helper()
	var out []*query.Query
	name := func() string { return fmt.Sprintf("q%d", len(out)+1) }
	for r := 0; r < 1+rng.Intn(2); r++ {
		levels := make([]int, len(s.Dims))
		preds := make([]query.Predicate, len(s.Dims))
		for i, d := range s.Dims {
			levels[i] = minLevels[i] + rng.Intn(d.AllLevel()-minLevels[i]+1)
			if i == 3 && levels[i] == 0 {
				levels[i] = 1 // keep the date-like base level out of the keys
			}
			preds[i] = randomPred(rng, d, levels[i])
		}
		root, err := query.New(name(), s, levels, preds)
		if err != nil {
			t.Fatal(err)
		}
		root.Agg = query.Agg(rng.Intn(aggs))
		out = append(out, root)
		for k := 0; k < 2+rng.Intn(4); k++ {
			from := out[len(out)-1-rng.Intn(k+1)] // the root or an earlier relative: cascades
			out = append(out, coarsen(t, rng, name(), from, minLevels))
		}
		dup := *out[len(out)-1-rng.Intn(3)]
		dup.Name = name()
		out = append(out, &dup)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// widthGrains are the (workers, morsel pages) runs the equivalence
// suites sweep: every width the finalization's range count depends on,
// at one-page morsels and the default grain.
var widthGrains = [][2]int{{1, 16}, {2, 1}, {2, 16}, {3, 1}, {3, 16}, {4, 1}, {4, 16}, {8, 1}, {8, 16}}

// sweepWidths runs class through pass at every width and grain of
// widthGrains, unspilled and under a 4 KiB budget, and requires every
// result equal to want, each member's own counters equal across runs
// and the broker drained. lookups, when non-nil, serves the passes'
// dimension lookups. It returns the members derived and taking tuples
// in the serial unspilled run, and the bytes spilled over all runs.
func sweepWidths(t *testing.T, label string, db *star.Database, lookups *LookupSet, class []*query.Query, want []*Result,
	pass func(env *Env, st *Stats) ([]*Result, error)) (derived, roots, spilled int64) {
	t.Helper()
	for _, budget := range []int64{0, 4 << 10} {
		var serialOwn [][8]int64
		for _, run := range widthGrains {
			workers := run[0]
			env := NewEnv(db)
			env.Pool = NewPool(workers)
			env.MorselPages = run[1]
			env.Lookups = lookups
			if budget > 0 {
				env.Mem = mem.New(budget)
				env.SpillDir = t.TempDir()
			}
			var st Stats
			got, err := pass(env, &st)
			if err != nil {
				t.Fatalf("%s budget %d run %v: %v", label, budget, run, err)
			}
			spilled += st.SpillBytes
			own := make([][8]int64, len(got))
			for i, r := range got {
				if r.Query != class[i] {
					t.Fatalf("%s: result %d is for %s, want %s", label, i, r.Query.Name, class[i].Name)
				}
				if !r.Equal(want[i]) {
					t.Fatalf("%s budget %d run %v: %s differs from Naive: %d groups total %v, want %d groups total %v",
						label, budget, run, r.Query, len(r.Groups), r.Total(), len(want[i].Groups), want[i].Total())
				}
				own[i] = deriveCounters(r.Own)
				if workers == 1 && budget == 0 {
					derived += r.Own.DerivedQueries
					roots += 1 - r.Own.DerivedQueries
				}
			}
			if serialOwn == nil {
				serialOwn = own
			}
			for i := range own {
				if own[i] != serialOwn[i] {
					t.Fatalf("%s budget %d run %v: %s own counters %v, serial %v",
						label, budget, run, class[i].Name, own[i], serialOwn[i])
				}
			}
			if budget > 0 && env.Mem.Used() != 0 {
				t.Fatalf("%s run %v: broker holds %d bytes after the pass", label, run, env.Mem.Used())
			}
		}
	}
	return derived, roots, spilled
}

func TestDerivationMatchesNaive(t *testing.T) {
	db, _ := testDB(t)
	indexed := db.ViewByLevels([]int{1, 1, 1, 0})
	if indexed == nil {
		t.Fatal("A'B'C'D view missing")
	}
	rng := rand.New(rand.NewSource(19980601))
	oracleEnv := NewEnv(db)
	var derived, roots, spilled int64
	for trial := 0; trial < 12; trial++ {
		op := []string{"hash", "mixed", "probe"}[trial%3]
		view, minLevels, aggs := db.Base(), []int{0, 0, 0, 0}, 5
		if op != "hash" {
			// The indexed view stores sums only.
			view, minLevels, aggs = indexed, indexed.Levels, 1
		}
		class := randomClass(t, rng, db.Schema, minLevels, aggs)
		if op == "probe" {
			// A probe pass needs an indexed restricted dimension on every
			// member that may end up a root.
			for _, q := range class {
				if !q.Preds[0].IsRestricted() {
					q.Preds[0] = query.Predicate{Members: []int32{0}}
				}
			}
		}
		want := make([]*Result, len(class))
		for i, q := range class {
			want[i] = oracle(t, oracleEnv, q)
		}
		split := 0
		if op == "mixed" {
			// Bitmap-filter members need an index only when restricted.
			for split < len(class) && (len(class[split].RestrictedDims()) == 0 || class[split].Preds[0].IsRestricted()) {
				split++
			}
			split = rng.Intn(split + 1)
		}
		d, r, sp := sweepWidths(t, fmt.Sprintf("trial %d %s", trial, op), db, nil, class, want, func(env *Env, st *Stats) ([]*Result, error) {
			switch op {
			case "hash":
				return SharedScanHash(env, view, class, st)
			case "probe":
				return SharedIndex(env, view, class, st)
			}
			hr, ir, err := SharedMixed(env, view, class[split:], class[:split], st)
			return append(append([]*Result(nil), ir...), hr...), err
		})
		derived, roots, spilled = derived+d, roots+r, spilled+sp
	}
	if derived == 0 || roots == 0 || spilled == 0 {
		t.Fatalf("%d derived members, %d roots, %d bytes spilled: the classes exercise only one side", derived, roots, spilled)
	}
	t.Logf("%d members derived, %d took tuples, %d bytes spilled", derived, roots, spilled)

	// Two-word keys derive too: on the straddling schema a 77-bit root
	// feeds a 69-bit member and a 43-bit one, under every aggregate.
	wide := buildDB(t, straddleSpec())
	for _, agg := range []query.Agg{query.Sum, query.Count, query.Min, query.Max, query.Avg} {
		var class []*query.Query
		for _, levels := range [][]int{{0, 0, 0, 0, 0}, {0, 0, 0, 0, 1}, {1, 1, 1, 1, 1}} {
			q, err := query.New(fmt.Sprintf("l%v_%s", levels, agg), wide.Schema, levels, nil)
			if err != nil {
				t.Fatal(err)
			}
			q.Agg = agg
			class = append(class, q)
		}
		if kps := []*keyPacker{newKeyPacker(wide.Schema, class[0].Levels), newKeyPacker(wide.Schema, class[1].Levels),
			newKeyPacker(wide.Schema, class[2].Levels)}; !kps[0].twoWords() || !kps[1].twoWords() || kps[2].twoWords() {
			t.Fatal("want two two-word members and a one-word one")
		}
		oenv := NewEnv(wide)
		want := make([]*Result, len(class))
		for i, q := range class {
			want[i] = oracle(t, oenv, q)
		}
		// One lookup set serves every pass: the wide dimension tables
		// are scanned once.
		lookups := NewLookupSet(nil)
		var builds []LookupBuild
		for d := range class[0].Levels {
			builds = append(builds, LookupBuild{Query: class[0], Dim: d, ViewLevel: 0})
		}
		var bst Stats
		if err := oenv.BuildLookups(lookups, builds, &bst); err != nil {
			t.Fatal(err)
		}
		d, r, _ := sweepWidths(t, "straddle "+agg.String(), wide, lookups, class, want, func(env *Env, st *Stats) ([]*Result, error) {
			return SharedScanHash(env, wide.Base(), class, st)
		})
		if d != 2 || r != 1 {
			t.Fatalf("straddle %s: %d members derived, %d took tuples; want 2 and 1", agg, d, r)
		}
	}
}

// derivablePair returns an unrestricted A'B' query and its A”B” rollup.
func derivablePair(t *testing.T, s *star.Schema) (parent, child *query.Query) {
	t.Helper()
	parent, err := query.New("fine", s, []int{1, 1, 3, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	child, err = query.New("coarse", s, []int{2, 2, 3, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return parent, child
}

// TestDetachedParentKeepsFoldingForChild: a root whose own submission
// is canceled must keep consuming tuples while a member derived from it
// is still attached — the child's answer depends on it — and carries
// its context's error all the same.
func TestDetachedParentKeepsFoldingForChild(t *testing.T) {
	db, _ := testDB(t)
	parent, child := derivablePair(t, db.Schema)
	for _, workers := range []int{1, 4} {
		env := NewEnv(db)
		env.Pool = NewPool(workers)
		env.QueryCtx = func(q *query.Query) context.Context {
			if q == parent {
				return canceledCtx()
			}
			return context.Background()
		}
		var st Stats
		rs, err := SharedScanHash(env, db.Base(), []*query.Query{child, parent}, &st)
		if err != nil {
			t.Fatal(err)
		}
		if rs[1].Err == nil {
			t.Fatal("canceled parent's result has no error")
		}
		if rs[0].Err != nil || rs[0].Own.DerivedQueries != 1 {
			t.Fatalf("child: err %v, derived %d; want an attached, derived member", rs[0].Err, rs[0].Own.DerivedQueries)
		}
		if st.TuplesScanned != db.Base().Rows() {
			t.Fatalf("workers %d: pass scanned %d of %d rows although a derived member was attached", workers, st.TuplesScanned, db.Base().Rows())
		}
		env.QueryCtx = nil
		checkAgainstOracle(t, env, rs[0])
	}
}

// TestDetachedChildLeavesParentIntact is the converse: a canceled
// derived member costs its parent nothing.
func TestDetachedChildLeavesParentIntact(t *testing.T) {
	db, _ := testDB(t)
	parent, child := derivablePair(t, db.Schema)
	env := NewEnv(db)
	env.QueryCtx = func(q *query.Query) context.Context {
		if q == child {
			return canceledCtx()
		}
		return context.Background()
	}
	var st Stats
	rs, err := SharedScanHash(env, db.Base(), []*query.Query{parent, child}, &st)
	if err != nil {
		t.Fatal(err)
	}
	if rs[1].Err == nil || rs[0].Err != nil {
		t.Fatalf("errors: parent %v, child %v", rs[0].Err, rs[1].Err)
	}
	env.QueryCtx = nil
	checkAgainstOracle(t, env, rs[0])
}

// TestDerivedFamilyAllDetachedAbortsPass: with the root and everything
// derived from it canceled, nobody is left to scan for.
func TestDerivedFamilyAllDetachedAbortsPass(t *testing.T) {
	db, _ := testDB(t)
	parent, child := derivablePair(t, db.Schema)
	for _, workers := range []int{1, 4} {
		env := NewEnv(db)
		env.Pool = NewPool(workers)
		env.QueryCtx = func(*query.Query) context.Context { return canceledCtx() }
		var st Stats
		rs, err := SharedScanHash(env, db.Base(), []*query.Query{parent, child}, &st)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			if r.Err == nil {
				t.Fatalf("result %d of an all-canceled pass has no error", i)
			}
		}
		if st.TuplesScanned >= db.Base().Rows() {
			t.Fatalf("workers %d: every member detached but the pass scanned all %d rows", workers, st.TuplesScanned)
		}
	}
}

// FuzzRollupRemap checks foldTable.rollupFrom against a map: arbitrary
// cardinalities on both sides, an arbitrary code remap and pass vector
// per dimension, rows folded into a source table first. The rolled-up
// table must hold exactly the reference groups, in canonical order.
func FuzzRollupRemap(f *testing.F) {
	f.Add(uint16(90), uint16(9), uint16(3), uint16(9), uint16(3), uint16(1), uint64(1), uint64(0), uint16(500))
	f.Add(uint16(300), uint16(300), uint16(2), uint16(300), uint16(7), uint16(2), uint64(0xfeed), ^uint64(0), uint16(2000))
	f.Add(uint16(1), uint16(1), uint16(1), uint16(1), uint16(1), uint16(1), uint64(7), uint64(5), uint16(10))
	f.Fuzz(func(t *testing.T, s0, s1, s2, d0, d1, d2 uint16, seed, passBits uint64, n uint16) {
		src := []int32{int32(s0%1000) + 1, int32(s1%1000) + 1, int32(s2%1000) + 1}
		dst := []int32{int32(d0)%src[0] + 1, int32(d1)%src[1] + 1, int32(d2)%src[2] + 1}
		from, _ := newKeyPackerFromCards(src)
		to, _ := newKeyPackerFromCards(dst)
		rng := rand.New(rand.NewSource(int64(seed)))
		lks := make([]dimLookup, len(src))
		for d := range lks {
			lks[d].out = make([]int32, src[d])
			for c := range lks[d].out {
				lks[d].out[c] = int32(rng.Intn(int(dst[d])))
			}
			if passBits>>d&1 == 1 {
				lks[d].pass = make([]bool, src[d])
				for c := range lks[d].pass {
					lks[d].pass[c] = passBits>>(8+uint(c)%56)&1 == 1
				}
			}
		}
		env := &Env{}
		source := newFoldTable(env, query.Avg, from, "src")
		defer source.close()
		codes := make([]int32, len(src))
		for i := 0; i < int(n); i++ {
			for d := range codes {
				codes[d] = int32(rng.Intn(int(src[d])))
			}
			lo, hi := from.pack(codes)
			if err := source.foldKey(lo, hi, accum{a: float64(rng.Intn(1000)), b: 1, set: true}); err != nil {
				t.Fatal(err)
			}
		}
		var srs runSet
		srs.init(source, 1)
		if err := srs.finalize(); err != nil {
			t.Fatal(err)
		}
		rows := srs.rowsOf(0)
		want := map[[2]uint64][2]float64{}
		var wantFolded int64
	next:
		for _, r := range rows {
			from.unpack(r.key, r.sortKey, codes)
			for d, c := range codes {
				if lks[d].pass != nil && !lks[d].pass[c] {
					continue next
				}
				codes[d] = lks[d].out[c]
			}
			k := pk(to, codes...)
			want[k] = [2]float64{want[k][0] + r.a, want[k][1] + r.b}
			wantFolded++
		}
		target := newFoldTable(env, query.Avg, to, "dst")
		defer target.close()
		folded, err := target.rollupFrom(rows, from, lks)
		if err != nil || folded != wantFolded {
			t.Fatalf("rollupFrom folded %d rows, err %v; want %d", folded, err, wantFolded)
		}
		var drs runSet
		drs.init(target, 1)
		if err := drs.finalize(); err != nil {
			t.Fatal(err)
		}
		got := drs.rowsOf(0)
		if len(got) != len(want) {
			t.Fatalf("%d groups, want %d", len(got), len(want))
		}
		for i, r := range got {
			if w := want[rowKey(to, r)]; w != [2]float64{r.a, r.b} {
				t.Fatalf("group %#x = (%v, %v), want %v", rowKey(to, r), r.a, r.b, w)
			}
			if i > 0 && to.compareKeys(got[i-1].key, got[i-1].sortKey, r.key, r.sortKey) >= 0 {
				t.Fatalf("groups %#x, %#x out of canonical order", rowKey(to, got[i-1]), rowKey(to, r))
			}
		}
	})
}
