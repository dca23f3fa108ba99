package exec

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"mdxopt/internal/datagen"
	"mdxopt/internal/mem"
	"mdxopt/internal/query"
	"mdxopt/internal/star"
)

// Result finalization: a fold table becomes sorted, slab-backed Groups
// without ever building the canonical byte keys, so the order it
// produces is checked here against the oracle, which sorts exactly
// those byte keys.

// straddleSpec is a five-dimension schema whose level cardinalities sit
// on both sides of the one- and two-byte code boundaries (255, 256, 257;
// 65,280, 66,049), where little-endian byte order and numeric order of
// the codes disagree. Dense uniform facts spread the codes over the
// whole range of every level.
func straddleSpec() datagen.Spec {
	return datagen.Spec{
		Rows: 2500,
		Seed: 12,
		Cards: [][]int{
			{66049, 257},     // 17 bits / 3 sort bytes, 9 bits / 2
			{65280, 255, 5},  // 16 bits / 2, 8 bits / 1, 3 bits / 1
			{66049, 257},     // as A
			{768, 256, 2},    // 10 bits / 2, exactly one byte, 1 bit
			{131072, 512, 4}, // 17 bits / 3, 9 bits / 2, 2 bits / 1
		},
		PoolFrames: 256,
	}
}

// highWordSpec is a nine-dimension schema whose base-level key takes 82
// bits: six 10-bit fields fill the low word up to bit 60, and the high
// word holds the upper part of a 9-bit field across bit 64 and two whole
// fields after it.
func highWordSpec() datagen.Spec {
	return datagen.Spec{
		Rows:       2500,
		Seed:       13,
		Cards:      [][]int{{1024}, {1024}, {1024}, {1024}, {1024}, {1024}, {300}, {1000}, {5}},
		PoolFrames: 256,
	}
}

// buildDB builds spec's database in a test temp dir.
func buildDB(t *testing.T, spec datagen.Spec) *star.Database {
	t.Helper()
	db, err := datagen.Build(filepath.Join(t.TempDir(), "db"), spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// roundedBytes is kp's key width with every field rounded up to whole
// bytes: the width of the canonical byte key less its always-zero bytes.
func roundedBytes(kp *keyPacker) int {
	n := 0
	for _, m := range kp.masks {
		n += (star.FieldBits(int32(m+1)) + 7) / 8
	}
	return n
}

// highWordDims counts the dimensions of kp with bits in the high word.
func highWordDims(kp *keyPacker) int {
	n := 0
	for i, s := range kp.shifts {
		if int(s)+star.FieldBits(int32(kp.masks[i]+1)) > 64 {
			n++
		}
	}
	return n
}

// TestFinalizeOrderMatchesOracle runs every aggregate of group-bys over
// the straddling schema — level vectors of one word whose byte-rounded
// fields fit eight bytes, ones of one word whose byte-rounded fields do
// not, ones that take two words — and over highWordSpec's base level, whose high
// word holds three dimensions, through the shared scan at every width
// and grain of widthGrains, unspilled and under a 4 KiB budget, and
// requires groups, order and values equal to Naive's.
func TestFinalizeOrderMatchesOracle(t *testing.T) {
	db := buildDB(t, straddleSpec())
	schema := db.Schema
	all := func(d int) int { return schema.Dims[d].AllLevel() }

	vectors := [][]int{
		{1, 1, 1, 1, 1},                     // 8 rounded bytes, every field at a byte edge
		{0, 0, all(2), all(3), all(4)},      // 5 rounded bytes, two wide fields
		{0, 1, 1, 0, 2},                     // 3+1+2+2+1 = 9 rounded bytes in 46 bits
		{0, 0, 0, all(3), all(4)},           // 8 rounded bytes exactly
		{0, all(1), 0, 1, 0},                // 3+3+1+3 = 10 rounded bytes in 59 bits
		{0, 0, 0, 0, 0},                     // 77 bits: two words
		{0, 0, 0, 0, 1},                     // 69 bits: two words, a field across bit 64
		{all(0), 2, all(2), all(3), all(4)}, // five groups
	}
	rng := rand.New(rand.NewSource(20260925))
	for len(vectors) < 12 {
		v := make([]int, schema.NumDims())
		for d := range v {
			v[d] = rng.Intn(all(d) + 1)
		}
		vectors = append(vectors, v)
	}
	type vector struct {
		db     *star.Database
		levels []int
	}
	var cases []vector
	for _, levels := range vectors {
		cases = append(cases, vector{db, levels})
	}
	hw := buildDB(t, highWordSpec())
	cases = append(cases, vector{hw, make([]int, hw.Schema.NumDims())})

	var narrow, wide, twoWord, highWord int
	for vi, c := range cases {
		db, schema, levels := c.db, c.db.Schema, c.levels
		kp := newKeyPacker(schema, levels)
		switch {
		case kp.twoWords():
			twoWord++
			if highWordDims(kp) >= 2 {
				highWord++
			}
		case roundedBytes(kp) > 8:
			wide++
		default:
			narrow++
		}
		var group []*query.Query
		for _, agg := range []query.Agg{query.Sum, query.Count, query.Min, query.Max, query.Avg} {
			q, err := query.New(fmt.Sprintf("v%d_%s", vi, agg), schema, levels, nil)
			if err != nil {
				t.Fatal(err)
			}
			q.Agg = agg
			group = append(group, q)
		}
		oenv := NewEnv(db)
		want := make([]*Result, len(group))
		for i, q := range group {
			want[i] = oracle(t, oenv, q)
		}
		// One ungoverned lookup set per vector: the wide dimension
		// tables are scanned once, and the 4 KiB budget below is the
		// fold tables' alone.
		lookups := NewLookupSet(nil)
		var builds []LookupBuild
		for d := range levels {
			builds = append(builds, LookupBuild{Query: group[0], Dim: d, ViewLevel: 0})
		}
		var bst Stats
		if err := oenv.BuildLookups(lookups, builds, &bst); err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int64{0, 4 << 10} {
			for _, run := range widthGrains {
				env := NewEnv(db)
				env.Pool, env.MorselPages = NewPool(run[0]), run[1]
				env.SpillDir = t.TempDir()
				env.Mem = mem.New(budget)
				env.Lookups = lookups
				var st Stats
				got, err := SharedScanHash(env, db.Base(), group, &st)
				if err != nil {
					t.Fatalf("levels %v budget %d run %v: %v", levels, budget, run, err)
				}
				for i := range got {
					if !got[i].Equal(want[i]) {
						t.Fatalf("levels %v budget %d run %v: %s differs from the oracle (%d groups, want %d)",
							levels, budget, run, got[i].Query.Name, len(got[i].Groups), len(want[i].Groups))
					}
				}
				if budget > 0 && len(want[0].Groups) > 1000 && st.SpillBytes == 0 {
					t.Fatalf("levels %v: %d groups did not spill under %d bytes", levels, len(want[0].Groups), budget)
				}
				checkDrained(t, env.Mem)
			}
		}
	}
	if narrow < 3 || wide < 2 || twoWord < 2 || highWord < 1 {
		t.Fatalf("coverage: %d one-word vectors within 8 rounded bytes, %d past them, %d two-word vectors, %d with two dimensions in the high word",
			narrow, wide, twoWord, highWord)
	}
}

// TestGroupKeysDoNotAlias: one result's Keys share a slab, so each must
// be cut with its capacity clipped — an append on one group's keys must
// reallocate, not overwrite the next group's — at both key widths: the
// paper schema's Q1 folds one-word keys, the straddling schema's 77-bit
// base-level group-by two-word keys.
func TestGroupKeysDoNotAlias(t *testing.T) {
	db, qs := testDB(t)
	wide := buildDB(t, straddleSpec())
	base, err := query.New("base", wide.Schema, make([]int, wide.Schema.NumDims()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !newKeyPacker(wide.Schema, base.Levels).twoWords() {
		t.Fatal("the straddling base-level key packed into a word")
	}
	for _, tc := range []struct {
		db *star.Database
		q  *query.Query
	}{{db, qs["Q1"]}, {wide, base}} {
		var st Stats
		r, err := HashJoinQuery(NewEnv(tc.db), tc.db.Base(), tc.q, &st)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Groups) < 2 {
			t.Fatalf("%s: %d groups, want several", tc.q.Name, len(r.Groups))
		}
		for i := range r.Groups[:len(r.Groups)-1] {
			g := r.Groups[i]
			if cap(g.Keys) != len(g.Keys) {
				t.Fatalf("%s group %d: keys len %d cap %d", tc.q.Name, i, len(g.Keys), cap(g.Keys))
			}
			next := append([]int32(nil), r.Groups[i+1].Keys...)
			_ = append(g.Keys, -1)
			if !equalKeys(r.Groups[i+1].Keys, next) {
				t.Fatalf("%s: append on group %d changed group %d", tc.q.Name, i, i+1)
			}
		}
	}
}

// filledPipeline returns a packed pipeline holding n distinct groups,
// each folded twice: over a 4x8-bit key space, or with wide over a
// 98-bit two-word one whose groups differ in both words.
func filledPipeline(tb testing.TB, env *Env, n int, wide bool) *queryPipeline {
	tb.Helper()
	_, qs := testDB(tb)
	cards := []int32{256, 256, 256, 256}
	if wide {
		cards = []int32{1 << 30, 1 << 30, 1 << 30, 256}
	}
	kp, ok := newKeyPackerFromCards(cards)
	if !ok || kp.twoWords() != wide {
		tb.Fatalf("key of cards %v: packed %v, two words %v, want %v", cards, ok, ok && kp.twoWords(), wide)
	}
	q := *qs["Q1"]
	q.Agg = query.Avg
	p := &queryPipeline{q: &q, packer: kp, ftab: newFoldTable(env, q.Agg, kp, "finalize")}
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			// An odd multiplier permutes the 32-bit key space: n
			// distinct keys in scattered order.
			x := uint64(uint32(i) * 2654435761)
			lo, hi := x, uint64(0)
			if wide {
				lo, hi = x<<32|x, x>>16
			}
			if err := p.ftab.foldKey(lo, hi, accum{a: float64(i), b: 1, set: true}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return p
}

// filledRoot returns a root pipeline ready for finalizeSets: width
// worker tables (filledPipeline's), each holding the same n groups, so
// every group has a duplicate in every other worker.
func filledRoot(tb testing.TB, env *Env, width, n int, wide bool) *queryPipeline {
	tb.Helper()
	p := filledPipeline(tb, env, n, wide)
	p.ftab.fin.init(p.ftab, width)
	for w := 1; w < width; w++ {
		p.ftab.fin.src[w].t = filledPipeline(tb, env, n, wide).ftab
	}
	return p
}

// finalizeAllocs is testing.AllocsPerRun for finalization, which
// consumes its tables: each run finalizes a fresh filledRoot, built
// outside the measured span — and its garbage collected there, so no GC
// cycle lands in the span — and builds its Result.
func finalizeAllocs(t *testing.T, env *Env, width, n int) float64 {
	t.Helper()
	const runs = 5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var total uint64
	for i := 0; i <= runs; i++ { // the first run warms up
		p := filledRoot(t, env, width, n, false)
		roots := []*queryPipeline{p}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := finalizeSets(env, roots)
		r := p.result(new(Stats))
		runtime.ReadMemStats(&after)
		if err != nil || len(r.Groups) != n {
			t.Fatalf("width %d: %d groups, err %v; want %d", width, len(r.Groups), err, n)
		}
		if i > 0 {
			total += after.Mallocs - before.Mallocs
		}
	}
	return float64(total) / runs
}

// TestFinalizeAllocs pins a width-1 finalization to a constant number
// of allocations whatever the group count: the slab, the groups, the
// key slab and the Result — no per-group key, string or slice.
func TestFinalizeAllocs(t *testing.T) {
	db, _ := testDB(t)
	env := NewEnv(db)
	for _, n := range []int{100, 10000} {
		if allocs := finalizeAllocs(t, env, 1, n); allocs > 4 {
			t.Fatalf("finalization allocates %v objects for %d groups, want at most 4", allocs, n)
		}
	}
}

// TestFinalizeAllocsWidth2 pins the partitioned path: a width-2
// finalization allocates one run slab and one merged slab per root,
// plus a constant of pool bookkeeping — the same count at 100 and at
// 10,000 groups, not O(P × W) slices.
func TestFinalizeAllocsWidth2(t *testing.T) {
	db, _ := testDB(t)
	env := NewEnv(db)
	env.Pool = NewPool(2)
	small, large := finalizeAllocs(t, env, 2, 100), finalizeAllocs(t, env, 2, 10000)
	if small != large {
		t.Fatalf("width-2 finalization allocates %v objects for 100 groups, %v for 10,000", small, large)
	}
	t.Logf("width-2 finalization: %v allocations", small)
}

// BenchmarkFinalize measures finalization alone — spill merge, copy,
// sort, merge, decode — of a root of 1k and 100k groups per worker
// table, one-word or two-word keys, resident or spilled, at widths 1
// and 2.
func BenchmarkFinalize(b *testing.B) {
	db, _ := testDB(b)
	for _, wide := range []bool{false, true} {
		key, slot := "one_word", int64(foldSlotBytes)
		if wide {
			key, slot = "two_word", foldSlotBytes+8
		}
		for _, width := range []int{1, 2} {
			for _, n := range []int{1000, 100000} {
				for _, spilled := range []bool{false, true} {
					name := fmt.Sprintf("%s/width=%d/groups=%d/unspilled", key, width, n)
					if spilled {
						name = fmt.Sprintf("%s/width=%d/groups=%d/spilled", key, width, n)
					}
					b.Run(name, func(b *testing.B) {
						env := NewEnv(db)
						env.Pool = NewPool(width)
						if spilled {
							// A quarter of what the resident tables would hold.
							env.Mem = mem.New(int64(width*n) * slot / 4)
							env.SpillDir = b.TempDir()
						}
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							b.StopTimer()
							p := filledRoot(b, env, width, n, wide)
							if spilled != (p.ftab.sp != nil) {
								b.Fatalf("spilled = %v, want %v", p.ftab.sp != nil, spilled)
							}
							b.StartTimer()
							if err := finalizeSets(env, []*queryPipeline{p}); err != nil || len(p.ftab.fin.groups) != n {
								b.Fatalf("finalize: %d groups, err %v", len(p.ftab.fin.groups), err)
							}
						}
					})
				}
			}
		}
	}
}
