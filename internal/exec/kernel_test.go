package exec

import (
	"testing"

	"mdxopt/internal/bitmap"
	"mdxopt/internal/query"
	"mdxopt/internal/star"
	"mdxopt/internal/table"
)

// captureBatches decodes the whole view into cloned batches so tests
// can re-feed the fold kernel without touching the buffer pool.
func captureBatches(t testing.TB, view *star.View) []*table.Batch {
	t.Helper()
	var batches []*table.Batch
	if err := view.Heap.ScanRangeBatches(0, view.Heap.Count(), func(b *table.Batch) error {
		batches = append(batches, b.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return batches
}

// TestFoldLoopAllocs pins the packed kernel's steady-state allocation
// rate at exactly zero for both kinds of root: once the groups are
// resident and the scratch vectors sized, re-feeding every page must
// not allocate. Hash roots fold every slot of the base table; filter
// roots fold the A'B'C'D view through their routed selections, and
// Q7's unindexed D predicate is still tested by the kernel.
func TestFoldLoopAllocs(t *testing.T) {
	db, qs := testDB(t)
	env := NewEnv(db)
	set := NewLookupSet(nil)
	type root struct {
		p       *queryPipeline
		bm      *bitmap.Bitset // nil for a hash root
		batches []*table.Batch
	}
	var roots []root
	add := func(view *star.View, name string, filter bool) *queryPipeline {
		var st Stats
		lookups, err := set.lookups(env, &st, qs[name], view)
		if err != nil {
			t.Fatal(err)
		}
		p := newQueryPipeline(env, lookups, passFilter(make([][]bool, len(lookups)), lookups, view, filter), qs[name], view)
		t.Cleanup(p.close)
		if p.packer.twoWords() {
			t.Fatalf("%s took two-word keys on the paper schema", name)
		}
		r := root{p: p, batches: captureBatches(t, view)}
		if filter {
			if r.bm, err = pipelineBitmap(env, view, p, &st); err != nil {
				t.Fatal(err)
			}
		}
		roots = append(roots, r)
		return p
	}
	for _, name := range []string{"Q1", "Q2", "Q3", "Q9"} {
		add(db.Base(), name, false)
	}
	indexed := db.ViewByLevels([]int{1, 1, 1, 0})
	add(indexed, "Q5", true)
	q7 := add(indexed, "Q7", true)
	for dim, pass := range q7.filter {
		if proved := indexed.HasIndex(dim); (pass == nil) != proved {
			t.Fatalf("Q7 filters dimension %d: %v; indexed: %v", dim, pass != nil, proved)
		}
	}

	all := identitySel(nil, indexed.Heap.TuplesPerPage())
	words := make([]uint64, 0, indexed.Heap.TuplesPerPage()/wordBits+2)
	feed := func() {
		var st Stats
		for _, r := range roots {
			for _, b := range r.batches {
				sel := all[:b.N]
				if r.bm != nil {
					var w0 int
					words, w0 = maskedWords(words, nil, b.Start, b.Start+int64(b.N))
					sel = routeWords(r.p.selRows[:0], words, r.bm.Words(), w0)
				}
				r.p.foldBatch(&st, b, sel)
			}
		}
	}
	feed() // warm-up: populate groups, grow tables, size scratch
	if allocs := testing.AllocsPerRun(5, feed); allocs != 0 {
		t.Fatalf("steady-state fold pass allocates %v objects, want 0", allocs)
	}
	for _, r := range roots {
		if r.p.ioErr != nil {
			t.Fatal(r.p.ioErr)
		}
		if r.p.own.TuplesAgg == 0 {
			t.Fatalf("%s folded nothing", r.p.q.Name)
		}
	}
}

// BenchmarkSharedScanCPU measures the end-to-end shared-scan operator
// on a warm pool, so CPU-bound.
func BenchmarkSharedScanCPU(b *testing.B) {
	db, qs := testDB(b)
	queries := []*query.Query{qs["Q1"], qs["Q2"], qs["Q3"], qs["Q4"], qs["Q9"]}
	env := NewEnv(db)
	var warm Stats
	if _, err := SharedScanHash(env, db.Base(), queries, &warm); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var tuples int64
	for i := 0; i < b.N; i++ {
		var st Stats
		if _, err := SharedScanHash(env, db.Base(), queries, &st); err != nil {
			b.Fatal(err)
		}
		tuples += st.TupleProbes
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(tuples)/s, "tuples/s")
	}
}

// BenchmarkFoldTable isolates the fold table's two entries on a
// synthetic key stream: one find-or-insert per operation against a
// resident working set, under a one-word key and under a two-word key of
// the same group count.
func BenchmarkFoldTable(b *testing.B) {
	db, _ := testDB(b)
	env := NewEnv(db)
	one, _ := newKeyPackerFromCards([]int32{256, 256, 256, 256})
	two, _ := newKeyPackerFromCards([]int32{1 << 30, 1 << 30, 1 << 30, 256})
	if one.twoWords() || !two.twoWords() {
		b.Fatal("want a one-word and a two-word packer")
	}
	const n = 1 << 16
	keys := make([]uint64, n)
	x := uint64(1)
	for i := range keys {
		x = x*6364136223846793005 + 1442695040888963407
		keys[i] = x >> 40 // 24-bit keys: a few thousand distinct groups
	}
	b.Run("one_word", func(b *testing.B) {
		t := newFoldTable(env, query.Sum, one, "bench")
		defer t.close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := t.fold(keys[i%n], accum{a: 1, set: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("two_word", func(b *testing.B) {
		t := newFoldTable(env, query.Sum, two, "bench")
		defer t.close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// The low word's top bits move into the high word.
			k := keys[i%n]
			if err := t.fold2(k&0xfff, k>>12, accum{a: 1, set: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
