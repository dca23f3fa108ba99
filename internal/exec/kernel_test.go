package exec

import (
	"testing"

	"mdxopt/internal/query"
	"mdxopt/internal/table"
)

// captureBatches decodes the whole view into cloned batches so tests
// can re-feed the fold kernel without touching the buffer pool.
func captureBatches(t testing.TB, env *Env) []*table.Batch {
	t.Helper()
	heap := env.DB.Base().Heap
	var batches []*table.Batch
	if err := heap.ScanRangeBatches(0, heap.Count(), func(b *table.Batch) error {
		batches = append(batches, b.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return batches
}

// TestFoldLoopAllocs pins the packed kernel's steady-state allocation
// rate at exactly zero: once the groups are resident and the scratch
// vectors sized, re-feeding the entire base table must not allocate.
func TestFoldLoopAllocs(t *testing.T) {
	db, qs := testDB(t)
	env := NewEnv(db)
	view := db.Base()
	batches := captureBatches(t, env)

	stats := &Stats{}
	cache := newLookupCache(env, stats)
	defer cache.close()
	var pipes []*queryPipeline
	for _, name := range []string{"Q1", "Q2", "Q3", "Q9"} {
		p, err := newQueryPipeline(env, stats, cache, qs[name], view)
		if err != nil {
			t.Fatal(err)
		}
		defer p.close()
		if p.packer.twoWords() {
			t.Fatalf("%s took two-word keys on the paper schema", name)
		}
		pipes = append(pipes, p)
	}

	feed := func() {
		var st Stats
		for _, b := range batches {
			for _, p := range pipes {
				p.foldBatch(&st, b)
			}
		}
	}
	feed() // warm-up: populate groups, grow tables, size scratch
	if allocs := testing.AllocsPerRun(5, feed); allocs != 0 {
		t.Fatalf("steady-state fold pass allocates %v objects, want 0", allocs)
	}
	for _, p := range pipes {
		if p.ioErr != nil {
			t.Fatal(p.ioErr)
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
