package table

import (
	"errors"
	"fmt"
	"testing"
)

// TestScanRangeBatchesMatchesScanRange checks the batched scan against
// the per-row scan tuple for tuple, across aligned and unaligned
// ranges.
func TestScanRangeBatchesMatchesScanRange(t *testing.T) {
	_, h := newHeap(t, testSchema())
	const rows = 1000 // several pages at 4 keys + 1 measure per tuple
	appendN(t, h, rows)
	tpp := int64(h.TuplesPerPage())

	ranges := [][2]int64{
		{0, rows},                // full table
		{0, tpp},                 // exactly one page
		{tpp, 2 * tpp},           // interior page
		{3, 5},                   // inside one page
		{tpp - 2, tpp + 3},       // straddles a page boundary
		{rows - 1, rows},         // last row
		{rows - 3, rows + 50},    // clamped at the end
		{-5, 2},                  // clamped at the start
		{rows + 1, rows + 10},    // fully out of range
		{2 * tpp, 2*tpp + tpp/2}, // half a page
	}
	for _, r := range ranges {
		type tuple struct {
			row  int64
			keys [4]int32
			m    float64
		}
		var want []tuple
		if err := h.ScanRange(r[0], r[1], func(row int64, keys []int32, measures []float64) error {
			want = append(want, tuple{row, [4]int32{keys[0], keys[1], keys[2], keys[3]}, measures[0]})
			return nil
		}); err != nil {
			t.Fatalf("ScanRange%v: %v", r, err)
		}
		var got []tuple
		if err := h.ScanRangeBatches(r[0], r[1], func(b *Batch) error {
			if b.N <= 0 || b.N > h.TuplesPerPage() {
				t.Fatalf("range %v: batch of %d tuples (tpp %d)", r, b.N, h.TuplesPerPage())
			}
			// A batch never crosses a page boundary.
			if b.Start/tpp != (b.Start+int64(b.N)-1)/tpp {
				t.Fatalf("range %v: batch [%d, %d) spans pages", r, b.Start, b.Start+int64(b.N))
			}
			for i := 0; i < b.N; i++ {
				keys, measures := b.Row(i)
				got = append(got, tuple{b.Start + int64(i), [4]int32{keys[0], keys[1], keys[2], keys[3]}, measures[0]})
			}
			return nil
		}); err != nil {
			t.Fatalf("ScanRangeBatches%v: %v", r, err)
		}
		if len(got) != len(want) {
			t.Fatalf("range %v: %d tuples batched, %d per-row", r, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("range %v tuple %d: batched %+v, per-row %+v", r, i, got[i], want[i])
			}
		}
	}
}

// TestScanRangeBatchesStopsOnError checks that a callback error aborts
// the scan immediately and propagates.
func TestScanRangeBatchesStopsOnError(t *testing.T) {
	_, h := newHeap(t, testSchema())
	appendN(t, h, 1000)
	boom := errors.New("boom")
	calls := 0
	err := h.ScanRangeBatches(0, h.Count(), func(b *Batch) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 2 {
		t.Fatalf("callback ran %d times after error, want 2", calls)
	}
}

// TestBatchBuffersAreReused documents the aliasing contract: the batch
// arrays are reused from page to page, so retained slices are
// overwritten.
func TestBatchBuffersAreReused(t *testing.T) {
	_, h := newHeap(t, testSchema())
	appendN(t, h, 3*h.TuplesPerPage())
	var first []int32
	batches := 0
	if err := h.ScanRangeBatches(0, h.Count(), func(b *Batch) error {
		batches++
		if first == nil {
			keys, _ := b.Row(0)
			first = keys // deliberately retained without copying
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if batches != 3 {
		t.Fatalf("got %d batches, want 3", batches)
	}
	// After the scan the retained slice aliases the LAST page's first
	// tuple, not the first page's.
	wantRow := int64(2) * int64(h.TuplesPerPage())
	if first[0] != int32(wantRow) {
		t.Fatalf("retained slice holds key %d, want %d (buffers must be reused)", first[0], wantRow)
	}
}

// TestFetchBatchesMatchesFetchRows checks the page-batched fetch against
// a full ScanRange: the same rows, keys and measures, one call and at
// most one physical read per distinct page.
func TestFetchBatchesMatchesFetchRows(t *testing.T) {
	const n = 2500
	pool, h := newHeap(t, testSchema())
	appendN(t, h, n)
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Row sets exercising page boundaries, singletons, dense runs, and
	// cross-page strides.
	tpp := int64(h.TuplesPerPage())
	rowSets := [][]int64{
		{},
		{0},
		{n - 1},
		{0, 1, 2, tpp - 1, tpp, tpp + 1, 2*tpp - 1, 2 * tpp, n - 1},
	}
	var dense, stride []int64
	for r := int64(0); r < n; r++ {
		dense = append(dense, r)
		if r%97 == 0 {
			stride = append(stride, r)
		}
	}
	rowSets = append(rowSets, dense, stride)

	iter := func(rows []int64) func() int64 {
		i := 0
		return func() int64 {
			if i == len(rows) {
				return -1
			}
			r := rows[i]
			i++
			return r
		}
	}

	for si, rows := range rowSets {
		type tuple struct {
			row  int64
			keys []int32
			ms   []float64
		}
		// The reference: every row read in order by ScanRange, the
		// selected ones kept.
		selected := make(map[int64]bool, len(rows))
		for _, r := range rows {
			selected[r] = true
		}
		var want []tuple
		err := h.ScanRange(0, n, func(row int64, keys []int32, measures []float64) error {
			if selected[row] {
				want = append(want, tuple{row, append([]int32(nil), keys...), append([]float64(nil), measures...)})
			}
			return nil
		})
		if err != nil {
			t.Fatalf("set %d: ScanRange: %v", si, err)
		}

		if err := pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
		pool.ResetStats()
		var got []tuple
		pages := 0
		err = h.FetchBatches(iter(rows), func(b *Batch, sel []int32) error {
			pages++
			if b.N != len(sel) {
				return fmt.Errorf("batch N=%d, sel len=%d", b.N, len(sel))
			}
			for i, s := range sel {
				keys, ms := b.Row(i)
				got = append(got, tuple{b.Start + int64(s), append([]int32(nil), keys...), append([]float64(nil), ms...)})
			}
			return nil
		})
		if err != nil {
			t.Fatalf("set %d: FetchBatches: %v", si, err)
		}
		if len(got) != len(want) {
			t.Fatalf("set %d: FetchBatches %d tuples, ScanRange %d", si, len(got), len(want))
		}
		for i := range want {
			if got[i].row != want[i].row {
				t.Fatalf("set %d tuple %d: row %d, want %d", si, i, got[i].row, want[i].row)
			}
			for k := range want[i].keys {
				if got[i].keys[k] != want[i].keys[k] {
					t.Fatalf("set %d row %d: key %d = %d, want %d", si, got[i].row, k, got[i].keys[k], want[i].keys[k])
				}
			}
			for m := range want[i].ms {
				if got[i].ms[m] != want[i].ms[m] {
					t.Fatalf("set %d row %d: measure %d = %v, want %v", si, got[i].row, m, got[i].ms[m], want[i].ms[m])
				}
			}
		}
		// One pin (at most one physical read) per distinct page.
		distinct := make(map[int64]bool)
		for _, r := range rows {
			distinct[r/tpp] = true
		}
		if pages != len(distinct) {
			t.Fatalf("set %d: fn called %d times, want %d pages", si, pages, len(distinct))
		}
		if reads := pool.Stats().Reads(); reads > int64(len(distinct)) {
			t.Fatalf("set %d: %d physical reads for %d pages", si, reads, len(distinct))
		}
	}
}

func TestFetchPageErrors(t *testing.T) {
	_, h := newHeap(t, testSchema())
	appendN(t, h, 100) // less than one full page at 24B tuples
	b := h.MakeBatch()
	if err := h.FetchPage(b, 5, []int32{0}); !errors.Is(err, ErrRowOutOfRange) {
		t.Fatalf("FetchPage past EOF err = %v, want ErrRowOutOfRange", err)
	}
	if err := h.FetchPage(b, -1, []int32{0}); !errors.Is(err, ErrRowOutOfRange) {
		t.Fatalf("FetchPage(-1) err = %v, want ErrRowOutOfRange", err)
	}
	// Selecting a slot past the row count on the last page fails.
	if err := h.FetchPage(b, 0, []int32{100}); !errors.Is(err, ErrRowOutOfRange) {
		t.Fatalf("FetchPage slot past count err = %v, want ErrRowOutOfRange", err)
	}
	// Empty selection succeeds without touching the pool.
	if err := h.FetchPage(b, 0, nil); err != nil {
		t.Fatalf("FetchPage empty sel: %v", err)
	}
	if b.N != 0 {
		t.Fatalf("empty-sel batch N = %d", b.N)
	}
	// FetchBatches propagates out-of-range rows from the iterator.
	rows := []int64{50, 150}
	i := 0
	err := h.FetchBatches(func() int64 {
		if i == len(rows) {
			return -1
		}
		r := rows[i]
		i++
		return r
	}, func(b *Batch, sel []int32) error { return nil })
	if !errors.Is(err, ErrRowOutOfRange) {
		t.Fatalf("FetchBatches out-of-range err = %v, want ErrRowOutOfRange", err)
	}
}

// TestWarmScanAllocs pins the scan loop to a constant number of
// allocations however many pages it pins — the batch once per call,
// nothing per page; the pin itself lives on the caller's stack
// (storage.Pool.FetchInto) — and a single-row fetch to none.
func TestWarmScanAllocs(t *testing.T) {
	_, h := newHeap(t, testSchema())
	const rows = 5000 // a few dozen pages, all resident after the first pass
	appendN(t, h, rows)
	pages := float64(h.DataPages())
	if pages < 10 {
		t.Fatalf("only %v pages: the bound below would not notice a per-page allocation", pages)
	}
	scan := testing.AllocsPerRun(5, func() {
		n := 0
		if err := h.ScanRangeBatches(0, rows, func(b *Batch) error { n += b.N; return nil }); err != nil || n != rows {
			t.Fatalf("scanned %d rows, err %v", n, err)
		}
	})
	if scan > 4 {
		t.Fatalf("ScanRangeBatches allocates %v objects over %v pages, want at most 4", scan, pages)
	}
	keys, measures := make([]int32, 4), make([]float64, 1)
	if row := testing.AllocsPerRun(5, func() {
		if err := h.FetchRow(rows/2, keys, measures); err != nil {
			t.Fatal(err)
		}
	}); row != 0 {
		t.Fatalf("FetchRow allocates %v objects, want 0", row)
	}
}
