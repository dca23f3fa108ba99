package table

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"testing/quick"

	"mdxopt/internal/storage"
)

func testSchema() Schema {
	return NewSchema([]string{"a", "b", "c", "d"}, []string{"m"})
}

func newHeap(t *testing.T, schema Schema) (*storage.Pool, *HeapFile) {
	t.Helper()
	pool := storage.NewPool(16)
	h, err := Create(pool, filepath.Join(t.TempDir(), "t.heap"), schema)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return pool, h
}

func appendN(t *testing.T, h *HeapFile, n int) {
	t.Helper()
	app := h.NewAppender()
	for i := 0; i < n; i++ {
		if err := app.Append([]int32{int32(i), int32(i * 2), int32(i * 3), int32(i % 7)}, []float64{float64(i) / 2}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatalf("Close appender: %v", err)
	}
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema()
	if s.TupleSize() != 4*4+8 {
		t.Fatalf("TupleSize = %d, want 24", s.TupleSize())
	}
	if s.KeyIndex("c") != 2 {
		t.Fatalf("KeyIndex(c) = %d, want 2", s.KeyIndex("c"))
	}
	if s.KeyIndex("zz") != -1 {
		t.Fatal("KeyIndex of missing column should be -1")
	}
	if !s.Equal(testSchema()) {
		t.Fatal("identical schemas not Equal")
	}
	if s.Equal(NewSchema([]string{"a"}, nil)) {
		t.Fatal("different schemas Equal")
	}
}

func TestHeapAppendScanRoundTrip(t *testing.T) {
	const n = 2500 // spans several pages at 24B tuples
	_, h := newHeap(t, testSchema())
	appendN(t, h, n)
	if h.Count() != n {
		t.Fatalf("Count = %d, want %d", h.Count(), n)
	}
	var seen int64
	err := h.Scan(func(row int64, keys []int32, measures []float64) error {
		if row != seen {
			return fmt.Errorf("row %d out of order (want %d)", row, seen)
		}
		i := int(row)
		if keys[0] != int32(i) || keys[1] != int32(i*2) || keys[2] != int32(i*3) || keys[3] != int32(i%7) {
			return fmt.Errorf("row %d keys = %v", row, keys)
		}
		if measures[0] != float64(i)/2 {
			return fmt.Errorf("row %d measure = %v", row, measures[0])
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("scanned %d rows, want %d", seen, n)
	}
}

func TestHeapFetchRow(t *testing.T) {
	_, h := newHeap(t, testSchema())
	appendN(t, h, 1000)
	keys := make([]int32, 4)
	ms := make([]float64, 1)
	for _, row := range []int64{0, 1, 339, 340, 999} {
		if err := h.FetchRow(row, keys, ms); err != nil {
			t.Fatalf("FetchRow(%d): %v", row, err)
		}
		if keys[0] != int32(row) {
			t.Fatalf("FetchRow(%d) keys[0] = %d", row, keys[0])
		}
	}
	if err := h.FetchRow(1000, keys, ms); !errors.Is(err, ErrRowOutOfRange) {
		t.Fatalf("FetchRow(1000) err = %v, want ErrRowOutOfRange", err)
	}
	if err := h.FetchRow(-1, keys, ms); !errors.Is(err, ErrRowOutOfRange) {
		t.Fatalf("FetchRow(-1) err = %v, want ErrRowOutOfRange", err)
	}
}

func TestHeapPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "persist.heap")
	pool := storage.NewPool(16)
	h, err := Create(pool, path, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	app := h.NewAppender()
	for i := 0; i < 777; i++ {
		app.Append([]int32{int32(i), 0, 0, 0}, []float64{1})
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	h.File().Disk().Close()

	pool2 := storage.NewPool(16)
	h2, err := Open(pool2, path, testSchema())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if h2.Count() != 777 {
		t.Fatalf("Count after reopen = %d, want 777", h2.Count())
	}
	keys := make([]int32, 4)
	ms := make([]float64, 1)
	if err := h2.FetchRow(776, keys, ms); err != nil {
		t.Fatal(err)
	}
	if keys[0] != 776 {
		t.Fatalf("row 776 keys[0] = %d", keys[0])
	}
}

func TestHeapAppendResumesPartialPage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "resume.heap")
	pool := storage.NewPool(16)
	h, err := Create(pool, path, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	app := h.NewAppender()
	app.Append([]int32{1, 2, 3, 4}, []float64{5})
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	// Append again with a fresh appender: must land on the same page.
	app2 := h.NewAppender()
	app2.Append([]int32{6, 7, 8, 9}, []float64{10})
	if err := app2.Close(); err != nil {
		t.Fatal(err)
	}
	if h.Count() != 2 {
		t.Fatalf("Count = %d, want 2", h.Count())
	}
	if h.DataPages() != 1 {
		t.Fatalf("DataPages = %d, want 1", h.DataPages())
	}
	keys := make([]int32, 4)
	ms := make([]float64, 1)
	if err := h.FetchRow(1, keys, ms); err != nil {
		t.Fatal(err)
	}
	if keys[0] != 6 || ms[0] != 10 {
		t.Fatalf("row 1 = %v %v", keys, ms)
	}
}

func TestHeapSchemaMismatchOnOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mismatch.heap")
	pool := storage.NewPool(16)
	h, err := Create(pool, path, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	pool.FlushAll()
	h.File().Disk().Close()

	pool2 := storage.NewPool(16)
	if _, err := Open(pool2, path, NewSchema([]string{"x"}, nil)); err == nil {
		t.Fatal("Open with wrong schema succeeded")
	}
}

func TestHeapAppendWrongArity(t *testing.T) {
	_, h := newHeap(t, testSchema())
	app := h.NewAppender()
	defer app.Close()
	if err := app.Append([]int32{1}, []float64{2}); err == nil {
		t.Fatal("Append with wrong arity succeeded")
	}
}

func TestHeapScanStopsOnError(t *testing.T) {
	_, h := newHeap(t, testSchema())
	appendN(t, h, 100)
	boom := errors.New("stop")
	var n int
	err := h.Scan(func(row int64, keys []int32, measures []float64) error {
		n++
		if row == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Scan err = %v, want injected", err)
	}
	if n != 11 {
		t.Fatalf("scanned %d rows before stopping, want 11", n)
	}
}

func TestHeapCreateExistingFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dup.heap")
	pool := storage.NewPool(16)
	if _, err := Create(pool, path, testSchema()); err != nil {
		t.Fatal(err)
	}
	pool.FlushAll()
	if _, err := Create(pool, path, testSchema()); err == nil {
		t.Fatal("Create over existing file succeeded")
	}
}

func TestTupleCodecRoundTripQuick(t *testing.T) {
	buf := make([]byte, 4*4+8*2)
	f := func(a, b, c, d int32, m1, m2 float64) bool {
		keys := []int32{a, b, c, d}
		ms := []float64{m1, m2}
		encodeTuple(buf, keys, ms)
		gotK := make([]int32, 4)
		gotM := make([]float64, 2)
		decodeTuple(buf, gotK, gotM)
		for i := range keys {
			if gotK[i] != keys[i] {
				return false
			}
		}
		for i := range ms {
			// NaN is fine to store; compare bit patterns.
			if mathFloat64bits(gotM[i]) != mathFloat64bits(ms[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeapDataPages(t *testing.T) {
	_, h := newHeap(t, testSchema())
	if h.DataPages() != 0 {
		t.Fatalf("empty heap DataPages = %d", h.DataPages())
	}
	tpp := h.TuplesPerPage()
	appendN(t, h, tpp)
	if h.DataPages() != 1 {
		t.Fatalf("full page DataPages = %d, want 1", h.DataPages())
	}
	app := h.NewAppender()
	app.Append([]int32{0, 0, 0, 0}, []float64{0})
	app.Close()
	if h.DataPages() != 2 {
		t.Fatalf("one tuple over DataPages = %d, want 2", h.DataPages())
	}
}

func TestScanRange(t *testing.T) {
	_, h := newHeap(t, testSchema())
	appendN(t, h, 1000)
	tpp := int64(h.TuplesPerPage())

	cases := []struct{ from, to int64 }{
		{0, 1000}, {0, 1}, {999, 1000}, {100, 100}, {tpp - 1, tpp + 1},
		{tpp, 2 * tpp}, {5, 995}, {-10, 20}, {990, 2000},
	}
	for _, c := range cases {
		wantFrom, wantTo := c.from, c.to
		if wantFrom < 0 {
			wantFrom = 0
		}
		if wantTo > 1000 {
			wantTo = 1000
		}
		var got []int64
		err := h.ScanRange(c.from, c.to, func(row int64, keys []int32, ms []float64) error {
			if keys[0] != int32(row) {
				t.Fatalf("row %d keys[0]=%d", row, keys[0])
			}
			got = append(got, row)
			return nil
		})
		if err != nil {
			t.Fatalf("ScanRange(%d,%d): %v", c.from, c.to, err)
		}
		wantN := wantTo - wantFrom
		if wantN < 0 {
			wantN = 0
		}
		if int64(len(got)) != wantN {
			t.Fatalf("ScanRange(%d,%d) yielded %d rows, want %d", c.from, c.to, len(got), wantN)
		}
		for i, row := range got {
			if row != wantFrom+int64(i) {
				t.Fatalf("ScanRange(%d,%d) row %d = %d", c.from, c.to, i, row)
			}
		}
	}
}

func TestScanRangePartitionsCoverScan(t *testing.T) {
	_, h := newHeap(t, testSchema())
	appendN(t, h, 777)
	var full []int64
	h.Scan(func(row int64, keys []int32, ms []float64) error {
		full = append(full, row)
		return nil
	})
	// Three uneven partitions must cover exactly the full scan.
	var parts []int64
	for _, r := range [][2]int64{{0, 300}, {300, 301}, {301, 777}} {
		h.ScanRange(r[0], r[1], func(row int64, keys []int32, ms []float64) error {
			parts = append(parts, row)
			return nil
		})
	}
	if len(parts) != len(full) {
		t.Fatalf("partitions yielded %d rows, full scan %d", len(parts), len(full))
	}
	for i := range full {
		if parts[i] != full[i] {
			t.Fatalf("row %d: partition %d, full %d", i, parts[i], full[i])
		}
	}
}
