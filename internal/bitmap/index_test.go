package bitmap

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"mdxopt/internal/storage"
	"mdxopt/internal/table"
)

// buildHeap creates a heap with n rows whose single key column cycles
// through 0..card-1.
func buildHeap(t *testing.T, pool *storage.Pool, n, card int) *table.HeapFile {
	t.Helper()
	h, err := table.Create(pool, filepath.Join(t.TempDir(), "idx.heap"), table.NewSchema([]string{"k"}, []string{"m"}))
	if err != nil {
		t.Fatal(err)
	}
	app := h.NewAppender()
	for i := 0; i < n; i++ {
		if err := app.Append([]int32{int32(i % card)}, []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestBuildColumnBitmaps(t *testing.T) {
	pool := storage.NewPool(32)
	h := buildHeap(t, pool, 1000, 7)
	bms, err := BuildColumnBitmaps(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bms) != 7 {
		t.Fatalf("distinct values = %d, want 7", len(bms))
	}
	var total int64
	for v, bs := range bms {
		c := bs.Count()
		total += c
		// value v appears at rows v, v+7, v+14, ...
		if !bs.Get(int64(v)) {
			t.Fatalf("value %d missing its first row", v)
		}
	}
	if total != 1000 {
		t.Fatalf("bitmap counts sum to %d, want 1000", total)
	}
}

func TestBuildColumnBitmapsBadColumn(t *testing.T) {
	pool := storage.NewPool(32)
	h := buildHeap(t, pool, 10, 3)
	if _, err := BuildColumnBitmaps(h, 5); err == nil {
		t.Fatal("BuildColumnBitmaps with bad column succeeded")
	}
}

func TestIndexSaveOpenLookup(t *testing.T) {
	pool := storage.NewPool(64)
	h := buildHeap(t, pool, 5000, 13)
	path := filepath.Join(t.TempDir(), "k.idx")
	if err := BuildAndCreate(pool, path, h, 0); err != nil {
		t.Fatalf("BuildAndCreate: %v", err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	ix, err := Open(pool, path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if ix.ColName() != "k" {
		t.Fatalf("ColName = %q, want k", ix.ColName())
	}
	if ix.NBits() != 5000 {
		t.Fatalf("NBits = %d, want 5000", ix.NBits())
	}
	if len(ix.Values()) != 13 {
		t.Fatalf("Values = %d, want 13", len(ix.Values()))
	}

	for v := int32(0); v < 13; v++ {
		bs, ok, err := ix.Lookup(v)
		if err != nil || !ok {
			t.Fatalf("Lookup(%d): ok=%v err=%v", v, ok, err)
		}
		want := int64(5000 / 13)
		if int64(v) < 5000%13 {
			want++
		}
		if bs.Count() != want {
			t.Fatalf("value %d count = %d, want %d", v, bs.Count(), want)
		}
		// spot-check positions
		bs.ForEach(func(i int64) {
			if int32(i%13) != v {
				t.Fatalf("value %d bitmap has wrong row %d", v, i)
			}
		})
	}

	if _, ok, err := ix.Lookup(99); err != nil || ok {
		t.Fatalf("Lookup(absent) = ok=%v err=%v, want ok=false", ok, err)
	}
}

func TestIndexOrOf(t *testing.T) {
	pool := storage.NewPool(64)
	h := buildHeap(t, pool, 1300, 13)
	path := filepath.Join(t.TempDir(), "k.idx")
	if err := BuildAndCreate(pool, path, h, 0); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(pool, path)
	if err != nil {
		t.Fatal(err)
	}
	bs, words, err := ix.OrOf([]int32{1, 3, 5, 99}) // 99 is absent
	if err != nil {
		t.Fatal(err)
	}
	if words <= 0 {
		t.Fatal("OrOf reported no word operations")
	}
	if bs.Count() != 300 { // 100 rows per value
		t.Fatalf("OrOf count = %d, want 300", bs.Count())
	}
	bs.ForEach(func(i int64) {
		m := int32(i % 13)
		if m != 1 && m != 3 && m != 5 {
			t.Fatalf("OrOf selected wrong row %d (value %d)", i, m)
		}
	})
}

func TestIndexLookupCachesAndDropCache(t *testing.T) {
	pool := storage.NewPool(64)
	h := buildHeap(t, pool, 2000, 5)
	path := filepath.Join(t.TempDir(), "k.idx")
	if err := BuildAndCreate(pool, path, h, 0); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(pool, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	if _, _, err := ix.Lookup(2); err != nil {
		t.Fatal(err)
	}
	first := pool.Stats().Reads()
	if first == 0 {
		t.Fatal("cold lookup performed no reads")
	}
	if _, _, err := ix.Lookup(2); err != nil {
		t.Fatal(err)
	}
	if pool.Stats().Reads() != first {
		t.Fatal("cached lookup performed physical reads")
	}
	ix.DropCache()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Lookup(2); err != nil {
		t.Fatal(err)
	}
	if pool.Stats().Reads() <= first {
		t.Fatal("lookup after DropCache did not re-read")
	}
}

func TestIndexRejectsWrongFile(t *testing.T) {
	pool := storage.NewPool(16)
	h := buildHeap(t, pool, 10, 2)
	// A heap file is not an index file.
	if _, err := Open(pool, h.Path()); err == nil {
		t.Fatal("Open accepted a heap file as an index")
	}
}

func TestIndexBitmapLengthValidation(t *testing.T) {
	pool := storage.NewPool(16)
	bad := map[int32]*Bitset{1: New(10), 2: New(20)}
	err := Create(pool, filepath.Join(t.TempDir(), "bad.idx"), "c", 10, bad)
	if err == nil {
		t.Fatal("Create accepted mismatched bitmap lengths")
	}
}

func TestIndexMultiPageBitmaps(t *testing.T) {
	// Enough rows that one bitmap spans multiple pages:
	// PageSize/8 words per page * 64 bits = 65536 bits per page.
	const n = 70000
	pool := storage.NewPool(128)
	h, err := table.Create(pool, filepath.Join(t.TempDir(), "big.heap"), table.NewSchema([]string{"k"}, nil))
	if err != nil {
		t.Fatal(err)
	}
	app := h.NewAppender()
	for i := 0; i < n; i++ {
		app.Append([]int32{int32(i % 2)}, nil)
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "big.idx")
	if err := BuildAndCreate(pool, path, h, 0); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(pool, path)
	if err != nil {
		t.Fatal(err)
	}
	if ix.PagesPerBitmap() < 2 {
		t.Fatalf("PagesPerBitmap = %d, want >= 2", ix.PagesPerBitmap())
	}
	for v := int32(0); v < 2; v++ {
		bs, ok, err := ix.Lookup(v)
		if err != nil || !ok {
			t.Fatal(err)
		}
		if bs.Count() != n/2 {
			t.Fatalf("value %d count = %d, want %d", v, bs.Count(), n/2)
		}
		if got := bs.NextSet(0); got != int64(v) {
			t.Fatalf("value %d first row = %d", v, got)
		}
	}
}

// rawIndexPage returns a directory page with the valid magic and
// version and the given header fields and values.
func rawIndexPage(nbits int64, nvals uint32, nameLen uint16, values ...int32) []byte {
	page := make([]byte, storage.PageSize)
	copy(page, idxMagic)
	binary.LittleEndian.PutUint32(page[4:], idxVersion)
	binary.LittleEndian.PutUint64(page[8:], uint64(nbits))
	binary.LittleEndian.PutUint32(page[16:], nvals)
	binary.LittleEndian.PutUint16(page[20:], nameLen)
	off := 22 + int(nameLen)
	for _, v := range values {
		binary.LittleEndian.PutUint32(page[off:], uint32(v))
		off += 4
	}
	return page
}

func TestIndexRejectsCorruptHeader(t *testing.T) {
	cases := []struct {
		name  string
		page  []byte
		pages int // file length in pages, directory included
	}{
		{"name overflows the page", rawIndexPage(100, 0, 60000), 1},
		{"values overflow the page", rawIndexPage(100, 5000, 1), 1},
		{"values not ascending", rawIndexPage(100, 2, 1, 2, 1), 3},
		{"row count exceeds the file", rawIndexPage(1<<40, 1, 1, 0), 2},
		{"truncated bitmaps", rawIndexPage(100, 3, 1, 0, 1, 2), 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			raw := make([]byte, c.pages*storage.PageSize)
			copy(raw, c.page)
			path := filepath.Join(t.TempDir(), "k.idx")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			pool := storage.NewPool(8)
			defer pool.CloseFiles()
			if _, err := Open(pool, path); err == nil {
				t.Fatal("Open accepted a corrupt directory page")
			}
		})
	}
}
