package bitmap

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"mdxopt/internal/storage"
)

// fuzzIndexFile writes a valid three-value, 100-row index and returns
// its bytes: a directory page and one page per bitmap.
func fuzzIndexFile(tb testing.TB) []byte {
	tb.Helper()
	bitmaps := map[int32]*Bitset{}
	for v := int32(0); v < 3; v++ {
		bs := New(100)
		for i := int64(v); i < 100; i += 3 {
			bs.Set(i)
		}
		bitmaps[v] = bs
	}
	pool := storage.NewPool(8)
	defer pool.CloseFiles()
	path := filepath.Join(tb.TempDir(), "k.idx")
	if err := Create(pool, path, "k", 100, bitmaps); err != nil {
		tb.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// FuzzIndexOpen feeds arbitrary directory-page bytes after a valid magic
// to Open: it must either reject the file or return an index whose
// every listed value looks up cleanly, never panic or overrun.
func FuzzIndexOpen(f *testing.F) {
	file := fuzzIndexFile(f)
	f.Add(file[4:storage.PageSize])
	longName := append([]byte(nil), file[4:storage.PageSize]...)
	binary.LittleEndian.PutUint16(longName[20-4:], 60000)
	f.Add(longName)
	manyValues := append([]byte(nil), file[4:storage.PageSize]...)
	binary.LittleEndian.PutUint32(manyValues[16-4:], 5000)
	f.Add(manyValues)

	f.Fuzz(func(t *testing.T, meta []byte) {
		raw := append([]byte(nil), file...)
		clear(raw[4:storage.PageSize])
		copy(raw[4:storage.PageSize], meta)
		path := filepath.Join(t.TempDir(), "k.idx")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		pool := storage.NewPool(8)
		defer pool.CloseFiles()
		ix, err := Open(pool, path)
		if err != nil {
			return // rejection is fine
		}
		for _, v := range ix.Values() {
			bs, ok, err := ix.Lookup(v)
			if err != nil || !ok {
				t.Fatalf("Lookup(%d) of a listed value: ok=%v err=%v", v, ok, err)
			}
			if bs.Len() != ix.NBits() {
				t.Fatalf("Lookup(%d) returned %d bits, want %d", v, bs.Len(), ix.NBits())
			}
		}
	})
}
