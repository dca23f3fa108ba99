package bitmap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"mdxopt/internal/storage"
	"mdxopt/internal/table"
)

// Index is a persistent bitmap join index over one key column of a heap
// file: for every distinct value of the column it stores a bitset of the
// rows holding that value. Bitmaps are loaded through the buffer pool on
// first use (so index-lookup I/O is accounted) and cached in memory until
// DropCache. Index is safe for concurrent use; cached bitmaps are shared
// and must be treated as immutable by callers.
type Index struct {
	pool     *storage.Pool
	file     *storage.File
	colName  string
	nbits    int64
	values   []int32       // sorted distinct values
	valuePos map[int32]int // value -> position in values
	pagesPer uint32        // pages occupied by one bitmap

	mu    sync.Mutex
	cache map[int32]*Bitset
}

// index file layout:
//
//	page 0: [0:4] magic "MDXI", [4:8] version, [8:16] nbits,
//	        [16:20] value count, [20:22] column-name length, name bytes,
//	        then the sorted values (4 bytes each).
//	page 1+: bitmaps, each aligned to a page boundary, in value order.
const (
	idxMagic   = "MDXI"
	idxVersion = 1
)

// maxValues is the per-index cardinality supported by the single-page
// directory.
func maxValues(nameLen int) int { return (storage.PageSize - 22 - nameLen) / 4 }

// wordsPerBitmap returns the number of 64-bit words in each bitmap.
func wordsPerBitmap(nbits int64) int64 { return (nbits + wordBits - 1) / wordBits }

// pagesPerBitmap returns the number of pages each page-aligned bitmap
// occupies.
func pagesPerBitmap(nbits int64) uint32 {
	bytes := wordsPerBitmap(nbits) * 8
	return uint32((bytes + storage.PageSize - 1) / storage.PageSize)
}

// BuildColumnBitmaps scans key column col of h and returns a bitmap per
// distinct value.
func BuildColumnBitmaps(h *table.HeapFile, col int) (map[int32]*Bitset, error) {
	if col < 0 || col >= h.Schema().NumKeys() {
		return nil, fmt.Errorf("bitmap: column %d out of range for %v", col, h.Schema())
	}
	out := make(map[int32]*Bitset)
	n := h.Count()
	var y storage.Yielder
	err := h.Scan(func(row int64, keys []int32, measures []float64) error {
		y.Tick()
		v := keys[col]
		bs, ok := out[v]
		if !ok {
			bs = New(n)
			out[v] = bs
		}
		bs.Set(row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Create writes a new index file at path containing the given bitmaps,
// all of which must have length nbits.
func Create(pool *storage.Pool, path, colName string, nbits int64, bitmaps map[int32]*Bitset) error {
	if len(colName) > 255 {
		return errors.New("bitmap: column name too long")
	}
	if len(bitmaps) > maxValues(len(colName)) {
		return fmt.Errorf("bitmap: cardinality %d exceeds index directory capacity %d",
			len(bitmaps), maxValues(len(colName)))
	}
	values := make([]int32, 0, len(bitmaps))
	for v, bs := range bitmaps {
		if bs.Len() != nbits {
			return fmt.Errorf("bitmap: bitmap for value %d has length %d, want %d", v, bs.Len(), nbits)
		}
		values = append(values, v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })

	file, err := pool.OpenFile(path)
	if err != nil {
		return err
	}
	if file.NumPages() != 0 {
		return fmt.Errorf("bitmap: %s already exists", path)
	}
	meta, err := pool.NewPage(file)
	if err != nil {
		return err
	}
	buf := meta.Data()
	copy(buf[0:4], idxMagic)
	binary.LittleEndian.PutUint32(buf[4:], idxVersion)
	binary.LittleEndian.PutUint64(buf[8:], uint64(nbits))
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(values)))
	binary.LittleEndian.PutUint16(buf[20:], uint16(len(colName)))
	copy(buf[22:], colName)
	off := 22 + len(colName)
	for _, v := range values {
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
		off += 4
	}
	meta.MarkDirty()
	meta.Unpin()

	perPage := storage.PageSize / 8
	var y storage.Yielder
	for _, v := range values {
		remaining := bitmaps[v].Words()
		pages := int(pagesPerBitmap(nbits))
		for p := 0; p < pages; p++ {
			y.Tick()
			page, err := pool.NewPage(file)
			if err != nil {
				return err
			}
			data := page.Data()
			n := perPage
			if n > len(remaining) {
				n = len(remaining)
			}
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint64(data[i*8:], remaining[i])
			}
			remaining = remaining[n:]
			page.MarkDirty()
			page.Unpin()
		}
	}
	return nil
}

// BuildAndCreate builds bitmaps for key column col of h and writes them
// to an index file at path.
func BuildAndCreate(pool *storage.Pool, path string, h *table.HeapFile, col int) error {
	bitmaps, err := BuildColumnBitmaps(h, col)
	if err != nil {
		return err
	}
	return Create(pool, path, h.Schema().KeyNames[col], h.Count(), bitmaps)
}

// Open opens an existing index file. The directory page is validated
// before use, so a corrupt or truncated file is an error, not a panic.
func Open(pool *storage.Pool, path string) (*Index, error) {
	file, err := pool.OpenFile(path)
	if err != nil {
		return nil, err
	}
	if file.NumPages() == 0 {
		return nil, fmt.Errorf("bitmap: %s is empty", path)
	}
	meta, err := pool.Fetch(file, 0)
	if err != nil {
		return nil, err
	}
	defer meta.Unpin()
	buf := meta.Data()
	if string(buf[0:4]) != idxMagic {
		return nil, fmt.Errorf("bitmap: %s: bad magic", path)
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != idxVersion {
		return nil, fmt.Errorf("bitmap: %s: unsupported version %d", path, v)
	}
	nbits := int64(binary.LittleEndian.Uint64(buf[8:]))
	nvals := int64(binary.LittleEndian.Uint32(buf[16:]))
	nameLen := int(binary.LittleEndian.Uint16(buf[20:]))
	pages := int64(file.NumPages())
	if nbits < 0 || nbits > pages*storage.PageSize*8 {
		return nil, fmt.Errorf("bitmap: %s: row count %d out of range for a %d-page file", path, nbits, pages)
	}
	if 22+int64(nameLen)+4*nvals > storage.PageSize {
		return nil, fmt.Errorf("bitmap: %s: directory of %d values and a %d-byte name overflows the page",
			path, nvals, nameLen)
	}
	pagesPer := pagesPerBitmap(nbits)
	if need := 1 + nvals*int64(pagesPer); pages < need {
		return nil, fmt.Errorf("bitmap: %s: %d pages, directory needs %d", path, pages, need)
	}
	colName := string(buf[22 : 22+nameLen])
	off := 22 + nameLen
	values := make([]int32, nvals)
	valuePos := make(map[int32]int, nvals)
	for i := range values {
		values[i] = int32(binary.LittleEndian.Uint32(buf[off:]))
		if i > 0 && values[i] <= values[i-1] {
			return nil, fmt.Errorf("bitmap: %s: values not strictly ascending at %d", path, i)
		}
		valuePos[values[i]] = i
		off += 4
	}
	return &Index{
		pool:     pool,
		file:     file,
		colName:  colName,
		nbits:    nbits,
		values:   values,
		valuePos: valuePos,
		pagesPer: pagesPer,
		cache:    make(map[int32]*Bitset),
	}, nil
}

// ColName returns the indexed column's name.
func (ix *Index) ColName() string { return ix.colName }

// NBits returns the indexed table's row count.
func (ix *Index) NBits() int64 { return ix.nbits }

// Values returns the sorted distinct values present in the index.
func (ix *Index) Values() []int32 { return ix.values }

// PagesPerBitmap returns the on-disk page count of one value's bitmap;
// the cost model charges this for each index lookup.
func (ix *Index) PagesPerBitmap() int64 { return int64(ix.pagesPer) }

// DropCache forgets all in-memory bitmaps, forcing subsequent lookups to
// re-read pages (used together with Pool.FlushAll for cold-cache runs).
func (ix *Index) DropCache() {
	ix.mu.Lock()
	ix.cache = make(map[int32]*Bitset)
	ix.mu.Unlock()
}

// File returns the underlying storage file, the key for per-file I/O
// accounting.
func (ix *Index) File() *storage.File { return ix.file }

// Lookup returns the bitmap for value, or (nil, false, nil) when the
// value does not occur in the indexed column. The returned bitmap is
// shared with the cache and must not be modified.
func (ix *Index) Lookup(value int32) (*Bitset, bool, error) {
	ix.mu.Lock()
	bs, ok := ix.cache[value]
	ix.mu.Unlock()
	if ok {
		return bs, true, nil
	}
	pos, ok := ix.valuePos[value]
	if !ok {
		return nil, false, nil
	}
	bs = New(ix.nbits)
	words := bs.Words()
	perPage := storage.PageSize / 8
	start := 1 + uint32(pos)*ix.pagesPer
	remaining := words
	var page storage.Page // stack-held pin: no allocation per bitmap page
	for p := uint32(0); p < ix.pagesPer; p++ {
		if err := ix.pool.FetchInto(ix.file, start+p, &page); err != nil {
			return nil, false, err
		}
		data := page.Data()
		n := perPage
		if n > len(remaining) {
			n = len(remaining)
		}
		for i := 0; i < n; i++ {
			remaining[i] = binary.LittleEndian.Uint64(data[i*8:])
		}
		remaining = remaining[n:]
		page.Unpin()
	}
	ix.mu.Lock()
	if prior, ok := ix.cache[value]; ok {
		// A concurrent loader won the race; share its copy.
		bs = prior
	} else {
		ix.cache[value] = bs
	}
	ix.mu.Unlock()
	return bs, true, nil
}

// OrOf returns the union of the bitmaps for the given values along with
// the number of bitmap words processed. Values absent from the index are
// skipped (they select no rows).
func (ix *Index) OrOf(values []int32) (*Bitset, int64, error) {
	out := New(ix.nbits)
	var words int64
	for _, v := range values {
		bs, ok, err := ix.Lookup(v)
		if err != nil {
			return nil, words, err
		}
		if !ok {
			continue
		}
		words += out.Or(bs)
	}
	return out, words, nil
}
