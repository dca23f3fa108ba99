package bitmap

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"mdxopt/internal/storage"
	"mdxopt/internal/table"
)

// JoinIndex is the interface shared by the uncompressed (Index) and
// EWAH-compressed (CIndex) bitmap join index formats. Open returns
// whichever format the file holds.
type JoinIndex interface {
	// ColName returns the indexed column's name.
	ColName() string
	// NBits returns the indexed table's row count.
	NBits() int64
	// Values returns the sorted distinct indexed values.
	Values() []int32
	// PagesPerBitmap returns the (average, for compressed indexes)
	// on-disk page count of one value's bitmap; the cost model charges
	// this per index lookup.
	PagesPerBitmap() int64
	// DropCache forgets in-memory bitmaps (cold-cache runs).
	DropCache()
	// File exposes the underlying storage file.
	File() *storage.File
	// Lookup returns the bitmap for value; the result is shared with the
	// cache and must not be modified.
	Lookup(value int32) (*Bitset, bool, error)
	// OrOf returns the union of the bitmaps for values plus the number
	// of bitmap words processed.
	OrOf(values []int32) (*Bitset, int64, error)
}

var (
	_ JoinIndex = (*Index)(nil)
	_ JoinIndex = (*CIndex)(nil)
)

// CIndex is a bitmap join index whose per-value bitmaps are stored
// EWAH-compressed. Sparse bitmaps (high-cardinality columns) occupy a
// small fraction of the uncompressed format's pages, at the price of a
// decompression pass per cold lookup.
type CIndex struct {
	pool     *storage.Pool
	file     *storage.File
	colName  string
	nbits    int64
	values   []int32
	offsets  []uint64 // payload word offset per value
	counts   []uint64 // compressed word count per value
	valuePos map[int32]int
	dirPages uint32

	mu    sync.Mutex
	cache map[int32]*Bitset
}

// compressed index file layout (magic "MDXK"):
//
//	page 0: [0:4] magic, [4:8] version, [8:16] nbits, [16:20] value
//	        count, [20:22] column-name length, name, [..] dir page count
//	dir pages: packed {value int32, pad, offsetWords u64, countWords u64}
//	payload pages: concatenated compressed streams, 1024 words per page
const (
	cidxMagic    = "MDXK"
	cidxVersion  = 1
	dirEntrySize = 24
)

func dirEntriesPerPage() int { return storage.PageSize / dirEntrySize }

// CreateCompressed writes a compressed index file at path.
func CreateCompressed(pool *storage.Pool, path, colName string, nbits int64, bitmaps map[int32]*Bitset) error {
	if len(colName) > 255 {
		return fmt.Errorf("bitmap: column name too long")
	}
	values := make([]int32, 0, len(bitmaps))
	for v, bs := range bitmaps {
		if bs.Len() != nbits {
			return fmt.Errorf("bitmap: bitmap for value %d has length %d, want %d", v, bs.Len(), nbits)
		}
		values = append(values, v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })

	// Compress everything up front to know offsets.
	streams := make([][]uint64, len(values))
	offsets := make([]uint64, len(values))
	var total uint64
	for i, v := range values {
		streams[i] = CompressWords(bitmaps[v].Words())
		offsets[i] = total
		total += uint64(len(streams[i]))
	}

	file, err := pool.OpenFile(path)
	if err != nil {
		return err
	}
	if file.NumPages() != 0 {
		return fmt.Errorf("bitmap: %s already exists", path)
	}
	dirPages := (len(values) + dirEntriesPerPage() - 1) / dirEntriesPerPage()

	meta, err := pool.NewPage(file)
	if err != nil {
		return err
	}
	buf := meta.Data()
	copy(buf[0:4], cidxMagic)
	binary.LittleEndian.PutUint32(buf[4:], cidxVersion)
	binary.LittleEndian.PutUint64(buf[8:], uint64(nbits))
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(values)))
	binary.LittleEndian.PutUint16(buf[20:], uint16(len(colName)))
	copy(buf[22:], colName)
	binary.LittleEndian.PutUint32(buf[22+len(colName):], uint32(dirPages))
	meta.MarkDirty()
	meta.Unpin()

	// Directory pages.
	for p := 0; p < dirPages; p++ {
		page, err := pool.NewPage(file)
		if err != nil {
			return err
		}
		data := page.Data()
		for slot := 0; slot < dirEntriesPerPage(); slot++ {
			i := p*dirEntriesPerPage() + slot
			if i >= len(values) {
				break
			}
			off := slot * dirEntrySize
			binary.LittleEndian.PutUint32(data[off:], uint32(values[i]))
			binary.LittleEndian.PutUint64(data[off+8:], offsets[i])
			binary.LittleEndian.PutUint64(data[off+16:], uint64(len(streams[i])))
		}
		page.MarkDirty()
		page.Unpin()
	}

	// Payload pages: a contiguous word stream.
	perPage := storage.PageSize / 8
	var page *storage.Page
	slot := perPage // force allocation on first word
	writeWord := func(w uint64) error {
		if slot == perPage {
			if page != nil {
				page.MarkDirty()
				page.Unpin()
			}
			var err error
			page, err = pool.NewPage(file)
			if err != nil {
				return err
			}
			slot = 0
		}
		binary.LittleEndian.PutUint64(page.Data()[slot*8:], w)
		slot++
		return nil
	}
	for _, stream := range streams {
		for _, w := range stream {
			if err := writeWord(w); err != nil {
				return err
			}
		}
	}
	if page != nil {
		page.MarkDirty()
		page.Unpin()
	}
	return nil
}

// BuildAndCreateCompressed builds bitmaps for key column col of h and
// writes a compressed index at path.
func BuildAndCreateCompressed(pool *storage.Pool, path string, h *table.HeapFile, col int) error {
	bitmaps, err := BuildColumnBitmaps(h, col)
	if err != nil {
		return err
	}
	return CreateCompressed(pool, path, h.Schema().KeyNames[col], h.Count(), bitmaps)
}

// openCompressed opens a file already identified as a compressed index.
func openCompressed(pool *storage.Pool, file *storage.File, meta []byte, path string) (*CIndex, error) {
	if v := binary.LittleEndian.Uint32(meta[4:]); v != cidxVersion {
		return nil, fmt.Errorf("bitmap: %s: unsupported compressed version %d", path, v)
	}
	nbits := int64(binary.LittleEndian.Uint64(meta[8:]))
	nvals := int(binary.LittleEndian.Uint32(meta[16:]))
	nameLen := int(binary.LittleEndian.Uint16(meta[20:]))
	colName := string(meta[22 : 22+nameLen])
	dirPages := binary.LittleEndian.Uint32(meta[22+nameLen:])

	ix := &CIndex{
		pool:     pool,
		file:     file,
		colName:  colName,
		nbits:    nbits,
		values:   make([]int32, 0, nvals),
		offsets:  make([]uint64, 0, nvals),
		counts:   make([]uint64, 0, nvals),
		valuePos: make(map[int32]int, nvals),
		dirPages: dirPages,
		cache:    make(map[int32]*Bitset),
	}
	for p := uint32(0); p < dirPages; p++ {
		page, err := pool.Fetch(file, 1+p)
		if err != nil {
			return nil, err
		}
		data := page.Data()
		for slot := 0; slot < dirEntriesPerPage(); slot++ {
			i := int(p)*dirEntriesPerPage() + slot
			if i >= nvals {
				break
			}
			off := slot * dirEntrySize
			v := int32(binary.LittleEndian.Uint32(data[off:]))
			ix.values = append(ix.values, v)
			ix.offsets = append(ix.offsets, binary.LittleEndian.Uint64(data[off+8:]))
			ix.counts = append(ix.counts, binary.LittleEndian.Uint64(data[off+16:]))
			ix.valuePos[v] = i
		}
		page.Unpin()
	}
	return ix, nil
}

// ColName returns the indexed column's name.
func (ix *CIndex) ColName() string { return ix.colName }

// NBits returns the indexed table's row count.
func (ix *CIndex) NBits() int64 { return ix.nbits }

// Values returns the sorted distinct values present in the index.
func (ix *CIndex) Values() []int32 { return ix.values }

// File exposes the underlying storage file.
func (ix *CIndex) File() *storage.File { return ix.file }

// DropCache forgets all in-memory bitmaps.
func (ix *CIndex) DropCache() {
	ix.mu.Lock()
	ix.cache = make(map[int32]*Bitset)
	ix.mu.Unlock()
}

// PagesPerBitmap returns the average on-disk page count of one value's
// compressed bitmap (at least 1).
func (ix *CIndex) PagesPerBitmap() int64 {
	if len(ix.values) == 0 {
		return 1
	}
	var words uint64
	for _, c := range ix.counts {
		words += c
	}
	avgBytes := words * 8 / uint64(len(ix.values))
	pages := int64((avgBytes + storage.PageSize - 1) / storage.PageSize)
	if pages < 1 {
		pages = 1
	}
	return pages
}

// Lookup returns the bitmap for value, decompressing it from the payload
// on a cache miss.
func (ix *CIndex) Lookup(value int32) (*Bitset, bool, error) {
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
	stream := make([]uint64, ix.counts[pos])
	perPage := uint64(storage.PageSize / 8)
	payloadStart := 1 + ix.dirPages
	var page storage.Page // stack-held pin: one fetch per word must not allocate
	for i := range stream {
		word := ix.offsets[pos] + uint64(i)
		pageNo := payloadStart + uint32(word/perPage)
		slot := word % perPage
		// Sequential words share a page; the pool caches it between
		// fetches, so this loop costs one physical read per page.
		if err := ix.pool.FetchInto(ix.file, pageNo, &page); err != nil {
			return nil, false, err
		}
		stream[i] = binary.LittleEndian.Uint64(page.Data()[slot*8:])
		page.Unpin()
	}
	bs, err := Decompress(stream, ix.nbits)
	if err != nil {
		return nil, false, fmt.Errorf("bitmap: %s value %d: %w", ix.file.Path(), value, err)
	}
	ix.mu.Lock()
	if prior, ok := ix.cache[value]; ok {
		bs = prior
	} else {
		ix.cache[value] = bs
	}
	ix.mu.Unlock()
	return bs, true, nil
}

// OrOf returns the union of the bitmaps for the given values along with
// the number of bitmap words processed.
func (ix *CIndex) OrOf(values []int32) (*Bitset, int64, error) {
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
