package table

import (
	"errors"
	"fmt"
	"math"

	"mdxopt/internal/storage"
)

func mathFloat64bits(f float64) uint64     { return math.Float64bits(f) }
func mathFloat64frombits(b uint64) float64 { return math.Float64frombits(b) }

// HeapFile is an append-only table of fixed-width tuples. Page 0 holds
// metadata; data pages follow. Rows are densely numbered from 0 in append
// order, so row r lives at page 1+r/tpp, slot r%tpp.
type HeapFile struct {
	pool   *storage.Pool
	file   *storage.File
	schema Schema
	tpp    int // tuples per data page
	size   int // tuple size in bytes
	count  int64
}

// ErrRowOutOfRange is returned by FetchRow for rows >= Count().
var ErrRowOutOfRange = errors.New("table: row out of range")

// Create makes a new, empty heap file at path registered with pool.
func Create(pool *storage.Pool, path string, schema Schema) (*HeapFile, error) {
	if schema.TupleSize() == 0 || schema.TupleSize() > storage.PageSize {
		return nil, fmt.Errorf("table: unusable tuple size %d", schema.TupleSize())
	}
	file, err := pool.OpenFile(path)
	if err != nil {
		return nil, err
	}
	if file.NumPages() != 0 {
		return nil, fmt.Errorf("table: %s already exists", path)
	}
	h := &HeapFile{
		pool:   pool,
		file:   file,
		schema: schema,
		tpp:    tuplesPerPage(schema.TupleSize()),
		size:   schema.TupleSize(),
	}
	meta, err := pool.NewPage(file)
	if err != nil {
		return nil, err
	}
	writeMeta(meta.Data(), schema, 0)
	meta.MarkDirty()
	meta.Unpin()
	return h, nil
}

// Open opens an existing heap file and validates it against schema.
func Open(pool *storage.Pool, path string, schema Schema) (*HeapFile, error) {
	file, err := pool.OpenFile(path)
	if err != nil {
		return nil, err
	}
	if file.NumPages() == 0 {
		return nil, fmt.Errorf("table: %s is empty (not created)", path)
	}
	meta, err := pool.Fetch(file, 0)
	if err != nil {
		return nil, err
	}
	tupleSize, count, nKeys, nMeasures, err := readMeta(meta.Data())
	meta.Unpin()
	if err != nil {
		return nil, fmt.Errorf("table: %s: %w", path, err)
	}
	if tupleSize != schema.TupleSize() || nKeys != schema.NumKeys() || nMeasures != schema.NumMeasures() {
		return nil, fmt.Errorf("table: %s: stored layout (%d keys, %d measures, %dB) does not match schema %v",
			path, nKeys, nMeasures, tupleSize, schema)
	}
	return &HeapFile{
		pool:   pool,
		file:   file,
		schema: schema,
		tpp:    tuplesPerPage(tupleSize),
		size:   tupleSize,
		count:  count,
	}, nil
}

// Freeze returns a read-only clone of the heap bounded at the current
// row count. The clone shares the underlying file and buffer pool but
// its count never changes, so it never observes rows appended to the
// original afterwards: snapshot readers scan through a frozen clone
// while a live appender extends the heap, and the two touch disjoint
// bytes (appends write only slots at or past the frozen bound, and the
// metadata page is read only at Open). Appending through a frozen clone
// is a caller error.
func (h *HeapFile) Freeze() *HeapFile {
	c := *h
	return &c
}

// Schema returns the table's schema.
func (h *HeapFile) Schema() Schema { return h.schema }

// Count returns the number of rows.
func (h *HeapFile) Count() int64 { return h.count }

// DataPages returns the number of data pages the rows occupy. This is the
// quantity the cost model charges for a full scan.
func (h *HeapFile) DataPages() int64 {
	if h.count == 0 {
		return 0
	}
	return (h.count + int64(h.tpp) - 1) / int64(h.tpp)
}

// TuplesPerPage returns the number of tuples per data page.
func (h *HeapFile) TuplesPerPage() int { return h.tpp }

// File exposes the underlying storage file (for tests).
func (h *HeapFile) File() *storage.File { return h.file }

// Path returns the file path backing the heap.
func (h *HeapFile) Path() string { return h.file.Path() }

// Close persists the row count to the metadata page. The heap remains
// usable; Close may be called repeatedly.
func (h *HeapFile) Close() error {
	meta, err := h.pool.Fetch(h.file, 0)
	if err != nil {
		return err
	}
	writeMeta(meta.Data(), h.schema, h.count)
	meta.MarkDirty()
	meta.Unpin()
	return nil
}

// Appender batches appends into the current tail page. Callers must call
// Close when done; the heap's metadata is updated then.
type Appender struct {
	h    *HeapFile
	page *storage.Page
	slot int
	err  error
}

// NewAppender returns an appender positioned at the end of the heap.
// Appending to a heap with a partially filled tail page continues on that
// page.
func (h *HeapFile) NewAppender() *Appender {
	return &Appender{h: h, slot: int(h.count % int64(h.tpp))}
}

// Append adds one tuple. keys and measures must match the schema.
func (a *Appender) Append(keys []int32, measures []float64) error {
	if a.err != nil {
		return a.err
	}
	h := a.h
	if len(keys) != h.schema.NumKeys() || len(measures) != h.schema.NumMeasures() {
		return errSchemaMismatch
	}
	if a.page == nil {
		if err := a.pin(); err != nil {
			a.err = err
			return err
		}
	}
	encodeTuple(a.page.Data()[a.slot*h.size:], keys, measures)
	a.page.MarkDirty()
	a.slot++
	h.count++
	if a.slot == h.tpp {
		a.page.Unpin()
		a.page = nil
		a.slot = 0
	}
	return nil
}

// pin acquires the tail page, allocating it if the heap ends on a page
// boundary.
func (a *Appender) pin() error {
	h := a.h
	lastDataPage := uint32(h.count / int64(h.tpp)) // 0-based data page index
	needed := lastDataPage + 2                     // +1 metadata page, +1 one-past
	if h.file.NumPages() < needed {
		page, err := h.pool.NewPage(h.file)
		if err != nil {
			return err
		}
		a.page = page
		return nil
	}
	page, err := h.pool.Fetch(h.file, lastDataPage+1)
	if err != nil {
		return err
	}
	a.page = page
	return nil
}

// Close unpins the tail page and persists the row count.
func (a *Appender) Close() error {
	if a.page != nil {
		a.page.Unpin()
		a.page = nil
	}
	if a.err != nil {
		return a.err
	}
	return a.h.Close()
}

// Scan iterates over all rows in order, invoking fn with the row number
// and decoded columns. The key and measure slices are reused between
// calls; fn must copy anything it retains. A non-nil error from fn stops
// the scan and is returned.
func (h *HeapFile) Scan(fn func(row int64, keys []int32, measures []float64) error) error {
	return h.ScanRange(0, h.count, fn)
}

// ScanRange iterates over rows in [from, to), clamped to the table, in
// order. Distinct ranges may be scanned concurrently: the underlying
// buffer pool is safe for concurrent use and each call keeps its own
// decode buffers.
func (h *HeapFile) ScanRange(from, to int64, fn func(row int64, keys []int32, measures []float64) error) error {
	return h.ScanRangeBatches(from, to, func(b *Batch) error {
		for i := 0; i < b.N; i++ {
			keys, measures := b.Row(i)
			if err := fn(b.Start+int64(i), keys, measures); err != nil {
				return err
			}
		}
		return nil
	})
}

// Batch is one data page's worth of decoded tuples, produced by
// ScanRangeBatches. Keys and Measures are flat column-major-per-row
// arrays: row i's keys occupy Keys[i*nk:(i+1)*nk] and its measures
// Measures[i*nm:(i+1)*nm]. The backing arrays are reused from page to
// page; callers must copy anything they retain across calls.
type Batch struct {
	Start    int64     // row number of the batch's first tuple
	N        int       // number of tuples in the batch
	Keys     []int32   // N*nk decoded key columns
	Measures []float64 // N*nm decoded measure columns
	nk, nm   int
}

// Row returns the key and measure slices of tuple i of the batch.
func (b *Batch) Row(i int) ([]int32, []float64) {
	return b.Keys[i*b.nk : (i+1)*b.nk], b.Measures[i*b.nm : (i+1)*b.nm]
}

// NumKeys returns the number of key columns per tuple — the stride of
// the flat Keys array. Vectorized consumers index columns directly
// instead of slicing per row.
func (b *Batch) NumKeys() int { return b.nk }

// NumMeasures returns the number of measure columns per tuple — the
// stride of the flat Measures array.
func (b *Batch) NumMeasures() int { return b.nm }

// Clone returns a deep copy of the batch. ScanRangeBatches reuses the
// backing arrays from page to page; harnesses that capture batches
// across calls (the fold-kernel benchmark) clone them first.
func (b *Batch) Clone() *Batch {
	return &Batch{
		Start:    b.Start,
		N:        b.N,
		Keys:     append([]int32(nil), b.Keys[:b.N*b.nk]...),
		Measures: append([]float64(nil), b.Measures[:b.N*b.nm]...),
		nk:       b.nk,
		nm:       b.nm,
	}
}

// ScanRangeBatches iterates over rows in [from, to), clamped to the
// table, handing fn one whole page of decoded tuples at a time. The page
// is decoded into the batch's reusable buffers and unpinned before fn
// runs, so fn never executes with a pinned page and batches never alias
// pool frames. A non-nil error from fn stops the scan and is returned.
func (h *HeapFile) ScanRangeBatches(from, to int64, fn func(b *Batch) error) error {
	if from < 0 {
		from = 0
	}
	if to > h.count {
		to = h.count
	}
	if from >= to {
		return nil
	}
	nk, nm := h.schema.NumKeys(), h.schema.NumMeasures()
	b := &Batch{
		Keys:     make([]int32, h.tpp*nk),
		Measures: make([]float64, h.tpp*nm),
		nk:       nk,
		nm:       nm,
	}
	row := from
	var page storage.Page // stack-held pin: the scan loop must not allocate
	for row < to {
		pageNo := uint32(row/int64(h.tpp)) + 1
		if err := h.pool.FetchInto(h.file, pageNo, &page); err != nil {
			return err
		}
		slot := int(row % int64(h.tpp))
		end := h.tpp
		if pageEnd := (row/int64(h.tpp) + 1) * int64(h.tpp); pageEnd > to {
			end = slot + int(to-row)
		}
		n := end - slot
		data := page.Data()
		for i := 0; i < n; i++ {
			decodeTuple(data[(slot+i)*h.size:], b.Keys[i*nk:(i+1)*nk], b.Measures[i*nm:(i+1)*nm])
		}
		page.Unpin()
		b.Start = row
		b.N = n
		if err := fn(b); err != nil {
			return err
		}
		row += int64(n)
	}
	return nil
}

// MakeBatch returns a Batch sized for one data page of the heap, for
// use with FetchPage. Callers reuse it across pages so the steady-state
// fetch loop performs no allocation.
func (h *HeapFile) MakeBatch() *Batch {
	nk, nm := h.schema.NumKeys(), h.schema.NumMeasures()
	return &Batch{
		Keys:     make([]int32, h.tpp*nk),
		Measures: make([]float64, h.tpp*nm),
		nk:       nk,
		nm:       nm,
	}
}

// FetchPage decodes the selected slots of one data page into b, pinning
// the page exactly once. page is the 0-based data page index and sel
// holds ascending page-relative slot numbers, so tuple i of the batch
// is row b.Start+int64(sel[i]). b must come from MakeBatch (or be at
// least as large); it is filled densely (b.N = len(sel)) and the page
// is unpinned before returning, so batches never alias pool frames.
func (h *HeapFile) FetchPage(b *Batch, page int64, sel []int32) error {
	first := page * int64(h.tpp)
	if page < 0 || first >= h.count {
		return fmt.Errorf("%w: page %d of %d", ErrRowOutOfRange, page, h.DataPages())
	}
	b.Start = first
	b.N = len(sel)
	if len(sel) == 0 {
		return nil
	}
	if last := first + int64(sel[len(sel)-1]); last >= h.count {
		return fmt.Errorf("%w: %d of %d", ErrRowOutOfRange, last, h.count)
	}
	var p storage.Page // stack-held pin: the probe loop must not allocate
	if err := h.pool.FetchInto(h.file, uint32(page)+1, &p); err != nil {
		return err
	}
	data := p.Data()
	nk, nm := b.nk, b.nm
	for i, s := range sel {
		decodeTuple(data[int(s)*h.size:], b.Keys[i*nk:(i+1)*nk], b.Measures[i*nm:(i+1)*nm])
	}
	p.Unpin()
	return nil
}

// FetchBatches reads the rows produced by next (ascending, -1 when
// exhausted) a page at a time: each page's rows are
// collected into a selection vector of page slots, decoded with one pin
// (FetchPage), and handed to fn as a batch — tuple i of the batch is
// row b.Start+int64(sel[i]). The batch and selection vector are reused
// between calls; fn must copy anything it retains.
func (h *HeapFile) FetchBatches(next func() int64, fn func(b *Batch, sel []int32) error) error {
	b := h.MakeBatch()
	sel := make([]int32, 0, h.tpp)
	page := int64(-1)
	flush := func() error {
		if page < 0 || len(sel) == 0 {
			return nil
		}
		if err := h.FetchPage(b, page, sel); err != nil {
			return err
		}
		return fn(b, sel)
	}
	for {
		row := next()
		if row < 0 {
			return flush()
		}
		if row >= h.count {
			return fmt.Errorf("%w: %d of %d", ErrRowOutOfRange, row, h.count)
		}
		if pg := row / int64(h.tpp); pg != page {
			if err := flush(); err != nil {
				return err
			}
			page = pg
			sel = sel[:0]
		}
		sel = append(sel, int32(row%int64(h.tpp)))
	}
}

// FetchRow reads a single row by number. keys and measures must have the
// schema's lengths. Random access goes through the pool, so consecutive
// fetches on the same page cost one physical read.
func (h *HeapFile) FetchRow(row int64, keys []int32, measures []float64) error {
	if row < 0 || row >= h.count {
		return fmt.Errorf("%w: %d of %d", ErrRowOutOfRange, row, h.count)
	}
	pageNo := uint32(row/int64(h.tpp)) + 1
	slot := int(row % int64(h.tpp))
	var page storage.Page
	if err := h.pool.FetchInto(h.file, pageNo, &page); err != nil {
		return err
	}
	decodeTuple(page.Data()[slot*h.size:], keys, measures)
	page.Unpin()
	return nil
}
