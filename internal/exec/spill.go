package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"

	"mdxopt/internal/mem"
	"mdxopt/internal/storage"
)

// Spillable aggregation state.
//
// Every query pipeline aggregates into a fold table (foldtable.go) whose
// size is proportional to the number of result groups — the one piece
// of operator state that is unbounded by the plan (lookups are bounded
// by dimension cardinality, bitmaps by view rows). The table lives
// under a mem.Broker reservation; when a refusable grant is denied, it
// degrades with a grace-hash-style partitioned spill:
//
//  1. the resident groups are flushed as partial-accumulator records
//     to fanout partition files (pages of a temp heap file managed by
//     storage.DiskManager), routed by the key's hash, and the table's
//     memory is released;
//  2. from then on every qualifying tuple appends one delta record to
//     its partition, buffered one page per partition (write-through —
//     no per-group state is kept in memory);
//  3. at finalization each partition is merged independently: its
//     records are replayed in write order into a transient table that
//     grows as far as the broker will grant, and keys that do not fit
//     are diverted to an overflow partition processed in a further
//     sub-pass, so even a single partition larger than the budget
//     completes.
//
// Because a key's records land in one partition in scan order (the
// flushed partial first), the merged accumulator performs additions in
// exactly the order the in-memory path would have — results are
// byte-identical to an unbudgeted run.

const (
	// defaultSpillFanout is the partition count of a spill. Merge
	// memory is roughly the final group count divided by the fanout.
	defaultSpillFanout = 16
	// spillRecTail is the non-key portion of a spill record: the two
	// accumulator components and the set flag.
	spillRecTail = 17
)

// spillSeq disambiguates temp spill files within one process.
var spillSeq atomic.Uint64

// spillFiles is the on-disk half of a spilled fold table: one temp page
// file holding the pages of fanout partitions plus overflow partitions
// created during merge. Record format: the key's 8 or 16 bytes (low
// word, then high word, little-endian), accumulator a and b
// (little-endian float64 bits), set flag. Pages carry a record count in
// their first two bytes.
type spillFiles struct {
	dm         *storage.DiskManager
	path       string
	keyLen     int
	recSize    int
	perPage    int
	res        *mem.Reservation
	parts      []spillPart
	bufHeld    int64 // total bytes this spill holds on res
	mergeFloor int64 // portion of bufHeld set aside for the merge phase
}

type spillPart struct {
	buf   []byte
	n     int // records buffered in buf
	pages []uint32
}

// spillFloorBytes is the single-partition required-state floor of a
// spill: one partition page buffer plus the merge floor (read scratch
// page, overflow writer page, and the merge table's starting slab of
// floorEntry bytes). Tables pre-reserve it at construction, while the
// budget still has room, so a spill forced under saturation can always
// fall back to it without overdrafting.
func spillFloorBytes(floorEntry int64) int64 {
	return 3*storage.PageSize + floorEntry
}

func newSpillFiles(dir string, keyLen, fanout int, floorEntry int64, res *mem.Reservation, preHeld int64) (*spillFiles, error) {
	path := filepath.Join(dir, fmt.Sprintf("mdx-spill-%d-%d.tmp", os.Getpid(), spillSeq.Add(1)))
	dm, err := storage.OpenDisk(path)
	if err != nil {
		return nil, err
	}
	// The grant covers one page buffer per partition plus a merge
	// floor: the read scratch page, the overflow writer's page, and the
	// merge table's starting slab (floorEntry, high words included).
	// The caller transfers preHeld bytes it already has on res
	// (its pre-reserved spill floor, spillFloorBytes(floorEntry)), so
	// only the excess is requested here. The fanout adapts to what the
	// broker will grant — halving until the buffers fit the remaining
	// budget — flooring at one partition, which the pre-reserved floor
	// covers in full; MustGrow overdraft remains only for tables whose
	// floor reservation was denied at construction.
	mergeFloor := 2*storage.PageSize + floorEntry
	granted := false
	for fanout > 1 {
		if res.TryGrow(int64(fanout)*storage.PageSize + mergeFloor - preHeld) {
			granted = true
			break
		}
		fanout /= 2
	}
	if !granted {
		fanout = 1
		res.MustGrow(storage.PageSize + mergeFloor - preHeld)
	}
	recSize := keyLen + spillRecTail
	sp := &spillFiles{
		dm:         dm,
		path:       path,
		keyLen:     keyLen,
		recSize:    recSize,
		perPage:    (storage.PageSize - 2) / recSize,
		res:        res,
		parts:      make([]spillPart, fanout),
		mergeFloor: mergeFloor,
	}
	sp.bufHeld = int64(fanout)*storage.PageSize + mergeFloor
	for i := range sp.parts {
		sp.parts[i].buf = make([]byte, storage.PageSize)
	}
	return sp, nil
}

func putRec(buf []byte, off, keyLen int, key []byte, ac accum) {
	copy(buf[off:], key[:keyLen])
	putFloat(buf[off+keyLen:], ac.a)
	putFloat(buf[off+keyLen+8:], ac.b)
	if ac.set {
		buf[off+keyLen+16] = 1
	} else {
		buf[off+keyLen+16] = 0
	}
}

func getRec(buf []byte, off, keyLen int) (key []byte, ac accum) {
	key = buf[off : off+keyLen]
	ac.a = getFloat(buf[off+keyLen:])
	ac.b = getFloat(buf[off+keyLen+8:])
	ac.set = buf[off+keyLen+16] == 1
	return key, ac
}

func (sp *spillFiles) write(pi int, key []byte, ac accum) error {
	p := &sp.parts[pi]
	if p.n == sp.perPage {
		if err := sp.flushPart(p); err != nil {
			return err
		}
	}
	putRec(p.buf, 2+p.n*sp.recSize, sp.keyLen, key, ac)
	p.n++
	return nil
}

func (sp *spillFiles) flushPart(p *spillPart) error {
	if p.n == 0 {
		return nil
	}
	p.buf[0] = byte(p.n)
	p.buf[1] = byte(p.n >> 8)
	pg, err := sp.dm.Allocate()
	if err != nil {
		return err
	}
	if err := sp.dm.WritePage(pg, p.buf); err != nil {
		return err
	}
	p.pages = append(p.pages, pg)
	p.n = 0
	return nil
}

// flushBufs pushes every partially filled partition buffer to disk so
// readers see all records.
func (sp *spillFiles) flushBufs() error {
	for i := range sp.parts {
		if err := sp.flushPart(&sp.parts[i]); err != nil {
			return err
		}
	}
	return nil
}

// releaseBufs returns the partition buffers' reservation once write
// mode is over, retaining the merge floor for the merge phase.
func (sp *spillFiles) releaseBufs() {
	for i := range sp.parts {
		sp.parts[i].buf = nil
	}
	sp.res.Shrink(sp.bufHeld - sp.mergeFloor)
	sp.bufHeld = sp.mergeFloor
}

// readPart replays the given pages of a partition in write order. The
// page-sized scratch is covered by the spill grant's merge floor.
func (sp *spillFiles) readPart(pi int, pages []uint32, fn func(key []byte, ac accum) error) error {
	buf := make([]byte, storage.PageSize)
	for _, pg := range pages {
		if err := sp.dm.ReadPage(pg, buf); err != nil {
			return err
		}
		n := int(buf[0]) | int(buf[1])<<8
		for r := 0; r < n; r++ {
			key, ac := getRec(buf, 2+r*sp.recSize, sp.keyLen)
			if err := fn(key, ac); err != nil {
				return err
			}
		}
	}
	return nil
}

// newWriter starts an overflow partition for a merge sub-pass. Its page
// buffer is covered by the spill grant's merge floor.
func (sp *spillFiles) newWriter() *spillWriter {
	return &spillWriter{sp: sp, part: spillPart{buf: make([]byte, storage.PageSize)}}
}

// spillWriter accumulates overflow records into fresh pages of the same
// temp file.
type spillWriter struct {
	sp   *spillFiles
	part spillPart
}

func (w *spillWriter) write(key []byte, ac accum) error {
	if w.part.n == w.sp.perPage {
		if err := w.sp.flushPart(&w.part); err != nil {
			return err
		}
	}
	putRec(w.part.buf, 2+w.part.n*w.sp.recSize, w.sp.keyLen, key, ac)
	w.part.n++
	return nil
}

// finish flushes the writer and returns its page list.
func (w *spillWriter) finish() ([]uint32, error) {
	if err := w.sp.flushPart(&w.part); err != nil {
		return nil, err
	}
	w.part.buf = nil
	return w.part.pages, nil
}

// destroy closes and removes the temp file, returning everything the
// spill still holds on the reservation.
func (sp *spillFiles) destroy() {
	for i := range sp.parts {
		sp.parts[i].buf = nil
	}
	sp.res.Shrink(sp.bufHeld)
	sp.bufHeld = 0
	sp.dm.Close()
	os.Remove(sp.path)
}

func putFloat(b []byte, f float64) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(f))
}

func getFloat(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
