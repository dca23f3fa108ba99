package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"

	"mdxopt/internal/mem"
	"mdxopt/internal/query"
	"mdxopt/internal/star"
	"mdxopt/internal/storage"
)

// Spillable aggregation state.
//
// Every query pipeline aggregates into a hash table whose size is
// proportional to the number of result groups — the one piece of
// operator state that is unbounded by the plan (lookups are bounded by
// dimension cardinality, bitmaps by view rows). aggTable keeps that
// table under a mem.Broker reservation; when a refusable grant is
// denied, it degrades with a grace-hash-style partitioned spill:
//
//  1. the in-memory entries are flushed as partial-accumulator records
//     to fanout partition files (pages of a temp heap file managed by
//     storage.DiskManager), hashed on the group key, and the table's
//     memory is released;
//  2. from then on every qualifying tuple appends one delta record to
//     its partition, buffered one page per partition (write-through —
//     no per-group state is kept in memory);
//  3. at finalization each partition is merged independently: its
//     records are replayed in write order into a fresh table sized to
//     whatever the broker will grant, and keys that do not fit are
//     diverted to an overflow partition processed in a further
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
	// aggEntryOverhead estimates the per-entry bookkeeping of the
	// aggregation map (string header, map bucket share, accumulator) on
	// top of the key bytes. Reservations are charged this estimate per
	// group.
	aggEntryOverhead = 96
	// spillRecTail is the non-key portion of a spill record: the two
	// accumulator components and the set flag.
	spillRecTail = 17
	// aggFloorEntries is how many keys a merge sub-pass admits without a
	// grant: a fold table's initial slots up to its growth threshold, so
	// both table kinds progress by the same floor. Its entries' bytes
	// are the byte-key spill's merge floor.
	aggFloorEntries = foldInitialSlots * 3 / 4
)

// spillSeq disambiguates temp spill files within one process.
var spillSeq atomic.Uint64

// aggPair is one finalized group of a byte-key table: the raw key and
// its accumulator.
type aggPair struct {
	key string
	ac  accum
}

// deltaOf converts one tuple's (sum, count, min, max) vector into a
// single-tuple accumulator for the given aggregate.
func deltaOf(agg query.Agg, vals [4]float64) accum {
	switch agg {
	case query.Count:
		return accum{a: vals[star.AggCount], set: true}
	case query.Min:
		return accum{a: vals[star.AggMin], set: true}
	case query.Max:
		return accum{a: vals[star.AggMax], set: true}
	case query.Avg:
		return accum{a: vals[star.AggSum], b: vals[star.AggCount], set: true}
	default: // query.Sum
		return accum{a: vals[star.AggSum], set: true}
	}
}

// mergeAccum folds delta d into cur under the given aggregate. Folding
// a fresh delta into a zero accumulator yields the delta itself, so one
// code path serves both the scan and the spill-merge sides.
func mergeAccum(agg query.Agg, cur *accum, d accum) {
	if !d.set {
		return
	}
	if !cur.set {
		*cur = d
		return
	}
	switch agg {
	case query.Sum, query.Count:
		cur.a += d.a
	case query.Min:
		if d.a < cur.a {
			cur.a = d.a
		}
	case query.Max:
		if d.a > cur.a {
			cur.a = d.a
		}
	case query.Avg:
		cur.a += d.a
		cur.b += d.b
	}
}

// aggTable is a pipeline's aggregation state: an in-memory map under a
// broker reservation until the budget runs out, partitioned spill files
// afterwards.
type aggTable struct {
	agg    query.Agg
	keyLen int
	res    *mem.Reservation // nil: untracked (no broker)
	dir    string
	fanout int

	m        map[string]*accum
	mapBytes int64
	// floorHeld is the single-partition spill floor pre-reserved at
	// construction (0 when the broker denied it). Reserving the floor
	// while the budget still has room means a spill that starts under
	// saturation spends this instead of overdrafting with MustGrow —
	// concurrent pipelines racing for a freed slab can no longer push
	// the broker's peak past the budget.
	floorHeld int64

	sp *spillFiles // nil until the first denied grant

	spillBytes int64 // record bytes written to spill partitions
	spillParts int64 // partitions created by this table's spills
}

func newAggTable(env *Env, agg query.Agg, keyLen int, tag string) *aggTable {
	t := &aggTable{
		agg:    agg,
		keyLen: keyLen,
		res:    env.Mem.Reserve(tag),
		dir:    env.spillDir(),
		fanout: env.spillFanout(),
		m:      make(map[string]*accum),
	}
	if fl := spillFloorBytes(t.floorBytes()); t.res.TryGrow(fl) {
		t.floorHeld = fl
	}
	return t
}

func (t *aggTable) entryBytes() int64 { return int64(t.keyLen) + aggEntryOverhead }

// floorBytes is the merge floor's table state: aggFloorEntries entries.
func (t *aggTable) floorBytes() int64 { return aggFloorEntries * t.entryBytes() }

// add folds one delta for key into the table, spilling when the broker
// refuses to grow the reservation. The matched-key path is a single
// map operation: the m[string(key)] read compiles to the
// allocation-free map fast path and the delta is merged in place
// through the stored pointer, instead of the former read-modify-
// write-back pair whose write converted the key to a fresh string on
// every matched tuple.
func (t *aggTable) add(key []byte, d accum) error {
	if t.sp != nil {
		return t.writeRec(key, d)
	}
	if cur, ok := t.m[string(key)]; ok {
		mergeAccum(t.agg, cur, d)
		return nil
	}
	eb := t.entryBytes()
	if t.res.TryGrow(eb) {
		ac := d
		t.m[string(key)] = &ac
		t.mapBytes += eb
		return nil
	}
	if err := t.startSpill(); err != nil {
		return err
	}
	return t.writeRec(key, d)
}

// startSpill switches the table to write-through mode: current entries
// are flushed as partial-accumulator records and the map's memory is
// returned to the broker.
func (t *aggTable) startSpill() error {
	// Trade the map's reservation for the page buffers: the map dies at
	// the end of this function, so its bytes are released up front and
	// the buffer grant draws on the space it vacates instead of
	// overdrafting past the ceiling the denial just established.
	t.res.Shrink(t.mapBytes)
	t.mapBytes = 0
	sp, err := newSpillFiles(t.dir, t.keyLen, t.fanout, t.floorBytes(), t.res, t.floorHeld)
	if err != nil {
		return err
	}
	t.floorHeld = 0 // ownership moves to sp.bufHeld
	t.sp = sp
	t.spillParts += int64(len(sp.parts))
	for k, ac := range t.m {
		if err := t.writeRec([]byte(k), *ac); err != nil {
			return err
		}
	}
	t.m = nil
	return nil
}

func (t *aggTable) writeRec(key []byte, ac accum) error {
	if err := t.sp.write(t.sp.partition(key), key, ac); err != nil {
		return err
	}
	t.spillBytes += int64(t.sp.recSize)
	return nil
}

// mergeFrom folds another table's state into t (parallel scan workers
// merging into the main pipeline). Spilled source records are replayed
// in write order; t itself may spill while absorbing them.
func (t *aggTable) mergeFrom(o *aggTable) error {
	if o.sp == nil {
		for k, ac := range o.m {
			if err := t.add([]byte(k), *ac); err != nil {
				return err
			}
		}
		return nil
	}
	if err := o.sp.flushBufs(); err != nil {
		return err
	}
	for pi := range o.sp.parts {
		err := o.sp.readPart(pi, o.sp.parts[pi].pages, func(key []byte, ac accum) error {
			return t.add(key, ac)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// pairs returns every group fully merged, sorted by raw key bytes —
// the same order the in-memory path produces. Spilled partitions are
// merged one at a time so the transient merge table stays within the
// broker's budget (overflow sub-passes handle partitions that alone
// exceed it).
func (t *aggTable) pairs() ([]aggPair, error) {
	var out []aggPair
	if t.sp == nil {
		out = make([]aggPair, 0, len(t.m))
		for k, ac := range t.m {
			out = append(out, aggPair{key: k, ac: *ac})
		}
	} else {
		if err := t.sp.flushBufs(); err != nil {
			return nil, err
		}
		t.sp.releaseBufs()
		for pi := range t.sp.parts {
			var err error
			out, err = t.mergePartition(pi, out)
			if err != nil {
				return nil, err
			}
		}
	}
	slices.SortFunc(out, func(x, y aggPair) int { return strings.Compare(x.key, y.key) })
	return out, nil
}

// mergePartition replays one partition's records into a merge table,
// diverting keys the broker has no room for into an overflow partition
// that a further sub-pass consumes. Each sub-pass admits its first
// aggFloorEntries keys under the spill grant's merge floor, without a
// fresh grant, so the merge always terminates, absorbing that many keys
// per sub-pass at the least rather than one.
//
// Diversion is sticky within a sub-pass: after the first denial every
// key not already resident in the merge table goes to the overflow
// writer without consulting the broker again. A per-record TryGrow
// could succeed when a concurrent pipeline releases memory mid-merge,
// admitting a later record of an already-diverted key — the key would
// then surface twice, once from the table and once from the overflow
// sub-pass, with its aggregate split between the two.
func (t *aggTable) mergePartition(pi int, out []aggPair) ([]aggPair, error) {
	pages := t.sp.parts[pi].pages
	for len(pages) > 0 {
		m := make(map[string]*accum)
		var mBytes int64
		var overflow *spillWriter
		err := t.sp.readPart(pi, pages, func(key []byte, ac accum) error {
			k := string(key)
			if cur, ok := m[k]; ok {
				mergeAccum(t.agg, cur, ac)
				return nil
			}
			eb := t.entryBytes()
			switch {
			case len(m) < aggFloorEntries:
				// Progress floor: covered by the spill grant's merge
				// floor, so the sub-pass needs no fresh grant.
			case overflow != nil || !t.res.TryGrow(eb):
				if overflow == nil {
					overflow = t.sp.newWriter()
				}
				t.spillBytes += int64(t.sp.recSize)
				return overflow.write(key, ac)
			default:
				mBytes += eb
			}
			cur := ac
			m[k] = &cur
			return nil
		})
		if err != nil {
			return nil, err
		}
		for k, ac := range m {
			out = append(out, aggPair{key: k, ac: *ac})
		}
		t.res.Shrink(mBytes)
		pages = nil
		if overflow != nil {
			var ferr error
			pages, ferr = overflow.finish()
			if ferr != nil {
				return nil, ferr
			}
		}
	}
	return out, nil
}

// memStats reports the table's contribution to the pipeline's memory
// counters: reservation high-water mark, spill bytes, partitions.
func (t *aggTable) memStats() Stats {
	return Stats{PeakMemory: t.res.Peak(), SpillBytes: t.spillBytes, SpillPartitions: t.spillParts}
}

// close releases the reservation and destroys the temp spill file. It
// is idempotent and nil-safe.
func (t *aggTable) close() {
	if t == nil {
		return
	}
	if t.sp != nil {
		t.sp.destroy()
		t.sp = nil
	}
	t.res.Release()
	t.m = nil
}

// spillFiles is the on-disk half of a spilled aggTable: one temp page
// file holding the pages of fanout partitions plus overflow partitions
// created during merge. Record format: key bytes, accumulator a and b
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
// page, overflow writer page, and one merge-table starting state of
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
	// merge table's starting state (floorEntry — aggFloorEntries map
	// entries for the byte-key tables, one initial slot slab for the
	// packed fold tables). The caller transfers preHeld bytes it already has on res
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

// partition hashes a key (FNV-1a) onto a partition index.
func (sp *spillFiles) partition(key []byte) int {
	h := uint32(2166136261)
	for _, b := range key {
		h = (h ^ uint32(b)) * 16777619
	}
	return int(h % uint32(len(sp.parts)))
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
