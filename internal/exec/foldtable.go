package exec

import (
	"encoding/binary"

	"mdxopt/internal/mem"
	"mdxopt/internal/query"
)

// Open-addressing fold table.
//
// foldTable is the aggregation state of one pipeline: a flat
// power-of-two slot array probed linearly from the key's hash — one
// find-or-insert probe per tuple, no per-tuple key encode, no string
// conversion, and no allocation in the steady state (inserts allocate
// only at the amortized rehash points, and rehashing stops once the
// group domain is populated). A one-word key (pack.go) lives in its
// slot and hashes with hash64 (find, insert, fold); a two-word table
// keeps each slot's high word in a side slab, hi, and hashes with
// hash128 (find2, insert2, fold2). The slot stays 32 bytes either way.
//
// Memory and spilling:
//
//   - the slot slab (and hi) is charged to the pipeline's broker
//     reservation; a rehash charges the new slab (TryGrow) before
//     releasing the old one, so the broker's peak covers the transient
//     double residency;
//   - a denied grant triggers a grace-hash partitioned spill (spill.go):
//     records of 8 or 16 key bytes, the probe hash routing each to its
//     partition so a key's records stay in one partition in arrival
//     order;
//   - finalization (finalize.go) copies the groups of every worker's
//     table into one flat slab, orders it canonically — by the packed
//     key itself, whose numeric order is the canonical one (pack.go) —
//     and decodes into slab-backed Groups, so results are byte-identical
//     to the oracle's.
const (
	// foldInitialSlots is the initial slot-array capacity. Its slab
	// (foldInitialSlots slots, high words included) is also the table
	// portion of a spill's merge floor: every merge sub-pass gets one
	// starting slab without a fresh grant, so merges always progress.
	foldInitialSlots = 64
	// foldSlotBytes is the charged size of one slot (unsafe.Sizeof is
	// avoided so the plan estimator can mirror the constant verbatim);
	// a two-word table charges 8 more per slot for its high word.
	foldSlotBytes = 32
)

// foldSlot is one group's inline state: the packed key (its low word
// in a two-word table) and the accumulator components, flattened to
// keep the slot at 32 bytes.
type foldSlot struct {
	key  uint64
	a, b float64
	set  bool
	used bool
}

// foldSlotMerge folds delta d into slot s under agg. Folding a delta
// into an unset slot yields the delta itself, so one code path serves
// the scan, the spill merge and the worker merge.
func foldSlotMerge(agg query.Agg, s *foldSlot, d accum) {
	if !d.set {
		return
	}
	if !s.set {
		s.a, s.b, s.set = d.a, d.b, true
		return
	}
	switch agg {
	case query.Sum, query.Count:
		s.a += d.a
	case query.Min:
		if d.a < s.a {
			s.a = d.a
		}
	case query.Max:
		if d.a > s.a {
			s.a = d.a
		}
	case query.Avg:
		s.a += d.a
		s.b += d.b
	}
}

// foldTable is a pipeline's aggregation state: an open-addressing
// table under a broker reservation until the budget runs out,
// partitioned spill files afterwards.
type foldTable struct {
	agg    query.Agg
	kp     *keyPacker
	res    *mem.Reservation // nil: untracked (no broker)
	dir    string
	fanout int

	slots  []foldSlot
	hi     []uint64 // a two-word table's high words, by slot
	mask   uint64
	n      int   // occupied slots
	growAt int   // rehash threshold (3/4 load)
	held   int64 // slab bytes charged on res
	// floorBytes is slab capacity covered by a spill grant's merge
	// floor instead of fresh grants; non-zero only for the transient
	// tables of merge sub-passes.
	floorBytes int64
	// floorHeld is the single-partition spill floor pre-reserved at
	// construction (0 when the broker denied it). Reserving the floor
	// while the budget still has room means a spill that starts under
	// saturation spends this instead of overdrafting with MustGrow —
	// concurrent pipelines racing for a freed slab can no longer push
	// the broker's peak past the budget.
	floorHeld int64

	sp *spillFiles // nil until the first denied grant
	kb [16]byte    // spill record key scratch

	spillBytes int64
	spillParts int64

	fin runSet // finalizes the member this is worker 0's table of (finalize.go)
}

func newFoldTable(env *Env, agg query.Agg, kp *keyPacker, tag string) *foldTable {
	t := &foldTable{
		agg:    agg,
		kp:     kp,
		res:    env.Mem.Reserve(tag),
		dir:    env.spillDir(),
		fanout: env.spillFanout(),
	}
	if fl := spillFloorBytes(foldInitialSlots * t.slotBytes()); t.res.TryGrow(fl) {
		t.floorHeld = fl
	}
	return t
}

// slotBytes is the charged size of one slot, its high word included.
func (t *foldTable) slotBytes() int64 {
	if t.kp.twoWords() {
		return foldSlotBytes + 8
	}
	return foldSlotBytes
}

// find returns the slot holding key, or nil.
func (t *foldTable) find(key uint64) *foldSlot {
	if t.slots == nil {
		return nil
	}
	i := hash64(key) & t.mask
	for {
		s := &t.slots[i]
		if !s.used {
			return nil
		}
		if s.key == key {
			return s
		}
		i = (i + 1) & t.mask
	}
}

// insert adds a key known to be absent, reporting false — with the
// table unchanged — when the broker denies the growth it needs.
func (t *foldTable) insert(key uint64, d accum) bool {
	if t.slots == nil || t.n == t.growAt {
		newCap := foldInitialSlots
		if t.slots != nil {
			newCap = len(t.slots) * 2
		}
		if !t.grow(newCap) {
			return false
		}
	}
	i := hash64(key) & t.mask
	for t.slots[i].used {
		i = (i + 1) & t.mask
	}
	s := &t.slots[i]
	s.key, s.a, s.b, s.set, s.used = key, d.a, d.b, d.set, true
	t.n++
	return true
}

// grow rehashes into a slab of newCap slots. The new slab is charged
// before the old one is released: both are resident during the rehash,
// and the broker's peak must cover what the process actually holds.
func (t *foldTable) grow(newCap int) bool {
	charge := int64(newCap)*t.slotBytes() - t.floorBytes
	if charge < 0 {
		charge = 0
	}
	if !t.res.TryGrow(charge) {
		return false
	}
	old, oldHi := t.slots, t.hi
	t.slots = make([]foldSlot, newCap)
	if t.kp.twoWords() {
		t.hi = make([]uint64, newCap)
	}
	t.mask = uint64(newCap - 1)
	t.growAt = newCap * 3 / 4
	for i := range old {
		s := &old[i]
		if !s.used {
			continue
		}
		j := hash64(s.key) & t.mask
		if oldHi != nil {
			j = hash128(s.key, oldHi[i]) & t.mask
		}
		for t.slots[j].used {
			j = (j + 1) & t.mask
		}
		t.slots[j] = *s
		if oldHi != nil {
			t.hi[j] = oldHi[i]
		}
	}
	t.res.Shrink(t.held)
	t.held = charge
	return true
}

// fold is the kernel's per-group entry point: find-or-insert the key
// and merge the delta, spilling when the broker refuses table growth.
func (t *foldTable) fold(key uint64, d accum) error {
	if t.sp != nil {
		return t.writeRec(key, d)
	}
	if s := t.find(key); s != nil {
		foldSlotMerge(t.agg, s, d)
		return nil
	}
	if t.insert(key, d) {
		return nil
	}
	if err := t.startSpill(); err != nil {
		return err
	}
	return t.writeRec(key, d)
}

// find2 is find for a two-word table.
func (t *foldTable) find2(lo, hi uint64) *foldSlot {
	if t.slots == nil {
		return nil
	}
	i := hash128(lo, hi) & t.mask
	for {
		s := &t.slots[i]
		if !s.used {
			return nil
		}
		if s.key == lo && t.hi[i] == hi {
			return s
		}
		i = (i + 1) & t.mask
	}
}

// insert2 is insert for a two-word table.
func (t *foldTable) insert2(lo, hi uint64, d accum) bool {
	if t.slots == nil || t.n == t.growAt {
		if !t.grow(max(foldInitialSlots, 2*len(t.slots))) {
			return false
		}
	}
	i := hash128(lo, hi) & t.mask
	for t.slots[i].used {
		i = (i + 1) & t.mask
	}
	t.slots[i] = foldSlot{key: lo, a: d.a, b: d.b, set: d.set, used: true}
	t.hi[i] = hi
	t.n++
	return true
}

// fold2 is fold for a two-word table.
func (t *foldTable) fold2(lo, hi uint64, d accum) error {
	if t.sp != nil {
		return t.writeRec2(lo, hi, d)
	}
	if s := t.find2(lo, hi); s != nil {
		foldSlotMerge(t.agg, s, d)
		return nil
	}
	if t.insert2(lo, hi, d) {
		return nil
	}
	if err := t.startSpill(); err != nil {
		return err
	}
	return t.writeRec2(lo, hi, d)
}

// foldKey, findKey and insertKey take a key of either width: to the
// two-word entries in a two-word table, to the one-word ones — hi is 0
// — otherwise.
func (t *foldTable) foldKey(lo, hi uint64, d accum) error {
	if t.kp.twoWords() {
		return t.fold2(lo, hi, d)
	}
	return t.fold(lo, d)
}

func (t *foldTable) findKey(lo, hi uint64) *foldSlot {
	if t.kp.twoWords() {
		return t.find2(lo, hi)
	}
	return t.find(lo)
}

func (t *foldTable) insertKey(lo, hi uint64, d accum) bool {
	if t.kp.twoWords() {
		return t.insert2(lo, hi, d)
	}
	return t.insert(lo, d)
}

// startSpill switches the table to write-through mode: resident slots
// are flushed as partial-accumulator records and the slab's memory is
// returned to the broker. The slab's bytes are released up front, so
// the spill buffers' grant draws on the space they vacate instead of
// overdrafting past the ceiling the denial just established.
func (t *foldTable) startSpill() error {
	t.res.Shrink(t.held)
	t.held = 0
	keyLen := 8
	if t.kp.twoWords() {
		keyLen = 16
	}
	sp, err := newSpillFiles(t.dir, keyLen, t.fanout, foldInitialSlots*t.slotBytes(), t.res, t.floorHeld)
	if err != nil {
		return err
	}
	t.floorHeld = 0 // ownership moves to sp.bufHeld
	t.sp = sp
	t.spillParts += int64(len(sp.parts))
	for i := range t.slots {
		s := &t.slots[i]
		if !s.used {
			continue
		}
		ac := accum{a: s.a, b: s.b, set: s.set}
		if t.hi != nil {
			err = t.writeRec2(s.key, t.hi[i], ac)
		} else {
			err = t.writeRec(s.key, ac)
		}
		if err != nil {
			return err
		}
	}
	t.slots, t.hi = nil, nil
	t.n = 0
	return nil
}

// writeRec appends one delta record, routed to its partition by the
// same hash that drives the table's probe sequence — a key's records
// land in one partition in arrival order, which is what makes the
// merged fold identical to the in-memory one.
func (t *foldTable) writeRec(key uint64, ac accum) error {
	binary.LittleEndian.PutUint64(t.kb[:], key)
	return t.writeKB(hash64(key), ac)
}

// writeRec2 is writeRec for a two-word key: 16 key bytes, routed by
// hash128.
func (t *foldTable) writeRec2(lo, hi uint64, ac accum) error {
	binary.LittleEndian.PutUint64(t.kb[:], lo)
	binary.LittleEndian.PutUint64(t.kb[8:], hi)
	return t.writeKB(hash128(lo, hi), ac)
}

// writeKB writes the key in kb with delta ac to partition h mod fanout.
func (t *foldTable) writeKB(h uint64, ac accum) error {
	if err := t.sp.write(int(h%uint64(len(t.sp.parts))), t.kb[:t.sp.keyLen], ac); err != nil {
		return err
	}
	t.spillBytes += int64(t.sp.recSize)
	return nil
}

// foldRow is one finalized group: its key's two words (hi is 0 for a
// one-word key) and the accumulator. (hi, lo) compared as one 128-bit
// integer is the canonical order (compareRows).
type foldRow struct {
	hi, lo uint64
	a, b   float64
}

// keyByte is the byte of r's key at bit shift, a multiple of 8 below
// 128.
func (r *foldRow) keyByte(shift int) uint8 {
	if shift >= 64 {
		return uint8(r.hi >> (shift - 64))
	}
	return uint8(r.lo >> shift)
}

// rows returns every group of a spilled table fully merged, in no
// particular order. Spilled partitions are merged one at a time into the
// same buffer (overflow sub-passes handle partitions that alone exceed
// the budget). The buffer is result state, not operator state: like the
// slab it is finalized into (finalize.go), it is not charged to the
// broker.
func (t *foldTable) rows() ([]foldRow, error) {
	if err := t.sp.flushBufs(); err != nil {
		return nil, err
	}
	t.sp.releaseBufs()
	// One transient table serves every sub-pass of every partition,
	// cleared in between; its slab stays charged until the merge ends
	// (t.close releases it on an error path).
	mt := &foldTable{agg: t.agg, kp: t.kp, res: t.res, floorBytes: foldInitialSlots * t.slotBytes()}
	var out []foldRow
	for pi := range t.sp.parts {
		var err error
		out, err = t.mergePartition(mt, pi, out)
		if err != nil {
			return nil, err
		}
	}
	t.res.Shrink(mt.held)
	return out, nil
}

// appendRows appends every resident slot to out.
func (t *foldTable) appendRows(out []foldRow) []foldRow {
	for i := range t.slots {
		s := &t.slots[i]
		if !s.used {
			continue
		}
		var hi uint64
		if t.hi != nil {
			hi = t.hi[i]
		}
		out = append(out, foldRow{hi: hi, lo: s.key, a: s.a, b: s.b})
	}
	return out
}

// mergePartition replays one partition's records into the transient
// fold table mt, diverting keys the broker has no room for into an overflow
// partition consumed by a further sub-pass. The transient table's
// initial slab is covered by the spill grant's merge floor, so every
// sub-pass absorbs at least growAt keys without a fresh grant and the
// merge always terminates.
//
// Diversion is sticky within a sub-pass: after the first denial every
// key not already resident goes to the overflow writer without
// consulting the broker again. A per-record grant could succeed when a
// concurrent pipeline releases memory mid-merge, admitting a later
// record of an already-diverted key — the key would then surface twice,
// once from the table and once from the overflow sub-pass, with its
// aggregate split between the two.
func (t *foldTable) mergePartition(mt *foldTable, pi int, out []foldRow) ([]foldRow, error) {
	pages := t.sp.parts[pi].pages
	wide := t.kp.twoWords()
	for len(pages) > 0 {
		clear(mt.slots)
		mt.n = 0
		var overflow *spillWriter
		err := t.sp.readPart(pi, pages, func(key []byte, ac accum) error {
			lo, hi := binary.LittleEndian.Uint64(key), uint64(0)
			if wide {
				hi = binary.LittleEndian.Uint64(key[8:])
			}
			if s := mt.findKey(lo, hi); s != nil {
				foldSlotMerge(t.agg, s, ac)
				return nil
			}
			if overflow == nil && mt.insertKey(lo, hi, ac) {
				return nil
			}
			if overflow == nil {
				overflow = t.sp.newWriter()
			}
			t.spillBytes += int64(t.sp.recSize)
			return overflow.write(key, ac)
		})
		if err != nil {
			return nil, err
		}
		out = mt.appendRows(out)
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
func (t *foldTable) memStats() Stats {
	return Stats{PeakMemory: t.res.Peak(), SpillBytes: t.spillBytes, SpillPartitions: t.spillParts}
}

// close releases the reservation and destroys the temp spill file. It
// is idempotent and nil-safe.
func (t *foldTable) close() {
	if t == nil {
		return
	}
	if t.sp != nil {
		t.sp.destroy()
		t.sp = nil
	}
	t.res.Release()
	t.slots, t.hi = nil, nil
	t.held = 0
}
