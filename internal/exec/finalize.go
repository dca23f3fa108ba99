package exec

import (
	"cmp"
	"slices"

	"mdxopt/internal/query"
)

// Partition-wise finalization.
//
// After a width-W scan a root member's groups sit in W worker-private
// fold tables, worker 0's being the pass's own. They become one sorted
// answer without a serial merge:
//
//  1. split: one slab region per worker table (a spilled table is first
//     merged partition by partition, foldTable.rows);
//  2. sort, per table: copy its groups into its region, release the
//     table to the broker, radix-sort the region on the packed key, whose
//     numeric order is the canonical one (pack.go; a table holds a key
//     once);
//  3. bound: P-1 key-range boundaries drawn from a strided sample of the
//     sorted regions cut every region into P runs;
//  4. merge, per key range: merge the W runs, combining equal keys in
//     worker-index order, which no scheduling can change;
//  5. decode, per key range: rows into Groups at the range's offset.
//
// Ranges concatenated in key order are the canonical order, so results
// are byte-identical to Naive's. Steps 2, 4 and 5 are pool tasks over
// every root of the pass. At width 1, P = 1, the merge of a single run is
// the identity and the steps run inline: the serial pass does the same
// work through the same code. Keys of one word and of two take the same
// steps. Slab, merged rows and groups are result state, not charged to
// the broker.

const (
	// rangesPerWorker sets P = rangesPerWorker × W: a worker done with a
	// small range claims another while a sibling works through a big one.
	rangesPerWorker = 4
	// samplesPerRange is the number of sampled keys per key range.
	samplesPerRange = 64
)

// runSrc is one worker table of a member, its group count and, once
// spill-merged, its merged rows (nil while the table is resident).
type runSrc struct {
	t    *foldTable
	n    int
	rows []foldRow
}

// runSet is one member's finalization state. It lives in the member's
// worker-0 table, so a width-1 finalization allocates only the slab, the
// groups and their key slab.
type runSet struct {
	agg   query.Agg
	kp    *keyPacker
	src   []runSrc // worker 0 first
	parts int      // P
	// off[w*(P+1)+p] and off[w*(P+1)+p+1] bound worker w's run of range p
	// in slab; range p's merged rows start at merged[mo[p]], its groups
	// at gof[p]; cur[p*W:] are range p's merge cursors.
	off, mo, gof, cur []int
	slab, merged      []foldRow
	groups            []Group
	keys              []int32

	src1 [1]runSrc // storage of a width-1 set
	int1 [7]int
}

// init readies the set for width worker tables: t0 is worker 0's, the
// caller puts the others in src[w].t.
func (rs *runSet) init(t0 *foldTable, width int) {
	rs.agg, rs.kp, rs.parts = t0.agg, t0.kp, 1
	ints := rs.int1[:]
	rs.src = rs.src1[:]
	if width > 1 {
		rs.parts = rangesPerWorker * width
		ints = make([]int, (width+2)*(rs.parts+1)+width*rs.parts)
		rs.src = make([]runSrc, width)
	}
	p1 := rs.parts + 1
	rs.off, rs.mo, rs.gof, rs.cur = ints[:width*p1], ints[width*p1:(width+1)*p1], ints[(width+1)*p1:(width+2)*p1], ints[(width+2)*p1:]
	rs.src[0].t = t0
}

// finalize runs every step inline: a derived member, RollupCached.
func (rs *runSet) finalize() error {
	err := rs.split()
	if err == nil {
		rs.finish()
	}
	return err
}

// finish runs the steps after split inline, as a width-1 pass does.
func (rs *runSet) finish() {
	for w := range rs.src {
		rs.sort(w)
	}
	rs.bound()
	for p := 0; p < rs.parts; p++ {
		rs.merge(p)
	}
	rs.count()
	for p := 0; p < rs.parts; p++ {
		rs.decode(p)
	}
}

// finalizeSets finalizes a pass's root pipelines (their worker-0
// tables' fin sets readied by init): at width 1 one after the other,
// inline; wider, step by step, each step one round of pool tasks over
// every set's tables or key ranges.
func finalizeSets(env *Env, roots []*queryPipeline) error {
	W, P := 1, 0
	for _, p := range roots {
		if err := p.ftab.fin.split(); err != nil {
			return err
		}
		if W, P = len(p.ftab.fin.src), max(P, p.ftab.fin.parts); W == 1 {
			p.ftab.fin.finish()
		}
	}
	if W == 1 {
		return nil
	}
	poolTasks(env, len(roots)*W, func(i int) error {
		roots[i/W].ftab.fin.sort(i % W)
		return nil
	})
	for _, p := range roots {
		p.ftab.fin.bound()
	}
	poolTasks(env, len(roots)*P, func(i int) error {
		if rs := &roots[i/P].ftab.fin; i%P < rs.parts {
			rs.merge(i % P)
		}
		return nil
	})
	for _, p := range roots {
		p.ftab.fin.count()
	}
	return poolTasks(env, len(roots)*P, func(i int) error {
		if rs := &roots[i/P].ftab.fin; i%P < rs.parts {
			rs.decode(i % P)
		}
		return nil
	})
}

// split merges spilled tables and lays the slab out: worker w's groups
// in off[w*(P+1)] .. off[w*(P+1)+P], in worker order; a single spilled
// table's rows are the slab.
func (rs *runSet) split() error {
	P, total := rs.parts, 0
	for w := range rs.src {
		s := &rs.src[w]
		if s.n = s.t.n; s.t.sp != nil {
			var err error
			if s.rows, err = s.t.rows(); err != nil {
				return err
			}
			s.n = len(s.rows)
		}
		rs.off[w*(P+1)] = total
		total += s.n
		rs.off[w*(P+1)+P] = total
	}
	rs.slab = rs.src[0].rows
	if len(rs.src) > 1 || rs.slab == nil {
		rs.slab = make([]foldRow, total)
	}
	rs.merged = rs.slab
	if len(rs.src) > 1 {
		rs.merged = make([]foldRow, total)
	}
	return nil
}

// sort copies worker w's groups into its region, releases the worker's
// table and sorts the region canonically.
func (rs *runSet) sort(w int) {
	P, s := rs.parts, &rs.src[w]
	region := rs.slab[rs.off[w*(P+1)]:rs.off[w*(P+1)+P]]
	if s.rows == nil {
		s.t.appendRows(region[:0])
	} else if len(rs.src) > 1 {
		copy(region, s.rows)
	}
	s.rows = nil
	s.t.close()
	radixSort(region, (rs.kp.bits+7)/8*8-8)
}

// radixSort sorts rows in place on their keys' bytes from bit shift
// down, most significant first (American flag sort): count the rows per
// byte value, then cycle every row into its bucket and sort each bucket
// on the next byte; buckets of a few dozen rows finish by insertion sort.
func radixSort(rows []foldRow, shift int) {
	if len(rows) <= 48 || shift < 0 {
		for i := 1; i < len(rows); i++ {
			for j := i; j > 0 && compareRows(&rows[j], &rows[j-1]) < 0; j-- {
				rows[j], rows[j-1] = rows[j-1], rows[j]
			}
		}
		return
	}
	var next, end [256]int
	for i := range rows {
		end[rows[i].keyByte(shift)]++
	}
	for b, start := 0, 0; b < 256; b++ {
		next[b], end[b] = start, start+end[b]
		start = end[b]
	}
	for b := range next {
		for next[b] < end[b] {
			i, j := next[b], next[rows[next[b]].keyByte(shift)]
			rows[i], rows[j] = rows[j], rows[i]
			next[rows[j].keyByte(shift)]++
		}
	}
	for b, lo := 0, 0; b < 256; b++ {
		radixSort(rows[lo:end[b]], shift-8)
		lo = end[b]
	}
}

// bound draws the P-1 key-range boundaries from a strided sample of the
// sorted regions — quantiles of the key, not its top bits, whose top
// byte is dimension 0's low code byte and may take only three values —
// and cuts each region into its P runs by binary search.
func (rs *runSet) bound() {
	P, W := rs.parts, len(rs.src)
	if P == 1 {
		return
	}
	want := samplesPerRange * P
	stride := max(1, (rs.off[W*(P+1)-1]+want-1)/want)
	sample := make([]foldRow, 0, want+W)
	for w := 0; w < W; w++ {
		for i := rs.off[w*(P+1)]; i < rs.off[w*(P+1)+P]; i += stride {
			sample = append(sample, foldRow{hi: rs.slab[i].hi, lo: rs.slab[i].lo})
		}
	}
	byKey := func(x, y foldRow) int { return compareRows(&x, &y) }
	slices.SortFunc(sample, byKey)
	for w := 0; w < W; w++ {
		o := rs.off[w*(P+1) : (w+1)*(P+1)]
		for p := 1; p < P && len(sample) > 0; p++ {
			i, _ := slices.BinarySearchFunc(rs.slab[o[0]:o[P]], sample[p*len(sample)/P], byKey)
			o[p] = o[0] + i
		}
	}
}

// merge merges every worker's run of range p into merged, after the
// runs of every earlier range, combining equal keys — both words equal
// — in worker-index order: the first worker holding the smallest key
// seeds the row, later ones fold into it. One sorted run is its own
// merge.
func (rs *runSet) merge(p int) {
	P, W := rs.parts, len(rs.src)
	c := rs.cur[p*W : (p+1)*W]
	rs.mo[p] = 0
	for w := 0; w < W; w++ {
		c[w] = rs.off[w*(P+1)+p]
		rs.mo[p] += c[w] - rs.off[w*(P+1)]
	}
	if W == 1 {
		rs.gof[p+1] = rs.off[p+1] - rs.off[p]
		return
	}
	out := rs.mo[p]
	for {
		best := -1
		for w, i := range c {
			if i < rs.off[w*(P+1)+p+1] && (best < 0 || compareRows(&rs.slab[i], &rs.slab[c[best]]) < 0) {
				best = w
			}
		}
		if best < 0 {
			break
		}
		m := &rs.merged[out]
		*m = rs.slab[c[best]]
		for w := best; w < W; w++ {
			if i := c[w]; i < rs.off[w*(P+1)+p+1] && rs.slab[i].lo == m.lo && rs.slab[i].hi == m.hi {
				if w > best {
					s := foldSlot{a: m.a, b: m.b, set: true}
					foldSlotMerge(rs.agg, &s, accum{a: rs.slab[i].a, b: rs.slab[i].b, set: true})
					m.a, m.b = s.a, s.b
				}
				c[w]++
			}
		}
		out++
	}
	rs.gof[p+1] = out - rs.mo[p]
}

// compareRows orders two rows canonically: by key, (hi, lo) compared
// as one 128-bit integer.
func compareRows(x, y *foldRow) int {
	if x.hi != y.hi {
		return cmp.Compare(x.hi, y.hi)
	}
	return cmp.Compare(x.lo, y.lo)
}

// count turns the ranges' group counts into offsets and allocates the
// groups and their key slab.
func (rs *runSet) count() {
	for p := 0; p < rs.parts; p++ {
		rs.gof[p+1] += rs.gof[p]
	}
	rs.groups = make([]Group, rs.gof[rs.parts])
	rs.keys = make([]int32, len(rs.groups)*len(rs.kp.shifts))
}

// rowsOf returns range p's merged rows, in canonical order.
func (rs *runSet) rowsOf(p int) []foldRow {
	return rs.merged[rs.mo[p] : rs.mo[p]+rs.gof[p+1]-rs.gof[p]]
}

// decode turns range p's merged rows into its groups. Every Keys slice
// is cut from the one key slab with its capacity clipped, so appending
// to one group's keys cannot reach the next group's.
func (rs *runSet) decode(p int) {
	nd, avg := len(rs.kp.shifts), rs.agg == query.Avg
	for i, r := range rs.rowsOf(p) {
		g := rs.gof[p] + i
		keys := rs.keys[g*nd : (g+1)*nd : (g+1)*nd]
		rs.kp.unpack(r.lo, r.hi, keys)
		rs.groups[g] = Group{Keys: keys, Value: finalValue(avg, r.a, r.b)}
	}
}
