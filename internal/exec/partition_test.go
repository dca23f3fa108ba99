package exec

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"mdxopt/internal/mem"
	"mdxopt/internal/query"
)

// Partition-wise finalization, unit level: worker tables built by hand,
// finalized at their width, against a map fold — each worker's deltas in
// arrival order, the workers combined in worker-index order — followed
// by a canonical sort.

// delta is one fold of a worker table: a packed key and a value.
type delta struct {
	lo, hi uint64
	v      float64
}

// pk packs codes into a two-word key value.
func pk(kp *keyPacker, codes ...int32) [2]uint64 {
	lo, hi := kp.pack(codes)
	return [2]uint64{lo, hi}
}

// rowKey is row r's key (lo, hi): a one-word row's second word is its
// sort key, not part of the key.
func rowKey(kp *keyPacker, r foldRow) [2]uint64 {
	if kp.twoWords() {
		return [2]uint64{r.key, r.sortKey}
	}
	return [2]uint64{r.key, 0}
}

// refFold folds ac into cur as the fold table does.
func refFold(agg query.Agg, cur *accum, ac accum) {
	s := foldSlot{a: cur.a, b: cur.b, set: cur.set}
	foldSlotMerge(agg, &s, ac)
	*cur = accum{a: s.a, b: s.b, set: s.set}
}

// partitionMerge folds runs[w] into worker w's table, finalizes the
// root at width len(runs) and requires its merged rows and groups to
// equal the reference, and the broker to be drained: finalization
// releases every table it reads. It returns the finalized set.
func partitionMerge(t *testing.T, env *Env, agg query.Agg, kp *keyPacker, runs [][]delta) *runSet {
	t.Helper()
	root := new(queryPipeline)
	want := map[[2]uint64]accum{}
	for w, run := range runs {
		ft := newFoldTable(env, agg, kp, "worker")
		mine := map[[2]uint64]accum{}
		for _, d := range run {
			ac := accum{a: d.v, b: 1, set: true}
			if err := ft.foldKey(d.lo, d.hi, ac); err != nil {
				t.Fatal(err)
			}
			k := [2]uint64{d.lo, d.hi}
			cur := mine[k]
			refFold(agg, &cur, ac)
			mine[k] = cur
		}
		for k, ac := range mine {
			cur := want[k]
			refFold(agg, &cur, ac)
			want[k] = cur
		}
		if w == 0 {
			root.ftab = ft
			ft.fin.init(ft, len(runs))
		} else {
			root.ftab.fin.src[w].t = ft
		}
	}
	rs := &root.ftab.fin
	keys := make([][2]uint64, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(x, y [2]uint64) int { return kp.compareKeys(x[0], x[1], y[0], y[1]) })

	env.Pool = NewPool(len(runs))
	if err := finalizeSets(env, []*queryPipeline{root}); err != nil {
		t.Fatal(err)
	}
	var got []foldRow
	for p := 0; p < rs.parts; p++ {
		got = append(got, rs.rowsOf(p)...)
	}
	if len(got) != len(keys) || len(rs.groups) != len(keys) {
		t.Fatalf("width %d: %d rows, %d groups; want %d", len(runs), len(got), len(rs.groups), len(keys))
	}
	codes := make([]int32, len(kp.shifts))
	for i, k := range keys {
		r, w := got[i], want[k]
		if rowKey(kp, r) != k || r.a != w.a || r.b != w.b {
			t.Fatalf("width %d row %d: key %#x (%v, %v), want %#x (%v, %v)", len(runs), i, rowKey(kp, r), r.a, r.b, k, w.a, w.b)
		}
		kp.unpack(k[0], k[1], codes)
		if g := rs.groups[i]; !slices.Equal(g.Keys, codes) || g.Value != finalValue(agg == query.Avg, w.a, w.b) {
			t.Fatalf("width %d group %d: %v = %v, want %v = %v", len(runs), i, g.Keys, g.Value, codes, finalValue(agg == query.Avg, w.a, w.b))
		}
	}
	checkDrained(t, env.Mem)
	return rs
}

// rangeSizes returns how many groups of all workers each key range got
// once the sorted regions were cut.
func rangeSizes(rs *runSet) []int {
	P := rs.parts
	sizes := make([]int, P)
	for w := range rs.src {
		for p := range sizes {
			sizes[p] += rs.off[w*(P+1)+p+1] - rs.off[w*(P+1)+p]
		}
	}
	return sizes
}

// TestPartitionEdgeCases covers the degenerate layouts: no groups at
// all, one key held by every worker (every row in one range, the others
// empty), fewer groups than ranges, every group in one worker, and keys
// without a sort key, of one word and of two (one range at any width).
func TestPartitionEdgeCases(t *testing.T) {
	narrow, _ := newKeyPackerFromCards([]int32{3, 300, 7})
	wide, _ := newKeyPackerFromCards([]int32{1 << 17, 1 << 17, 1 << 17})
	twoWord, _ := newKeyPackerFromCards([]int32{1 << 30, 1 << 30, 1 << 17})
	if narrow.sortSteps == nil || wide.sortSteps != nil || wide.twoWords() || !twoWord.twoWords() {
		t.Fatal("want a packer with a sort key, a one-word one without and a two-word one")
	}
	same := func(width int, key [2]uint64) [][]delta {
		runs := make([][]delta, width)
		for w := range runs {
			runs[w] = []delta{{key[0], key[1], float64(w) + 0.1}, {key[0], key[1], 1.7}}
		}
		return runs
	}
	for _, width := range []int{2, 3, 8} {
		for _, agg := range []query.Agg{query.Sum, query.Min, query.Avg} {
			env := &Env{Mem: mem.New(1 << 30)}
			rs := partitionMerge(t, env, agg, narrow, make([][]delta, width))
			if len(rs.groups) != 0 {
				t.Fatalf("width %d: %d groups from empty tables", width, len(rs.groups))
			}

			rs = partitionMerge(t, env, agg, narrow, same(width, pk(narrow, 2, 299, 6)))
			nonEmpty := 0
			for _, n := range rangeSizes(rs) {
				if n > 0 {
					nonEmpty++
				}
			}
			if rs.parts != rangesPerWorker*width || nonEmpty != 1 {
				t.Fatalf("width %d: one key in %d of %d ranges, want 1", width, nonEmpty, rs.parts)
			}

			few := make([][]delta, width)
			for i := 0; i < 3; i++ {
				k := pk(narrow, int32(i), int32(7*i), 1)
				few[i%width] = append(few[i%width], delta{k[0], k[1], 0.3})
			}
			if rs = partitionMerge(t, env, agg, narrow, few); rs.parts <= len(rs.groups) {
				t.Fatalf("width %d: %d ranges for %d groups, want more ranges than groups", width, rs.parts, len(rs.groups))
			}

			lone := make([][]delta, width)
			for i := 0; i < 500; i++ {
				k := pk(narrow, int32(i%3), int32(i%300), int32(i%7))
				lone[width-1] = append(lone[width-1], delta{k[0], k[1], float64(i) / 10})
			}
			partitionMerge(t, env, agg, narrow, lone)

			for _, kp := range []*keyPacker{wide, twoWord} {
				if rs = partitionMerge(t, env, agg, kp, same(width, pk(kp, 70000, 256, 65536))); rs.parts != 1 {
					t.Fatalf("width %d: %d ranges for keys without a sort key, want 1", width, rs.parts)
				}
			}
		}
	}
}

// TestPartitionBoundsBalanced: with dimension 0 at three codes the sort
// key's top byte takes three values, so splitting on top bits would
// leave most ranges empty; the sampled boundaries keep every range
// within twice the mean.
func TestPartitionBoundsBalanced(t *testing.T) {
	kp, _ := newKeyPackerFromCards([]int32{3, 4096, 64})
	rng := rand.New(rand.NewSource(19980602))
	for _, width := range []int{2, 4, 8} {
		rs := new(runSet)
		total := 0
		for w := 0; w < width; w++ {
			ft := newFoldTable(&Env{}, query.Sum, kp, "worker")
			for i := 0; i < 20000; i++ {
				key, _ := kp.pack([]int32{int32(rng.Intn(3)), int32(rng.Intn(4096)), int32(rng.Intn(64))})
				if err := ft.fold(key, accum{a: 1, set: true}); err != nil {
					t.Fatal(err)
				}
			}
			total += ft.n
			if w == 0 {
				rs.init(ft, width)
			} else {
				rs.src[w].t = ft
			}
		}
		if err := rs.split(); err != nil {
			t.Fatal(err)
		}
		for w := range rs.src {
			rs.sort(w)
		}
		rs.bound()
		sizes := rangeSizes(rs)
		for p, n := range sizes {
			if mean := total / rs.parts; n > 2*mean {
				t.Fatalf("width %d: range %d holds %d of %d groups, more than twice the mean %d (sizes %v)", width, p, n, total, mean, sizes)
			}
		}
	}
}

// TestRadixSortMatchesSort holds radixSort to a comparison sort on the
// sort key: sizes around the insertion-sort cutoff, keys of one to eight
// significant bytes, and a top byte that takes only three values.
func TestRadixSortMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 47, 48, 49, 1000, 20000} {
		for nbytes := 1; nbytes <= 8; nbytes++ {
			rows := make([]foldRow, n)
			for i := range rows {
				sk := rng.Uint64() >> (64 - 8*nbytes)
				if nbytes > 1 && i%2 == 0 {
					sk = sk&^(0xff<<(8*nbytes-8)) | uint64(rng.Intn(3))<<(8*nbytes-8)
				}
				rows[i] = foldRow{sortKey: sk, key: uint64(i)}
			}
			want := slices.Clone(rows)
			slices.SortStableFunc(want, func(x, y foldRow) int { return cmp.Compare(x.sortKey, y.sortKey) })
			radixSort(rows, 8*nbytes-8)
			for i := range rows {
				if rows[i].sortKey != want[i].sortKey {
					t.Fatalf("n=%d bytes=%d: row %d has sort key %#x, want %#x", n, nbytes, i, rows[i].sortKey, want[i].sortKey)
				}
			}
		}
	}
}

// FuzzPartitionMerge finalizes random worker tables — keys drawn from a
// shared pool, so most have duplicates in other workers, folded several
// times each with values whose float sums depend on the order — at
// random widths, with a sort key, without one, or of two words,
// resident or spilled, and requires exactly a map fold in worker order
// followed by a sort. Its spilled mode is the unit test of a spilled
// worker table combined with its siblings.
func FuzzPartitionMerge(f *testing.F) {
	f.Add(int64(1), uint8(2), uint16(300), uint8(3), uint8(0), false, uint8(0))
	f.Add(int64(2), uint8(3), uint16(40), uint8(1), uint8(1), false, uint8(4))
	f.Add(int64(3), uint8(4), uint16(2000), uint8(200), uint8(0), true, uint8(2))
	f.Add(int64(4), uint8(1), uint16(0), uint8(7), uint8(0), false, uint8(1))
	f.Add(int64(5), uint8(3), uint16(500), uint8(90), uint8(2), false, uint8(4))
	f.Add(int64(6), uint8(2), uint16(1500), uint8(13), uint8(2), true, uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, width uint8, pool uint16, card0 uint8, shape uint8, spill bool, agg uint8) {
		rng := rand.New(rand.NewSource(seed))
		var cards []int32
		switch shape % 3 {
		case 0: // one word, sort key
			cards = []int32{int32(card0) + 1, 1000, 50}
		case 1: // one word, comparator
			cards = []int32{1 << 17, 1 << 17, int32(card0)<<9 + 1}
		case 2: // two words
			cards = []int32{1 << 30, int32(card0)<<20 + 1, 1 << 30, 300}
		}
		kp, ok := newKeyPackerFromCards(cards)
		if !ok {
			t.Skip("key does not pack")
		}
		keys := make([][2]uint64, int(pool)+1)
		codes := make([]int32, len(cards))
		for i := range keys {
			for d := range codes {
				codes[d] = int32(rng.Intn(int(cards[d])))
			}
			keys[i] = pk(kp, codes...)
		}
		runs := make([][]delta, 1+int(width)%8)
		for w := range runs {
			for i := rng.Intn(3 * len(keys)); i > 0; i-- {
				k := keys[rng.Intn(len(keys))]
				runs[w] = append(runs[w], delta{k[0], k[1], float64(rng.Intn(1000)) / 10})
			}
		}
		env := &Env{Mem: mem.New(1 << 30)}
		if spill {
			env.Mem, env.SpillDir, env.SpillFanout = mem.New(16<<10), t.TempDir(), 4
		}
		partitionMerge(t, env, query.Agg(int(agg)%5), kp, runs)
	})
}
