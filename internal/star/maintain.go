package star

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"path/filepath"
	"slices"

	"mdxopt/internal/storage"
	"mdxopt/internal/table"
)

// View maintenance.
//
// The paper's setting assumes precomputed group-bys kept in step with
// the fact table ("techniques for effectively creating and maintaining
// materialized group-bys"). This file implements the maintenance half:
//
//   - New facts append to the base table; materialized views then lag
//     behind (Database.Fresh reports this) and the optimizer refuses to
//     use stale views until refreshed.
//   - Refresh folds the base-table delta into each view *by appending
//     delta groups*. A refreshed view may contain several rows for one
//     group key; every operator in internal/exec aggregates per tuple,
//     so results remain exact. Bitmap join indexes are rebuilt (their
//     bitmaps are positional and fixed-length).
//   - Compact fully re-aggregates a view, merging duplicate group rows.

// RefreshedRows returns how many base-table rows have been folded into
// the view.
func (v *View) RefreshedRows() int64 { return v.refreshedRows }

// Fresh reports whether the view reflects every row of the base table.
// The base view is always fresh.
func (db *Database) Fresh(v *View) bool {
	if v.IsBase() {
		return true
	}
	return v.refreshedRows == db.Base().Rows()
}

// StaleViews lists materialized views lagging behind the base table.
func (db *Database) StaleViews() []*View {
	var out []*View
	for _, v := range db.Views[1:] {
		if !db.Fresh(v) {
			out = append(out, v)
		}
	}
	return out
}

// Refresh folds base-table rows appended since each view's last refresh
// into that view, rebuilds the affected bitmap join indexes, and counts
// the rows the base-table statistics have not seen into them (so
// selectivity estimates track the loaded data). Every scan reads only
// the appended rows. Views that are already fresh are untouched. The
// result is published as one successor snapshot; readers pinned to
// older snapshots keep their pre-refresh views (frozen heaps hide the
// appended delta groups, retired index files outlive the rebuild).
func (db *Database) Refresh() error {
	db.mutMu.Lock()
	defer db.mutMu.Unlock()
	baseRows := db.Base().Rows()
	for _, v := range db.Views[1:] {
		if v.refreshedRows == baseRows {
			continue
		}
		if err := db.refreshView(v, baseRows); err != nil {
			return fmt.Errorf("star: refresh %s: %w", v.Name, err)
		}
	}
	if err := db.refreshStatsLocked(); err != nil {
		return err
	}
	db.publishLocked()
	return nil
}

func (db *Database) refreshView(v *View, baseRows int64) error {
	from := v.refreshedRows
	agg, err := db.aggregate(db.Base(), v.Levels, from)
	if err != nil {
		return err
	}
	if err := appendGroups(v.Heap, agg, v.MultiAgg(), false); err != nil {
		return err
	}
	v.refreshedRows = baseRows
	return db.rebuildIndexesLocked(v)
}

// aggregate hash-aggregates src's rows from row number from on, each
// rolled up to the given level vector, into full (sum, count, min, max)
// accumulators — the one scan of materialize (src the cheapest source),
// Refresh (the base table's appended delta) and Compact (the view
// itself, where the roll-up is the identity).
func (db *Database) aggregate(src *View, levels []int, from int64) (*groupAgg, error) {
	nd := db.Schema.NumDims()
	agg := newGroupAgg(nd, src.Rows()-from)
	rolled := make([]int32, nd)
	var y storage.Yielder
	err := src.Heap.ScanRange(from, src.Rows(), func(row int64, keys []int32, measures []float64) error {
		y.Tick()
		for i := range rolled {
			rolled[i] = db.Schema.Dims[i].RollUp(keys[i], src.Levels[i], levels[i])
		}
		agg.add(rolled, TupleAggregates(src, measures))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return agg, nil
}

// groupAgg is the hash aggregation of the maintenance paths
// (materialize, Refresh, Compact): one (sum, count, min, max)
// accumulator per group key. Keys lie back to back in one slab and are
// found through an open-addressing index, so neither a scanned tuple
// nor a new group costs an allocation of its own — these paths
// aggregate whole views while queries run.
type groupAgg struct {
	nd    int
	keys  []int32      // group g's codes are keys[g*nd : (g+1)*nd]
	vals  [][4]float64 // group g's accumulator
	slots []int32      // power-of-two table of group number + 1; 0 is empty
}

// newGroupAgg sizes the table for up to rows input tuples, so that an
// aggregation that keeps most of them never regrows a slab.
func newGroupAgg(nd int, rows int64) *groupAgg {
	slots := 1 << 10
	for int64(slots)*3 < rows*4 {
		slots *= 2
	}
	return &groupAgg{
		nd:    nd,
		keys:  make([]int32, 0, rows*int64(nd)),
		vals:  make([][4]float64, 0, rows),
		slots: make([]int32, slots),
	}
}

// slot returns the index in slots where the group with these codes is,
// or where it would go.
func (g *groupAgg) slot(codes []int32) uint32 {
	h := uint32(2166136261) // FNV-1a over the codes
	for _, c := range codes {
		h = (h ^ uint32(c)) * 16777619
	}
	mask := uint32(len(g.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		n := int(g.slots[i])
		if n == 0 || slices.Equal(g.keys[(n-1)*g.nd:n*g.nd], codes) {
			return i
		}
	}
}

// add folds vals into the group with the given codes.
func (g *groupAgg) add(codes []int32, vals [4]float64) {
	i := g.slot(codes)
	if n := g.slots[i]; n != 0 {
		MergeAggregates(&g.vals[n-1], vals)
		return
	}
	g.keys = append(g.keys, codes...)
	g.vals = append(g.vals, vals)
	g.slots[i] = int32(len(g.vals))
	if len(g.vals)*4 > len(g.slots)*3 {
		g.slots = make([]int32, 2*len(g.slots))
		for n := range g.vals {
			g.slots[g.slot(g.keys[n*g.nd:(n+1)*g.nd])] = int32(n + 1)
		}
	}
}

// appendGroups appends the aggregated groups to heap. Groups are sorted
// for determinism — by their codes as little-endian byte strings, the
// order of the byte keys the operators sort results by — and when
// shuffle is set then permuted with a seeded shuffle, reproducing the
// unclustered storage order of a freshly materialized view (see
// materialize). Sum-only heaps receive the sum component;
// multi-aggregate heaps receive all four.
func appendGroups(heap *table.HeapFile, agg *groupAgg, multi, shuffle bool) error {
	nd := agg.nd
	sorted := make([]int32, len(agg.vals))
	for n := range sorted {
		sorted[n] = int32(n)
	}
	slices.SortFunc(sorted, func(a, b int32) int {
		ka, kb := agg.keys[int(a)*nd:int(a+1)*nd], agg.keys[int(b)*nd:int(b+1)*nd]
		for i := range ka {
			if ka[i] != kb[i] {
				return cmp.Compare(bits.ReverseBytes32(uint32(ka[i])), bits.ReverseBytes32(uint32(kb[i])))
			}
		}
		return 0
	})
	if shuffle {
		rng := rand.New(rand.NewSource(int64(len(sorted))*2654435761 + 1998))
		rng.Shuffle(len(sorted), func(i, j int) { sorted[i], sorted[j] = sorted[j], sorted[i] })
	}
	app := heap.NewAppender()
	var y storage.Yielder
	for _, n := range sorted {
		y.Tick()
		measures := agg.vals[n][:1]
		if multi {
			measures = agg.vals[n][:]
		}
		if err := app.Append(agg.keys[int(n)*nd:int(n+1)*nd], measures); err != nil {
			return err
		}
	}
	return app.Close()
}

// Compact fully re-aggregates a materialized view, merging the duplicate
// group rows left behind by Refresh, and rebuilds its indexes. The
// replacement heap and index files are built under fresh versioned
// names off to the side; the old files are retired, staying readable
// for snapshots pinned before the compaction published, and are
// unlinked once the last such reader drains.
func (db *Database) Compact(v *View) error {
	db.mutMu.Lock()
	defer db.mutMu.Unlock()
	if v.IsBase() {
		return fmt.Errorf("star: cannot compact the base table")
	}
	agg, err := db.aggregate(v, v.Levels, 0)
	if err != nil {
		return err
	}

	// Build the replacement heap under a fresh versioned name and swap
	// the view's pointer; renaming over the live path would hijack the
	// pool registration snapshots still read through.
	newFile := db.nextFileName("view_"+sanitizeName(v.Name), ".heap")
	replacement, err := table.Create(db.Pool, filepath.Join(db.Dir, newFile), v.Heap.Schema())
	if err != nil {
		return err
	}
	if err := appendGroups(replacement, agg, v.MultiAgg(), true); err != nil {
		return err
	}
	oldPath := v.Heap.Path()
	v.Heap = replacement
	v.file = newFile
	db.retireLocked(oldPath)
	if err := db.rebuildIndexesLocked(v); err != nil {
		return err
	}
	db.publishLocked()
	return nil
}

// dropIndexLocked removes dimension dim's bitmap join index from v. The
// index file is retired, not deleted: snapshots published before the
// drop keep probing it until they drain.
func (db *Database) dropIndexLocked(v *View, dim int) error {
	ix := v.Indexes[dim]
	if ix == nil {
		return fmt.Errorf("star: %s has no index on dimension %d", v.Name, dim)
	}
	db.retireLocked(filepath.Join(db.Dir, v.indexFiles[dim]))
	delete(v.Indexes, dim)
	delete(v.indexFiles, dim)
	return nil
}

// rebuildIndexesLocked drops and rebuilds every bitmap join index of v.
// Rebuilt indexes land in fresh
// versioned files; the replaced ones are retired.
func (db *Database) rebuildIndexesLocked(v *View) error {
	dims := make([]int, 0, len(v.Indexes))
	for dim := range v.Indexes {
		dims = append(dims, dim)
	}
	slices.Sort(dims)
	for _, dim := range dims {
		if err := db.dropIndexLocked(v, dim); err != nil {
			return err
		}
		if err := db.buildIndexLocked(v, dim); err != nil {
			return err
		}
	}
	return nil
}
