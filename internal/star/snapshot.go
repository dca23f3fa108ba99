package star

import (
	"mdxopt/internal/bitmap"
	"mdxopt/internal/storage"
	"mdxopt/internal/table"
)

// Snapshot isolation.
//
// A Snapshot is an immutable copy of the catalog — schema, dimension
// tables, view set, bitmap-index set, statistics — published at a
// numbered epoch. Readers evaluate entire query batches against one
// snapshot and never observe a mutation in progress: Materialize,
// Refresh, Compact, index builds and fact loads all mutate the live
// Database off to the side (new heap and index files are created under
// fresh versioned names, replaced ones are retired to the epoch table,
// never deleted in place) and atomically publish a successor snapshot
// when they are consistent. Results are byte-identical per pinned
// epoch.
//
// Two ways to obtain a snapshot:
//
//   - Database.Pin returns the *published* snapshot with its epoch
//     reference-counted against reclamation — the concurrent serving
//     path. The release function must be called when the batch drains.
//   - Database.Snapshot builds a fresh unpinned snapshot of the live
//     state — for single-threaded embedders, tests and benchmarks that
//     interleave mutations and reads without concurrency. It is also
//     how both *Database and *Snapshot satisfy Catalog, so execution
//     environments and estimators accept either.

// Snapshot is an immutable view of the catalog at one epoch. Its heaps
// are frozen (bounded at the row counts current when the snapshot was
// taken), its view and index sets are copies, and all of it is served
// through the same buffer pool as the live database.
type Snapshot struct {
	// Epoch is the snapshot's position in the publish order. Snapshots
	// built by Database.Snapshot carry the epoch of the latest publish
	// they include.
	Epoch     uint64
	Dir       string
	Pool      *storage.Pool
	Schema    *Schema
	DimTables []*table.HeapFile
	Views     []*View // Views[0] is the base fact table
	Stats     *Stats
}

// Catalog is anything a snapshot can be taken of: the live Database
// (which freezes its current state) or a Snapshot itself (which returns
// itself). Execution environments and plan estimators are built from a
// Catalog, so the ~150 existing call sites work unchanged with either.
type Catalog interface {
	Snapshot() *Snapshot
}

// Snapshot returns the snapshot itself, satisfying Catalog.
func (s *Snapshot) Snapshot() *Snapshot { return s }

// Base returns the base fact table view.
func (s *Snapshot) Base() *View { return s.Views[0] }

// ViewByName returns the named view, or nil.
func (s *Snapshot) ViewByName(name string) *View {
	for _, v := range s.Views {
		if v.Name == name {
			return v
		}
	}
	return nil
}

// ViewByLevels returns the view with exactly the given level vector, or
// nil.
func (s *Snapshot) ViewByLevels(levels []int) *View {
	for _, v := range s.Views {
		if equalLevels(v.Levels, levels) {
			return v
		}
	}
	return nil
}

// Fresh reports whether the view reflects every row of the snapshot's
// base table. The base view is always fresh.
func (s *Snapshot) Fresh(v *View) bool {
	if v.IsBase() {
		return true
	}
	return v.refreshedRows == s.Base().Rows()
}

// ColdReset drops all cached pages and in-memory index bitmaps,
// reproducing the paper's cold-cache discipline between measurements.
func (s *Snapshot) ColdReset() error {
	for _, v := range s.Views {
		for _, ix := range v.Indexes {
			ix.DropCache()
		}
	}
	return s.Pool.FlushAll()
}

// IsBase reports whether the view is the base fact table (every level
// at the base). The check is structural, not pointer identity, so it
// holds across snapshot clones of the same view.
func (v *View) IsBase() bool {
	for _, l := range v.Levels {
		if l != 0 {
			return false
		}
	}
	return true
}

// freeze returns an immutable copy of the view for a snapshot: the heap
// bounded at its current row count, the index and file maps copied.
func (v *View) freeze() *View {
	ix := make(map[int]*bitmap.Index, len(v.Indexes))
	for d, i := range v.Indexes {
		ix[d] = i
	}
	files := make(map[int]string, len(v.indexFiles))
	for d, f := range v.indexFiles {
		files[d] = f
	}
	lv := make([]int, len(v.Levels))
	copy(lv, v.Levels)
	return &View{
		Name:          v.Name,
		Levels:        lv,
		Heap:          v.Heap.Freeze(),
		Indexes:       ix,
		file:          v.file,
		indexFiles:    files,
		refreshedRows: v.refreshedRows,
	}
}
