package star

import (
	"fmt"
	"slices"
)

// Stats holds per-dimension member frequencies measured on the base fact
// table: Counts[dim][level][code] is the number of base rows whose
// dimension-dim code rolls up to code at the given level.
//
// The optimizer's selectivity estimates default to the uniform
// assumption (|members| / card); with Stats available it can use the
// real frequencies instead, which matters under skew (see the
// statistics ablation).
type Stats struct {
	Counts [][][]int64
	Rows   int64
}

// ComputeStats scans the base fact table once and builds frequency
// counts for every dimension at every level.
func (db *Database) ComputeStats() (*Stats, error) {
	return db.countRows(nil)
}

// countRows returns a copy of st — zero counts when st is nil — with the
// base rows from row st.Rows on counted in. The base table only grows,
// so st's counts cover exactly the rows before st.Rows.
func (db *Database) countRows(st *Stats) (*Stats, error) {
	schema := db.Schema
	out := &Stats{Counts: make([][][]int64, schema.NumDims())}
	for i, d := range schema.Dims {
		out.Counts[i] = make([][]int64, d.NumLevels())
		for l := range out.Counts[i] {
			if st != nil {
				out.Counts[i][l] = slices.Clone(st.Counts[i][l])
			} else {
				out.Counts[i][l] = make([]int64, d.Card(l))
			}
		}
	}
	if st != nil {
		out.Rows = st.Rows
	}
	base := db.Base()
	err := base.Heap.ScanRange(out.Rows, base.Rows(), func(row int64, keys []int32, measures []float64) error {
		out.Rows++
		for i, d := range schema.Dims {
			code := keys[i]
			for l := 0; l < d.NumLevels(); l++ {
				out.Counts[i][l][code]++
				if l+1 < d.NumLevels() {
					code = d.Levels[l].Parent[code]
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// statsFromBase rebuilds the per-level counts from persisted base-level
// counts (upper levels are derivable through the hierarchy).
func statsFromBase(schema *Schema, base [][]int64, rows int64) (*Stats, error) {
	if len(base) != schema.NumDims() {
		return nil, fmt.Errorf("star: stats cover %d dimensions, schema has %d", len(base), schema.NumDims())
	}
	st := &Stats{Counts: make([][][]int64, schema.NumDims()), Rows: rows}
	for i, d := range schema.Dims {
		if int32(len(base[i])) != d.Card(0) {
			return nil, fmt.Errorf("star: stats for %s cover %d members, level has %d",
				d.Name, len(base[i]), d.Card(0))
		}
		st.Counts[i] = make([][]int64, d.NumLevels())
		st.Counts[i][0] = base[i]
		for l := 1; l < d.NumLevels(); l++ {
			st.Counts[i][l] = make([]int64, d.Card(l))
			for c, n := range st.Counts[i][l-1] {
				st.Counts[i][l][d.Levels[l-1].Parent[c]] += n
			}
		}
	}
	return st, nil
}

// Frac returns the fraction of base rows whose dimension-dim member at
// the given level falls in members. A nil member set is unrestricted
// (fraction 1); the ALL level is always 1.
func (s *Stats) Frac(d *Dimension, dim, level int, members []int32) float64 {
	if s == nil || members == nil || s.Rows == 0 || level >= d.NumLevels() {
		return 1
	}
	var n int64
	for _, m := range members {
		n += s.Counts[dim][level][m]
	}
	return float64(n) / float64(s.Rows)
}

// RefreshStats brings the base-table statistics up to date (computing
// them when there are none), publishing a successor snapshot; Save
// persists them.
func (db *Database) RefreshStats() error {
	db.mutMu.Lock()
	defer db.mutMu.Unlock()
	if err := db.refreshStatsLocked(); err != nil {
		return err
	}
	db.publishLocked()
	return nil
}

// refreshStatsLocked counts the base rows the current statistics have
// not seen into a copy of them — all rows when there are none yet.
// Snapshots hold the old pointer, so it is never mutated in place.
// Callers hold mutMu.
func (db *Database) refreshStatsLocked() error {
	st, err := db.countRows(db.Stats)
	if err != nil {
		return err
	}
	db.Stats = st
	return nil
}
