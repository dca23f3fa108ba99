// Package datagen builds the synthetic test database of the paper's §7:
// a four-dimensional star schema with three-level hierarchies on A, B, C
// and D, 20-byte fact tuples, a configurable row count, the paper's set
// of materialized group-bys (Table 1), and bitmap join indexes on the A,
// B and C columns of the A'B'C'D group-by.
//
// The generator is deterministic for a given Spec.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"mdxopt/internal/star"
)

// Spec describes the database to generate.
type Spec struct {
	// Rows is the base fact table size. The paper uses 2,000,000.
	Rows int
	// Entities, when > 0, makes the cube sparse: the generator first
	// samples this many distinct dimension-code combinations (the
	// "entity pool") and then draws the fact rows from the pool. This
	// reproduces the defining property of the paper's Table 1: every
	// materialized group-by stays within a small factor of the base
	// table's size (0.7–2 M), because aggregation only collapses the
	// pool's image, not the full combinatorial space. 0 = dense
	// (independent uniform codes per row).
	Entities int
	// Seed drives the deterministic random generator.
	Seed int64
	// Cards[i] are the per-level cardinalities of dimension i, base
	// level first.
	Cards [][]int
	// DimNames are the dimension names (default A, B, C, D).
	DimNames []string
	// Measure is the measure column name (default "dollars").
	Measure string
	// Views are the level vectors to materialize beyond the base table.
	Views [][]int
	// IndexView / IndexDims place bitmap join indexes on the given
	// dimensions of the view with the given level vector.
	IndexView []int
	IndexDims []int
	// PoolFrames sizes the buffer pool (default 2048 pages = 16 MiB,
	// matching the paper's configuration).
	PoolFrames int
	// Zipf, when > 0, skews fact codes with a Zipf(s=Zipf) distribution
	// instead of uniform. 0 = uniform (the default).
	Zipf float64
}

// PaperSpec returns the Spec reproducing the paper's test database at
// the given scale. scale = 1.0 is the full 2 M-row database; smaller
// scales shrink the row count, the mid-level cardinalities of A, B, C
// (as cbrt(scale)) and the base cardinality of the date-like D dimension
// (linearly), so that the materialized-view size *ratios* of Table 1 are
// approximately preserved: every view stays within a small factor of the
// base table (paper: 0.7–2 M of a 2 M base).
func PaperSpec(scale float64) Spec {
	if scale <= 0 {
		scale = 1
	}
	rows := int(2_000_000 * scale)
	if rows < 1000 {
		rows = 1000
	}
	f := math.Cbrt(scale)
	mid := int(math.Round(60 * f))
	mid -= mid % 3 // keep divisible by the 3 top-level members
	if mid < 6 {
		mid = 6
	}
	base := 10 * mid
	// D is date-like: a large base cardinality under a 4-member D'
	// level. Sized so the fully top-level view A''B''C''D keeps ~30% of
	// the base table's rows, as in Table 1.
	d0 := rows / 77
	d0 -= d0 % 4
	if d0 < 8 {
		d0 = 8
	}
	abcCards := []int{base, mid, 3}
	dCards := []int{d0, 4, 2}
	return Spec{
		Rows:     rows,
		Entities: rows * 5 / 8, // sparse cube: 1.25 M entities at full scale
		Seed:     1998,
		Cards:    [][]int{abcCards, abcCards, abcCards, dCards},
		DimNames: []string{"A", "B", "C", "D"},
		Measure:  "dollars",
		Views: [][]int{
			{1, 1, 1, 0}, // A'B'C'D
			{1, 1, 2, 0}, // A'B'C''D
			{1, 2, 1, 0}, // A'B''C'D
			{2, 1, 1, 0}, // A''B'C'D
			{1, 2, 2, 0}, // A'B''C''D
			{2, 1, 2, 0}, // A''B'C''D
			{2, 2, 1, 0}, // A''B''C'D
			{2, 2, 2, 0}, // A''B''C''D
		},
		IndexView:  []int{1, 1, 1, 0}, // indexes on A'B'C'D ...
		IndexDims:  []int{0, 1, 2},    // ... columns A', B', C'
		PoolFrames: 2048,
	}
}

// BuildSchema constructs the star schema described by spec.
func BuildSchema(spec Spec) (*star.Schema, error) {
	names := spec.DimNames
	if names == nil {
		names = defaultNames(len(spec.Cards))
	}
	if len(names) != len(spec.Cards) {
		return nil, fmt.Errorf("datagen: %d dim names for %d card vectors", len(names), len(spec.Cards))
	}
	measure := spec.Measure
	if measure == "" {
		measure = "dollars"
	}
	dims := make([]*star.Dimension, len(spec.Cards))
	for i, cards := range spec.Cards {
		d, err := star.UniformDimension(names[i], cards)
		if err != nil {
			return nil, err
		}
		dims[i] = d
	}
	return star.NewSchema(dims, measure)
}

func defaultNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	return names
}

// Build generates the database in dir according to spec and saves it.
func Build(dir string, spec Spec) (*star.Database, error) {
	schema, err := BuildSchema(spec)
	if err != nil {
		return nil, err
	}
	frames := spec.PoolFrames
	if frames <= 0 {
		frames = 2048
	}
	db, err := star.Create(dir, schema, frames)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(spec.Seed))
	draw := make([]func() int32, schema.NumDims())
	for i, d := range schema.Dims {
		card := int64(d.Card(0))
		if spec.Zipf > 1 {
			z := rand.NewZipf(rng, spec.Zipf, 1, uint64(card-1))
			draw[i] = func() int32 { return int32(z.Uint64()) }
		} else {
			draw[i] = func() int32 { return int32(rng.Int63n(card)) }
		}
	}

	// Sparse cube: pre-draw the entity pool and sample rows from it.
	var pool [][]int32
	if spec.Entities > 0 {
		pool = make([][]int32, spec.Entities)
		for e := range pool {
			combo := make([]int32, schema.NumDims())
			for i := range combo {
				combo[i] = draw[i]()
			}
			pool[e] = combo
		}
	}

	app := db.Base().Heap.NewAppender()
	keys := make([]int32, schema.NumDims())
	for r := 0; r < spec.Rows; r++ {
		if pool != nil {
			copy(keys, pool[rng.Intn(len(pool))])
		} else {
			for i := range keys {
				keys[i] = draw[i]()
			}
		}
		// Whole-dollar measures keep float64 sums exact regardless of
		// aggregation order, so every evaluation strategy produces
		// bit-identical results.
		if err := app.Append(keys, []float64{float64(rng.Intn(10000))}); err != nil {
			return nil, err
		}
	}
	if err := app.Close(); err != nil {
		return nil, err
	}

	for _, levels := range spec.Views {
		if _, err := db.Materialize(levels); err != nil {
			return nil, fmt.Errorf("datagen: materialize %v: %w", levels, err)
		}
	}

	if spec.IndexView != nil {
		v := db.ViewByLevels(spec.IndexView)
		if v == nil {
			return nil, fmt.Errorf("datagen: index view %v not materialized", spec.IndexView)
		}
		for _, dim := range spec.IndexDims {
			if err := db.BuildIndex(v, dim); err != nil {
				return nil, err
			}
		}
	}
	if err := db.RefreshStats(); err != nil {
		return nil, err
	}
	if err := db.Save(); err != nil {
		return nil, err
	}
	return db, nil
}
