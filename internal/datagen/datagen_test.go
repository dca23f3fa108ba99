package datagen

import (
	"path/filepath"
	"testing"

	"mdxopt/internal/star"
)

func TestPaperSpecShape(t *testing.T) {
	full := PaperSpec(1.0)
	if full.Rows != 2_000_000 {
		t.Fatalf("full-scale rows = %d", full.Rows)
	}
	if full.Cards[0][0] != 600 || full.Cards[0][1] != 60 || full.Cards[0][2] != 3 {
		t.Fatalf("full-scale A cards = %v", full.Cards[0])
	}
	small := PaperSpec(0.01)
	if small.Rows != 20_000 {
		t.Fatalf("1%% rows = %d", small.Rows)
	}
	if small.Cards[0][1]%3 != 0 {
		t.Fatalf("mid card %d not divisible by 3", small.Cards[0][1])
	}
	if small.Cards[0][0] != 10*small.Cards[0][1] {
		t.Fatalf("base card %d != 10x mid", small.Cards[0][0])
	}
	if len(full.Views) != 8 {
		t.Fatalf("paper spec has %d views, want 8", len(full.Views))
	}
	if full.Cards[3][0]%4 != 0 || full.Cards[3][0] < 8 {
		t.Fatalf("D base card = %d, want a multiple of 4 >= 8", full.Cards[3][0])
	}
	if full.Entities <= 0 || full.Entities >= full.Rows {
		t.Fatalf("entities = %d, want in (0, rows)", full.Entities)
	}
}

func TestBuildIsDeterministic(t *testing.T) {
	spec := PaperSpec(0.001)
	spec.PoolFrames = 64
	db1, err := Build(filepath.Join(t.TempDir(), "a"), spec)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Build(filepath.Join(t.TempDir(), "b"), spec)
	if err != nil {
		t.Fatal(err)
	}
	if db1.Base().Rows() != db2.Base().Rows() {
		t.Fatal("row counts differ")
	}
	var sum1, sum2 float64
	db1.Base().Heap.Scan(func(_ int64, _ []int32, ms []float64) error { sum1 += ms[0]; return nil })
	db2.Base().Heap.Scan(func(_ int64, _ []int32, ms []float64) error { sum2 += ms[0]; return nil })
	if sum1 != sum2 {
		t.Fatalf("measure sums differ: %v vs %v", sum1, sum2)
	}
}

func TestBuildMaterializesAndIndexes(t *testing.T) {
	spec := PaperSpec(0.002)
	spec.PoolFrames = 128
	db, err := Build(filepath.Join(t.TempDir(), "db"), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Views) != 9 { // base + 8
		t.Fatalf("views = %d, want 9", len(db.Views))
	}
	v := db.ViewByLevels([]int{1, 1, 1, 0})
	if v == nil {
		t.Fatal("A'B'C'D missing")
	}
	for _, dim := range []int{0, 1, 2} {
		if !v.HasIndex(dim) {
			t.Fatalf("A'B'C'D missing index on dim %d", dim)
		}
	}
	if v.HasIndex(3) {
		t.Fatal("unexpected index on D")
	}
	// Views must be smaller than (or equal to) the base table and
	// coarser views no bigger than finer ones they derive from.
	for _, view := range db.Views[1:] {
		if view.Rows() > db.Base().Rows() {
			t.Fatalf("%s has %d rows > base %d", view.Name, view.Rows(), db.Base().Rows())
		}
		if view.Rows() == 0 {
			t.Fatalf("%s is empty", view.Name)
		}
		for _, other := range db.Views {
			if star.Derives(other.Levels, view.Levels) && other.Rows() < view.Rows() && !star.Derives(view.Levels, other.Levels) {
				// finer views may be larger; that's expected. Nothing to
				// assert here beyond derivability consistency.
				_ = other
			}
		}
	}
}

func TestBuildViewSumsMatchBase(t *testing.T) {
	spec := PaperSpec(0.001)
	spec.PoolFrames = 64
	db, err := Build(filepath.Join(t.TempDir(), "db"), spec)
	if err != nil {
		t.Fatal(err)
	}
	var baseSum float64
	db.Base().Heap.Scan(func(_ int64, _ []int32, ms []float64) error { baseSum += ms[0]; return nil })
	for _, v := range db.Views[1:] {
		var sum float64
		v.Heap.Scan(func(_ int64, _ []int32, ms []float64) error { sum += ms[0]; return nil })
		if sum != baseSum {
			t.Fatalf("%s measure sum %v != base %v", v.Name, sum, baseSum)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	spec := PaperSpec(0.001)
	spec.Views = nil
	spec.IndexView = nil
	spec.Zipf = 1.5
	spec.PoolFrames = 64
	db, err := Build(filepath.Join(t.TempDir(), "db"), spec)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int32]int{}
	db.Base().Heap.Scan(func(_ int64, keys []int32, _ []float64) error {
		counts[keys[0]]++
		return nil
	})
	// Under Zipf, code 0 must be far more frequent than the uniform
	// expectation.
	uniform := int(db.Base().Rows()) / int(db.Schema.Dims[0].Card(0))
	if counts[0] < 5*uniform {
		t.Fatalf("zipf skew absent: code0 count %d, uniform %d", counts[0], uniform)
	}
}

func TestBuildSchemaValidation(t *testing.T) {
	spec := PaperSpec(0.001)
	spec.DimNames = []string{"A"}
	if _, err := BuildSchema(spec); err == nil {
		t.Fatal("BuildSchema accepted mismatched dim names")
	}
	bad := PaperSpec(0.001)
	bad.IndexView = []int{2, 2, 2, 2} // not materialized
	if _, err := Build(filepath.Join(t.TempDir(), "db"), bad); err == nil {
		t.Fatal("Build accepted an index on a missing view")
	}
}

func TestBuildErrorPaths(t *testing.T) {
	// Non-divisible hierarchy cards.
	bad := PaperSpec(0.001)
	bad.Cards = [][]int{{10, 3}, {8, 4}, {8, 4}, {8, 4}}
	if _, err := Build(filepath.Join(t.TempDir(), "a"), bad); err == nil {
		t.Fatal("Build accepted non-divisible cards")
	}
	// Materializing the same view twice.
	dup := PaperSpec(0.001)
	dup.Views = [][]int{{1, 1, 1, 0}, {1, 1, 1, 0}}
	if _, err := Build(filepath.Join(t.TempDir(), "b"), dup); err == nil {
		t.Fatal("Build accepted duplicate views")
	}
	// Index dims out of range.
	badIdx := PaperSpec(0.001)
	badIdx.IndexDims = []int{9}
	if _, err := Build(filepath.Join(t.TempDir(), "c"), badIdx); err == nil {
		t.Fatal("Build accepted bad index dim")
	}
	// Existing directory.
	dir := filepath.Join(t.TempDir(), "d")
	spec := PaperSpec(0.001)
	spec.Views = nil
	spec.IndexView = nil
	db, err := Build(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := Build(dir, spec); err == nil {
		t.Fatal("Build overwrote an existing database")
	}
}
