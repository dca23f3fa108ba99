package star

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// testSchema builds a small 3-dim schema (plus tests use dim D sometimes).
func smallSchema(t *testing.T) *Schema {
	t.Helper()
	a, err := UniformDimension("A", []int{24, 6, 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := UniformDimension("B", []int{12, 6, 3})
	if err != nil {
		t.Fatal(err)
	}
	c, err := UniformDimension("C", []int{8, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSchema([]*Dimension{a, b, c}, "sales")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// buildDB creates a database with n random facts.
func buildDB(t *testing.T, n int) *Database {
	t.Helper()
	schema := smallSchema(t)
	db, err := Create(filepath.Join(t.TempDir(), "db"), schema, 64)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	app := db.Base().Heap.NewAppender()
	for i := 0; i < n; i++ {
		keys := []int32{
			int32(rng.Intn(24)),
			int32(rng.Intn(12)),
			int32(rng.Intn(8)),
		}
		if err := app.Append(keys, []float64{float64(rng.Intn(100))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSchemaBasics(t *testing.T) {
	s := smallSchema(t)
	if s.NumDims() != 3 {
		t.Fatalf("NumDims = %d", s.NumDims())
	}
	if s.DimIndex("B") != 1 || s.DimIndex("Z") != -1 {
		t.Fatal("DimIndex wrong")
	}
	if err := s.ValidLevels([]int{0, 0, 0}); err != nil {
		t.Fatalf("ValidLevels base: %v", err)
	}
	if err := s.ValidLevels([]int{0, 0}); err == nil {
		t.Fatal("ValidLevels accepted short vector")
	}
	if err := s.ValidLevels([]int{0, 0, 9}); err == nil {
		t.Fatal("ValidLevels accepted out-of-range level")
	}
	if got := s.GroupByName([]int{1, 2, 0}); got != "A'B''C" {
		t.Fatalf("GroupByName = %q", got)
	}
	if got := s.GroupByName([]int{1, 2, 3}); got != "A'B''(C:ALL)" {
		t.Fatalf("GroupByName with ALL = %q", got)
	}
	if s.RowWidthBytes() != 3*4+8 {
		t.Fatalf("RowWidthBytes = %d", s.RowWidthBytes())
	}
}

func TestDerives(t *testing.T) {
	cases := []struct {
		src, dst []int
		want     bool
	}{
		{[]int{0, 0, 0}, []int{2, 2, 2}, true},
		{[]int{1, 1, 0}, []int{1, 2, 0}, true},
		{[]int{1, 1, 1}, []int{0, 2, 2}, false},
		{[]int{0, 0}, []int{0, 0, 0}, false},
		{[]int{2, 2, 2}, []int{2, 2, 2}, true},
	}
	for _, c := range cases {
		if got := Derives(c.src, c.dst); got != c.want {
			t.Errorf("Derives(%v,%v) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
}

func TestMaterializeCorrectness(t *testing.T) {
	db := buildDB(t, 5000)
	v, err := db.Materialize([]int{1, 2, 0})
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if v.Name != "A'B''C" {
		t.Fatalf("view name = %q", v.Name)
	}

	// Oracle: aggregate the base table directly.
	want := map[[3]int32]float64{}
	err = db.Base().Heap.Scan(func(row int64, keys []int32, ms []float64) error {
		k := [3]int32{
			db.Schema.Dims[0].RollUp(keys[0], 0, 1),
			db.Schema.Dims[1].RollUp(keys[1], 0, 2),
			keys[2],
		}
		want[k] += ms[0]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[[3]int32]float64{}
	err = v.Heap.Scan(func(row int64, keys []int32, ms []float64) error {
		got[[3]int32{keys[0], keys[1], keys[2]}] = ms[0]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("view has %d groups, oracle has %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("group %v = %v, want %v", k, got[k], w)
		}
	}
}

func TestMaterializeUsesCheapestSource(t *testing.T) {
	db := buildDB(t, 3000)
	mid, err := db.Materialize([]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Materializing a coarser view must pick the mid view, not base.
	src := db.cheapestSource([]int{2, 2, 2}, false)
	if src != mid {
		t.Fatalf("cheapestSource picked %s, want %s", src.Name, mid.Name)
	}
	top, err := db.Materialize([]int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if top.Rows() > mid.Rows() {
		t.Fatalf("coarser view has more rows (%d) than finer (%d)", top.Rows(), mid.Rows())
	}
}

func TestMaterializeDuplicateRejected(t *testing.T) {
	db := buildDB(t, 100)
	if _, err := db.Materialize([]int{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize([]int{1, 1, 1}); err == nil {
		t.Fatal("duplicate Materialize succeeded")
	}
}

func TestDatabaseSaveOpenRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	schema := smallSchema(t)
	db, err := Create(dir, schema, 64)
	if err != nil {
		t.Fatal(err)
	}
	app := db.Base().Heap.NewAppender()
	for i := 0; i < 500; i++ {
		app.Append([]int32{int32(i % 24), int32(i % 12), int32(i % 8)}, []float64{1})
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize([]int{1, 1, 0}); err != nil {
		t.Fatal(err)
	}
	v := db.ViewByLevels([]int{1, 1, 0})
	if err := db.BuildIndex(v, 0); err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2, err := Open(dir, 64)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db2.Close()
	if db2.Base().Rows() != 500 {
		t.Fatalf("base rows = %d", db2.Base().Rows())
	}
	v2 := db2.ViewByName("A'B'C")
	if v2 == nil {
		t.Fatal("materialized view missing after reopen")
	}
	if v2.Rows() != v.Rows() {
		t.Fatalf("view rows = %d, want %d", v2.Rows(), v.Rows())
	}
	if !v2.HasIndex(0) {
		t.Fatal("index missing after reopen")
	}
	bs, ok, err := v2.Indexes[0].Lookup(0)
	if err != nil || !ok {
		t.Fatalf("index lookup after reopen: ok=%v err=%v", ok, err)
	}
	if bs.Count() == 0 {
		t.Fatal("index bitmap empty after reopen")
	}
	// Dimension metadata survived.
	if db2.Schema.Dims[0].MemberName(2, 0) != "A1" {
		t.Fatal("dimension names lost")
	}
	// Dimension tables survived.
	if db2.DimTables[0].Count() != 24 {
		t.Fatalf("dim table rows = %d", db2.DimTables[0].Count())
	}
}

func TestDimensionTablesContents(t *testing.T) {
	db := buildDB(t, 10)
	d := db.Schema.Dims[0]
	var rows int64
	err := db.DimTables[0].Scan(func(row int64, keys []int32, ms []float64) error {
		rows++
		base := keys[0]
		if keys[1] != d.RollUp(base, 0, 1) || keys[2] != d.RollUp(base, 0, 2) {
			t.Fatalf("dim table row %d codes %v inconsistent with hierarchy", row, keys)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 24 {
		t.Fatalf("dim table rows = %d, want 24", rows)
	}
}

func TestBuildIndexValidation(t *testing.T) {
	db := buildDB(t, 50)
	if err := db.BuildIndex(db.Base(), 9); err == nil {
		t.Fatal("BuildIndex accepted bad dimension")
	}
	if err := db.BuildIndex(db.Base(), 1); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(db.Base(), 1); err == nil {
		t.Fatal("duplicate BuildIndex succeeded")
	}
}

func TestColdResetDropsCaches(t *testing.T) {
	db := buildDB(t, 2000)
	if err := db.BuildIndex(db.Base(), 0); err != nil {
		t.Fatal(err)
	}
	ix := db.Base().Indexes[0]
	if _, _, err := ix.Lookup(3); err != nil {
		t.Fatal(err)
	}
	if err := db.ColdReset(); err != nil {
		t.Fatal(err)
	}
	db.Pool.ResetStats()
	if _, _, err := ix.Lookup(3); err != nil {
		t.Fatal(err)
	}
	if db.Pool.Stats().Reads() == 0 {
		t.Fatal("lookup after ColdReset did not hit disk")
	}
}

func TestCreateExistingDatabaseFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	schema := smallSchema(t)
	db, err := Create(dir, schema, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, schema, 16); err == nil {
		t.Fatal("Create over existing database succeeded")
	}
}

func TestOpenMissingDatabase(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope"), 16); err == nil {
		t.Fatal("Open of missing database succeeded")
	}
}

func TestOpenRejectsCorruptManifest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Create(dir, smallSchema(t), 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	metaPath := filepath.Join(dir, "meta.json")
	if err := os.WriteFile(metaPath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 16); err == nil {
		t.Fatal("Open accepted a corrupt manifest")
	}
	// Manifest pointing at a missing file.
	if err := os.WriteFile(metaPath, []byte(`{"measure":"m","dims":[{"name":"X","levels":[{"Name":"x","Members":["a"]}]}],"dim_tables":["missing.heap"],"views":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 16); err == nil {
		t.Fatal("Open accepted a manifest with missing files")
	}
}

func TestOpenRejectsTruncatedHeap(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Create(dir, smallSchema(t), 16)
	if err != nil {
		t.Fatal(err)
	}
	appendFacts(t, db, 50, 0)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Truncate the base heap to a non-page-aligned size.
	viewFile := filepath.Join(dir, "view_ABC.heap")
	if err := os.Truncate(viewFile, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 16); err == nil {
		t.Fatal("Open accepted a truncated heap file")
	}
}

func TestOpenRejectsCorruptIndexHeader(t *testing.T) {
	db := buildDB(t, 200)
	dir := db.Dir
	if err := db.BuildIndex(db.Base(), 0); err != nil {
		t.Fatal(err)
	}
	ixPath := filepath.Join(dir, db.Base().indexFiles[0])
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// A value count far beyond what the directory page holds.
	f, err := os.OpenFile(ixPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var count [4]byte
	binary.LittleEndian.PutUint32(count[:], 5000)
	if _, err := f.WriteAt(count[:], 16); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 16); err == nil {
		t.Fatal("Open accepted a database with a corrupt index header")
	}
}
