package star

import (
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mdxopt/internal/storage"
	"mdxopt/internal/table"
)

// appendFacts adds n more deterministic facts to the base table.
func appendFacts(t *testing.T, db *Database, n, salt int) {
	t.Helper()
	app := db.Base().Heap.NewAppender()
	for i := 0; i < n; i++ {
		keys := []int32{
			int32((i*7 + salt) % 24),
			int32((i*5 + salt) % 12),
			int32((i*3 + salt) % 8),
		}
		if err := app.Append(keys, []float64{float64(i%13 + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
}

// viewAggregate sums a view's groups into a map (merging duplicates).
func viewAggregate(t *testing.T, v *View) map[[3]int32]float64 {
	t.Helper()
	out := map[[3]int32]float64{}
	err := v.Heap.Scan(func(row int64, keys []int32, ms []float64) error {
		out[[3]int32{keys[0], keys[1], keys[2]}] += ms[0]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// baseOracle aggregates the base table at the view's levels.
func baseOracle(t *testing.T, db *Database, levels []int) map[[3]int32]float64 {
	t.Helper()
	out := map[[3]int32]float64{}
	err := db.Base().Heap.Scan(func(row int64, keys []int32, ms []float64) error {
		var k [3]int32
		for i := 0; i < 3; i++ {
			k[i] = db.Schema.Dims[i].RollUp(keys[i], 0, levels[i])
		}
		out[k] += ms[0]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func equalAgg(a, b map[[3]int32]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestRefreshFoldsDelta(t *testing.T) {
	db := buildDB(t, 2000)
	levels := []int{1, 1, 0}
	v, err := db.Materialize(levels)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(v, 0); err != nil {
		t.Fatal(err)
	}
	if !db.Fresh(v) {
		t.Fatal("fresh view reported stale")
	}

	appendFacts(t, db, 500, 3)
	if db.Fresh(v) {
		t.Fatal("stale view reported fresh")
	}
	if sv := db.StaleViews(); len(sv) != 1 || sv[0] != v {
		t.Fatalf("StaleViews = %v", sv)
	}

	rowsBefore := v.Rows()
	if err := db.Refresh(); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if !db.Fresh(v) {
		t.Fatal("view still stale after Refresh")
	}
	if v.Rows() <= rowsBefore {
		t.Fatal("Refresh appended no delta groups")
	}
	if !equalAgg(viewAggregate(t, v), baseOracle(t, db, levels)) {
		t.Fatal("refreshed view aggregate does not match base")
	}

	// The rebuilt index covers the appended rows.
	ix := v.Indexes[0]
	if ix.NBits() != v.Rows() {
		t.Fatalf("index covers %d rows, view has %d", ix.NBits(), v.Rows())
	}
	var viaIndex float64
	for _, code := range ix.Values() {
		bs, ok, err := ix.Lookup(code)
		if err != nil || !ok {
			t.Fatal(err)
		}
		keys := make([]int32, 3)
		ms := make([]float64, 1)
		bs.ForEach(func(row int64) {
			if err := v.Heap.FetchRow(row, keys, ms); err != nil {
				t.Fatal(err)
			}
			if keys[0] != code {
				t.Fatalf("index row %d has code %d, want %d", row, keys[0], code)
			}
			viaIndex += ms[0]
		})
	}
	var total float64
	for _, x := range viewAggregate(t, v) {
		total += x
	}
	if viaIndex != total {
		t.Fatalf("index-driven sum %v != view total %v", viaIndex, total)
	}
}

func TestRefreshIsIdempotent(t *testing.T) {
	db := buildDB(t, 500)
	v, err := db.Materialize([]int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := v.Rows()
	if err := db.Refresh(); err != nil {
		t.Fatal(err)
	}
	if v.Rows() != rows {
		t.Fatal("Refresh of a fresh view changed it")
	}
}

func TestCompactMergesDuplicates(t *testing.T) {
	db := buildDB(t, 1000)
	levels := []int{2, 2, 1}
	v, err := db.Materialize(levels)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(v, 1); err != nil {
		t.Fatal(err)
	}
	// Two refresh rounds leave duplicate group rows.
	appendFacts(t, db, 300, 5)
	if err := db.Refresh(); err != nil {
		t.Fatal(err)
	}
	appendFacts(t, db, 300, 11)
	if err := db.Refresh(); err != nil {
		t.Fatal(err)
	}
	oracle := baseOracle(t, db, levels)
	if v.Rows() <= int64(len(oracle)) {
		t.Fatalf("expected duplicate groups before compact: %d rows for %d groups",
			v.Rows(), len(oracle))
	}

	if err := db.Compact(v); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if v.Rows() != int64(len(oracle)) {
		t.Fatalf("compacted rows = %d, want %d", v.Rows(), len(oracle))
	}
	if !equalAgg(viewAggregate(t, v), oracle) {
		t.Fatal("compacted view aggregate wrong")
	}
	if v.Indexes[1].NBits() != v.Rows() {
		t.Fatal("index not rebuilt after compact")
	}
	if err := db.Compact(db.Base()); err == nil {
		t.Fatal("Compact accepted the base table")
	}
}

func TestMaintenanceSurvivesReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	schema := smallSchema(t)
	db, err := Create(dir, schema, 64)
	if err != nil {
		t.Fatal(err)
	}
	appendFacts(t, db, 400, 0)
	v, err := db.Materialize([]int{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	appendFacts(t, db, 100, 9)
	_ = v
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	v2 := db2.Views[1]
	if db2.Fresh(v2) {
		t.Fatal("staleness lost across reopen")
	}
	if err := db2.Refresh(); err != nil {
		t.Fatal(err)
	}
	if !equalAgg(viewAggregate(t, v2), baseOracle(t, db2, v2.Levels)) {
		t.Fatal("refresh after reopen wrong")
	}
}

func TestMaterializeSkipsStaleSource(t *testing.T) {
	db := buildDB(t, 800)
	mid, err := db.Materialize([]int{1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	appendFacts(t, db, 200, 7) // mid is now stale
	top, err := db.Materialize([]int{2, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	// The new view must have been computed from the base table (the only
	// fresh source), so it includes the late facts.
	if !equalAgg(viewAggregate(t, top), baseOracle(t, db, top.Levels)) {
		t.Fatal("Materialize used a stale source")
	}
	_ = mid
}

func TestOpenPreMaintenanceManifestLoadsFresh(t *testing.T) {
	// Manifests written before view maintenance existed lack the
	// refreshed_rows field; such views must load as fresh, not stale.
	dir := filepath.Join(t.TempDir(), "db")
	schema := smallSchema(t)
	db, err := Create(dir, schema, 64)
	if err != nil {
		t.Fatal(err)
	}
	appendFacts(t, db, 200, 0)
	if _, err := db.Materialize([]int{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Strip the refreshed_rows fields from the manifest, simulating an
	// old database.
	metaPath := filepath.Join(dir, "meta.json")
	blob, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]any
	if err := json.Unmarshal(blob, &meta); err != nil {
		t.Fatal(err)
	}
	for _, v := range meta["views"].([]any) {
		delete(v.(map[string]any), "refreshed_rows")
	}
	blob, err = json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if stale := db2.StaleViews(); len(stale) != 0 {
		t.Fatalf("pre-maintenance views loaded stale: %v", stale)
	}
}

// TestGroupAggMatchesMap holds the maintenance aggregation to a map
// keyed by the little-endian byte key: the same groups, the same
// accumulators, appended in that key's sort order (codes above 255,
// where byte order and numeric order part) — with a handful of
// allocations for the slabs, not one per tuple or group.
func TestGroupAggMatchesMap(t *testing.T) {
	const nd, tuples = 3, 20000
	rng := rand.New(rand.NewSource(11))
	codes := make([][]int32, tuples)
	for i := range codes {
		codes[i] = []int32{int32(rng.Intn(700)), int32(rng.Intn(3)), int32(rng.Intn(300))}
	}
	want := map[string][4]float64{}
	for i, c := range codes {
		key := make([]byte, 0, 4*nd)
		for _, x := range c {
			key = binary.LittleEndian.AppendUint32(key, uint32(x))
		}
		v := float64(i % 13)
		cur, ok := want[string(key)]
		if !ok {
			cur = [4]float64{0, 0, v, v}
		}
		MergeAggregates(&cur, [4]float64{v, 1, v, v})
		want[string(key)] = cur
	}
	var agg *groupAgg
	allocs := testing.AllocsPerRun(3, func() {
		agg = newGroupAgg(nd, 64) // far too small: the slabs regrow
		for i, c := range codes {
			v := float64(i % 13)
			agg.add(c, [4]float64{v, 1, v, v})
		}
	})
	if allocs > 100 {
		t.Fatalf("%v allocations for %d tuples in %d groups", allocs, tuples, len(agg.vals))
	}
	if len(agg.vals) != len(want) {
		t.Fatalf("%d groups, want %d", len(agg.vals), len(want))
	}

	pool := storage.NewPool(64)
	defer pool.CloseFiles()
	schema := table.NewSchema([]string{"a", "b", "c"}, []string{"s", "n", "lo", "hi"})
	heap, err := table.Create(pool, filepath.Join(t.TempDir(), "groups.heap"), schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendGroups(heap, agg, true, false); err != nil {
		t.Fatal(err)
	}
	var prev string
	err = heap.Scan(func(row int64, keys []int32, measures []float64) error {
		key := make([]byte, 0, 4*nd)
		for _, x := range keys {
			key = binary.LittleEndian.AppendUint32(key, uint32(x))
		}
		if w, ok := want[string(key)]; !ok || w != [4]float64(measures) {
			t.Fatalf("row %d: group %v = %v, want %v (present %v)", row, keys, measures, w, ok)
		}
		if row > 0 && string(key) <= prev {
			t.Fatalf("row %d: key %x after %x", row, key, prev)
		}
		prev = string(key)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if heap.Count() != int64(len(want)) {
		t.Fatalf("%d rows appended, want %d", heap.Count(), len(want))
	}
}

// TestRefreshReadsOnlyTheDelta: a cold Refresh of three views after a
// small load reads only the appended rows of the base table — once per
// view and once for the statistics — not the whole base four times, and
// the statistics it leaves equal a full recount.
func TestRefreshReadsOnlyTheDelta(t *testing.T) {
	db := buildDB(t, 20000)
	for _, levels := range [][]int{{1, 1, 0}, {2, 0, 1}, {0, 2, 2}} {
		if _, err := db.Materialize(levels); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.RefreshStats(); err != nil {
		t.Fatal(err)
	}
	appendFacts(t, db, 50, 5)
	if pages := db.Base().Pages(); pages != 50 {
		t.Fatalf("base spans %d pages, want 50", pages)
	}
	if err := db.ColdReset(); err != nil {
		t.Fatal(err)
	}
	base := db.Base().Heap.File()
	before := base.IOStats()
	if err := db.Refresh(); err != nil {
		t.Fatal(err)
	}
	after := base.IOStats()
	if fetched := after.Reads() + after.Hits - before.Reads() - before.Hits; fetched > 8 {
		t.Fatalf("Refresh fetched %d base pages for a 50-row delta, want at most 8", fetched)
	}
	for _, v := range db.Views[1:] {
		if !equalAgg(viewAggregate(t, v), baseOracle(t, db, v.Levels)) {
			t.Fatalf("refreshed view %s differs from the base oracle", v.Name)
		}
	}
	want, err := db.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(db.Stats, want) {
		t.Fatalf("refreshed stats (%d rows) differ from a full recount (%d rows)", db.Stats.Rows, want.Rows)
	}
}
