package mdxopt

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var (
	sampleDB  *DB
	sampleDir string
)

func TestMain(m *testing.M) {
	code := m.Run()
	if sampleDir != "" {
		os.RemoveAll(sampleDir)
	}
	if serveDBDir != "" {
		os.RemoveAll(serveDBDir)
	}
	os.Exit(code)
}

func sample(t *testing.T) *DB {
	t.Helper()
	if sampleDB != nil {
		return sampleDB
	}
	// Not t.TempDir(): the database outlives the first test that builds
	// it, and later tests create files in its directory.
	dir, err := os.MkdirTemp("", "mdxopt-api-test")
	if err != nil {
		t.Fatal(err)
	}
	sampleDir = dir
	db, err := CreateSample(filepath.Join(dir, "db"), 0.01)
	if err != nil {
		t.Fatalf("CreateSample: %v", err)
	}
	sampleDB = db
	return db
}

func TestCreateSampleShape(t *testing.T) {
	// A private database, not sample(t): this test pins the exact
	// freshly-created view count, and other tests materialize additional
	// views into the shared fixture (test order is shuffled).
	db, err := CreateSample(filepath.Join(t.TempDir(), "db"), 0.01)
	if err != nil {
		t.Fatalf("CreateSample: %v", err)
	}
	defer db.Close()
	if got := db.Dimensions(); len(got) != 4 || got[0] != "A" || got[3] != "D" {
		t.Fatalf("Dimensions = %v", got)
	}
	if db.Measure() != "dollars" {
		t.Fatalf("Measure = %q", db.Measure())
	}
	if db.Facts() != 20000 {
		t.Fatalf("Facts = %d", db.Facts())
	}
	views := db.Views()
	if len(views) != 9 {
		t.Fatalf("views = %d", len(views))
	}
	if views[0].Name != "ABCD" || views[0].Levels[0] != "A" {
		t.Fatalf("base view = %+v", views[0])
	}
}

func TestQueryEndToEnd(t *testing.T) {
	db := sample(t)
	// ColdCache so the PageReads assertion below holds regardless of
	// which tests warmed the shared sample database's pool first.
	ans, err := db.QueryWith(`{A''.A1.CHILDREN} on COLUMNS {B''.B1} on ROWS {C''.C1} on PAGES CONTEXT ABCD FILTER (D'.DD1)`,
		Options{ColdCache: true})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(ans.Queries) != 1 {
		t.Fatalf("component queries = %d", len(ans.Queries))
	}
	qr := ans.Queries[0]
	if len(qr.Rows) == 0 {
		t.Fatal("no result rows")
	}
	if len(qr.Columns) != 4 {
		t.Fatalf("columns = %v", qr.Columns)
	}
	// Every member name in column A is a mid-level member (AAx).
	for _, row := range qr.Rows {
		if !strings.HasPrefix(row.Members[0], "AA") {
			t.Fatalf("unexpected A member %q", row.Members[0])
		}
		if row.Members[3] != "DD1" {
			t.Fatalf("D member %q, want DD1", row.Members[3])
		}
		if row.Value <= 0 {
			t.Fatalf("non-positive aggregate %v", row.Value)
		}
	}
	if ans.Plan == "" || ans.Stats.PageReads == 0 {
		t.Fatalf("missing plan/stats: %+v", ans.Stats)
	}
}

func TestQueryMultiVariant(t *testing.T) {
	db := sample(t)
	// A at two levels -> two component queries.
	ans, err := db.Query(`{A''.A1, A''.A2.CHILDREN} on COLUMNS {B''.B1} on ROWS CONTEXT ABCD FILTER (D'.DD1)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Queries) != 2 {
		t.Fatalf("component queries = %d, want 2", len(ans.Queries))
	}
	if ans.Queries[0].GroupBy == ans.Queries[1].GroupBy {
		t.Fatal("variants share a group-by")
	}
}

func TestQueryWithOptionsAndExplain(t *testing.T) {
	db := sample(t)
	src := `{A''.A1} on COLUMNS {B''.B2} on ROWS CONTEXT ABCD FILTER (D'.DD1)`
	for _, alg := range []Algorithm{TPLO, ETPLG, GG, Optimal} {
		ans, err := db.QueryWith(src, Options{Algorithm: alg, ColdCache: true})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(ans.Queries[0].Rows) == 0 {
			t.Fatalf("%s: empty result", alg)
		}
	}
	planStr, err := db.Explain(src, Options{PaperPlanSpace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(planStr, "class") {
		t.Fatalf("Explain = %q", planStr)
	}
	if _, err := db.QueryWith(src, Options{Algorithm: Algorithm("nope")}); err == nil {
		t.Fatal("bad algorithm accepted")
	}
}

func TestQueryAgreesAcrossAlgorithms(t *testing.T) {
	db := sample(t)
	src := `{A''.A1.CHILDREN} on COLUMNS {B''.B2, B''.B3} on ROWS {C''.C1.CHILDREN} on PAGES CONTEXT ABCD FILTER (D'.DD1)`
	var base *Answer
	for _, opts := range []Options{
		{Algorithm: TPLO}, {Algorithm: GG}, {Algorithm: GG, PaperPlanSpace: true},
	} {
		ans, err := db.QueryWith(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = ans
			continue
		}
		if len(ans.Queries) != len(base.Queries) {
			t.Fatal("query counts differ")
		}
		for i := range ans.Queries {
			if len(ans.Queries[i].Rows) != len(base.Queries[i].Rows) {
				t.Fatalf("row counts differ for %s", ans.Queries[i].Name)
			}
			for j, row := range ans.Queries[i].Rows {
				if row.Value != base.Queries[i].Rows[j].Value {
					t.Fatalf("values differ for %s row %d", ans.Queries[i].Name, j)
				}
			}
		}
	}
}

func TestQuerySyntaxError(t *testing.T) {
	db := sample(t)
	if _, err := db.Query(`{nonsense`); err == nil {
		t.Fatal("syntax error accepted")
	}
	if _, err := db.Query(`{Nope.X} on COLUMNS CONTEXT ABCD`); err == nil {
		t.Fatal("unknown member accepted")
	}
}

func TestCustomSchemaLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "shop")
	db, err := Create(dir, SchemaSpec{
		Measure: "revenue",
		Dims: []DimensionSpec{
			{Name: "Product", Levels: []LevelSpec{
				{Name: "SKU", Members: []string{"apple", "banana", "carrot", "donut"}, Parent: []int32{0, 0, 1, 1}},
				{Name: "Category", Members: []string{"fruit", "other"}},
			}},
			{Name: "Region", Levels: []LevelSpec{
				{Name: "City", Members: []string{"madison", "chicago", "tokyo"}, Parent: []int32{0, 0, 1}},
				{Name: "Country", Members: []string{"us", "jp"}},
			}},
		},
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	loader := db.Load()
	facts := []struct {
		sku, city string
		rev       float64
	}{
		{"apple", "madison", 10},
		{"banana", "madison", 5},
		{"carrot", "chicago", 7},
		{"donut", "tokyo", 3},
		{"apple", "tokyo", 2},
	}
	for _, f := range facts {
		if err := loader.Add([]string{f.sku, f.city}, f.rev); err != nil {
			t.Fatal(err)
		}
	}
	if err := loader.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Materialize("Category", "City"); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if err := db.BuildBitmapIndex("Product", "Category", "City"); err != nil {
		t.Fatalf("BuildBitmapIndex: %v", err)
	}

	ans, err := db.Query(`{Category.fruit, Category.other} on COLUMNS {Country.us, Country.jp} on ROWS CONTEXT shop`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	qr := ans.Queries[0]
	want := map[string]float64{
		"fruit/us": 15, "fruit/jp": 2, "other/us": 7, "other/jp": 3,
	}
	if len(qr.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d: %+v", len(qr.Rows), len(want), qr.Rows)
	}
	for _, row := range qr.Rows {
		key := row.Members[0] + "/" + row.Members[1]
		if want[key] != row.Value {
			t.Fatalf("%s = %v, want %v", key, row.Value, want[key])
		}
	}

	// Persist and reopen.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db2.Close()
	if db2.Facts() != 5 {
		t.Fatalf("facts after reopen = %d", db2.Facts())
	}
	ans2, err := db2.Query(`{Category.fruit} on COLUMNS CONTEXT shop`)
	if err != nil {
		t.Fatal(err)
	}
	if ans2.Queries[0].Rows[0].Value != 17 {
		t.Fatalf("fruit total = %v, want 17", ans2.Queries[0].Rows[0].Value)
	}
}

// TestCreateRejectsWideSchema: a group-by key packs into at most 128
// bits, so Create refuses nine dimensions of 32,768 members (135 bits)
// with the schema's error and leaves no database behind.
func TestCreateRejectsWideSchema(t *testing.T) {
	members := make([]string, 1<<15)
	for i := range members {
		members[i] = "m" + strconv.Itoa(i)
	}
	dims := make([]DimensionSpec, 9)
	for i := range dims {
		dims[i] = DimensionSpec{Name: "D" + strconv.Itoa(i), Levels: []LevelSpec{{Name: "L" + strconv.Itoa(i), Members: members}}}
	}
	dir := filepath.Join(t.TempDir(), "wide")
	_, err := Create(dir, SchemaSpec{Measure: "m", Dims: dims})
	if err == nil || !strings.Contains(err.Error(), "135 bits") {
		t.Fatalf("Create: err %v, want the schema's 135-bit error", err)
	}
	if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
		t.Fatalf("rejected schema left %s behind (%v)", dir, statErr)
	}
}

func TestLoaderValidation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "v")
	db, err := Create(dir, SchemaSpec{
		Measure: "m",
		Dims: []DimensionSpec{
			{Name: "X", Levels: []LevelSpec{{Name: "x", Members: []string{"a", "b"}}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loader := db.Load()
	defer loader.Close()
	if err := loader.Add([]string{"a", "b"}, 1); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if err := loader.Add([]string{"zzz"}, 1); err == nil {
		t.Fatal("unknown member accepted")
	}
	if err := loader.Add([]string{"a"}, 1); err != nil {
		t.Fatal(err)
	}
}

func TestMaterializeAndIndexValidation(t *testing.T) {
	db := sample(t)
	if err := db.Materialize("A'", "B'"); err == nil {
		t.Fatal("short level vector accepted")
	}
	if err := db.Materialize("A'", "B'", "C'", "Z"); err == nil {
		t.Fatal("unknown level accepted")
	}
	if err := db.BuildBitmapIndex("A", "A''", "B''", "C''", "D''"); err == nil {
		t.Fatal("index on unmaterialized view accepted")
	}
	if err := db.BuildBitmapIndex("Nope", "A'", "B'", "C'", "D"); err == nil {
		t.Fatal("unknown dimension accepted")
	}
}

func TestAggregateQueriesEndToEnd(t *testing.T) {
	db := sample(t)
	// A multi-aggregate view lets COUNT/AVG use a precomputed group-by.
	if err := db.MaterializeMulti("A''", "B''", "C''", "D'"); err != nil {
		t.Fatalf("MaterializeMulti: %v", err)
	}
	base := `{A''.MEMBERS} on COLUMNS CONTEXT ABCD AGGREGATE %s FILTER (D'.DD1)`
	get := func(agg string) map[string]float64 {
		t.Helper()
		ans, err := db.Query(strings.ReplaceAll(base, "%s", agg))
		if err != nil {
			t.Fatalf("%s: %v", agg, err)
		}
		qr := ans.Queries[0]
		if qr.Aggregate != strings.ToUpper(agg) {
			t.Fatalf("Aggregate = %q", qr.Aggregate)
		}
		out := map[string]float64{}
		for _, row := range qr.Rows {
			out[row.Members[0]] = row.Value
		}
		return out
	}
	sum := get("SUM")
	count := get("COUNT")
	avg := get("AVG")
	min := get("MIN")
	max := get("MAX")
	if len(sum) != 3 {
		t.Fatalf("groups = %d", len(sum))
	}
	var totalCount float64
	for member := range sum {
		if count[member] <= 0 {
			t.Fatalf("%s count = %v", member, count[member])
		}
		totalCount += count[member]
		if got := sum[member] / count[member]; got != avg[member] {
			t.Fatalf("%s avg = %v, want %v", member, avg[member], got)
		}
		if min[member] > avg[member] || avg[member] > max[member] {
			t.Fatalf("%s avg outside [min,max]", member)
		}
	}
	// COUNT over all of A'' with only the D filter = rows with D' = DD1.
	if totalCount <= 0 || totalCount >= float64(db.Facts()) {
		t.Fatalf("total count %v out of range", totalCount)
	}
}

func TestQueryWithWorkers(t *testing.T) {
	db := sample(t)
	src := `{A''.A1.CHILDREN} on COLUMNS {B''.B2, B''.B3} on ROWS CONTEXT ABCD FILTER (D'.DD1)`
	serial, err := db.QueryWith(src, Options{Algorithm: GG})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := db.QueryWith(src, Options{Algorithm: GG, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Queries {
		a, b := serial.Queries[i].Rows, parallel.Queries[i].Rows
		if len(a) != len(b) {
			t.Fatalf("query %d row counts differ", i)
		}
		for j := range a {
			if a[j].Value != b[j].Value {
				t.Fatalf("query %d row %d: %v vs %v", i, j, a[j].Value, b[j].Value)
			}
		}
	}
}

func TestPlanCache(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "pc")
	db, err := CreateSample(dir, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	src := `{A''.A1} on COLUMNS {B''.B2} on ROWS CONTEXT ABCD FILTER (D'.DD1)`

	first, err := db.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if db.PlanCacheHits() != 0 {
		t.Fatalf("hits before reuse = %d", db.PlanCacheHits())
	}
	second, err := db.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if db.PlanCacheHits() != 1 {
		t.Fatalf("hits after reuse = %d, want 1", db.PlanCacheHits())
	}
	if second.Plan != first.Plan {
		t.Fatal("cached plan differs")
	}
	// GG is the default algorithm: naming it plans the same and hits
	// the same entry.
	if _, err := db.QueryWith(src, Options{Algorithm: GG}); err != nil {
		t.Fatal(err)
	}
	if db.PlanCacheHits() != 2 {
		t.Fatalf("Options{Algorithm: GG} missed the entry Options{} made: hits = %d, want 2", db.PlanCacheHits())
	}
	// Different options miss the cache.
	if _, err := db.QueryWith(src, Options{Algorithm: TPLO}); err != nil {
		t.Fatal(err)
	}
	if db.PlanCacheHits() != 2 {
		t.Fatalf("different options hit the cache")
	}

	// Mutations invalidate: after a load, the cached plan (which uses a
	// now-stale view) must not be replayed.
	loader := db.Load()
	if err := loader.AddCodes([]int32{0, 0, 0, 0}, 42); err != nil {
		t.Fatal(err)
	}
	if err := loader.Close(); err != nil {
		t.Fatal(err)
	}
	third, err := db.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if db.PlanCacheHits() != 2 {
		t.Fatal("stale plan served from cache after a load")
	}
	if !strings.Contains(third.Plan, "ABCD") {
		t.Fatalf("post-load plan should use the base table: %q", third.Plan)
	}
	// And refresh restores view usage with a fresh plan.
	if err := db.Refresh(); err != nil {
		t.Fatal(err)
	}
	fourth, err := db.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if fourth.Plan == third.Plan {
		t.Fatal("plan unchanged after refresh")
	}
}

func TestAnswerClassStats(t *testing.T) {
	db := sample(t)
	ans, err := db.Query(`{A''.A1.CHILDREN, A''.A1} on COLUMNS {B''.B1} on ROWS CONTEXT ABCD FILTER (D'.DD1)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Classes) == 0 {
		t.Fatal("no class stats")
	}
	var covered int
	var sim float64
	for _, cs := range ans.Classes {
		if cs.View == "" || (cs.Regime != "scan" && cs.Regime != "probe") {
			t.Fatalf("bad class stat %+v", cs)
		}
		covered += len(cs.Queries)
		sim += cs.SimulatedSeconds
	}
	if covered != len(ans.Queries) {
		t.Fatalf("class stats cover %d queries, answer has %d", covered, len(ans.Queries))
	}
	if diff := sim - ans.Stats.SimulatedSeconds; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("class sims sum to %v, total %v", sim, ans.Stats.SimulatedSeconds)
	}
}

func TestQueryContextCancellation(t *testing.T) {
	db := sample(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.QueryContext(ctx, `{A''.A1} on COLUMNS CONTEXT ABCD FILTER (D'.DD1)`, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
