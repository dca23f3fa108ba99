package mdxopt

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestMaintenanceLifecycle exercises the staleness/refresh/compact cycle
// through the public API and checks the optimizer avoids stale views.
func TestMaintenanceLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "m")
	db, err := Create(dir, SchemaSpec{
		Measure: "m",
		Dims: []DimensionSpec{
			{Name: "P", Levels: []LevelSpec{
				{Name: "sku", Members: []string{"a", "b", "c", "d"}, Parent: []int32{0, 0, 1, 1}},
				{Name: "cat", Members: []string{"x", "y"}},
			}},
			{Name: "R", Levels: []LevelSpec{
				{Name: "city", Members: []string{"m1", "m2"}, Parent: []int32{0, 0}},
				{Name: "country", Members: []string{"us"}},
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	load := func(rows [][2]string, val float64) {
		t.Helper()
		loader := db.Load()
		for _, r := range rows {
			if err := loader.Add([]string{r[0], r[1]}, val); err != nil {
				t.Fatal(err)
			}
		}
		if err := loader.Close(); err != nil {
			t.Fatal(err)
		}
	}
	load([][2]string{{"a", "m1"}, {"b", "m2"}, {"c", "m1"}}, 10)

	if err := db.Materialize("cat", "city"); err != nil {
		t.Fatal(err)
	}
	if got := db.StaleViews(); len(got) != 0 {
		t.Fatalf("StaleViews after materialize = %v", got)
	}

	// New facts make the view stale; the optimizer must fall back to the
	// base table (results stay correct).
	load([][2]string{{"d", "m2"}, {"a", "m1"}}, 5)
	if got := db.StaleViews(); len(got) != 1 {
		t.Fatalf("StaleViews = %v, want 1", got)
	}
	src := `{cat.x, cat.y} on COLUMNS CONTEXT m`
	ans, err := db.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ans.Plan, "catcity") || !strings.Contains(ans.Plan, "skucity") {
		t.Fatalf("stale-view plan = %q, want base table", ans.Plan)
	}
	wantX := 10.0 + 10 + 5 // a=10, b=10 initially, plus a=5 in the delta
	if v, _ := findRow(ans, "x"); v != wantX {
		t.Fatalf("x = %v, want %v", v, wantX)
	}

	// Refresh: view usable again and results unchanged.
	if err := db.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := db.StaleViews(); len(got) != 0 {
		t.Fatalf("StaleViews after refresh = %v", got)
	}
	ans2, err := db.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := findRow(ans2, "x"); v != wantX {
		t.Fatalf("x after refresh = %v, want %v", v, wantX)
	}

	// Compact merges the duplicate groups; the view is then strictly
	// smaller than the base table and the optimizer picks it.
	if err := db.Compact("cat", "city"); err != nil {
		t.Fatal(err)
	}
	ans3, err := db.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ans3.Plan, "catcity") {
		t.Fatalf("post-compact plan = %q, want the materialized view", ans3.Plan)
	}
	if v, _ := findRow(ans3, "x"); v != wantX {
		t.Fatalf("x after compact = %v, want %v", v, wantX)
	}
	if err := db.Compact("cat", "nope"); err == nil {
		t.Fatal("Compact accepted bad levels")
	}
}

func findRow(ans *Answer, member string) (float64, bool) {
	for _, row := range ans.Queries[0].Rows {
		if row.Members[0] == member {
			return row.Value, true
		}
	}
	return 0, false
}

// TestAddCodesRejectsOutOfRangeCodes: a code outside its dimension's
// base level, or the wrong number of codes, is refused with an error
// naming the dimension, and nothing is appended — a later Refresh and
// Query see only the valid rows.
func TestAddCodesRejectsOutOfRangeCodes(t *testing.T) {
	db, err := CreateSample(filepath.Join(t.TempDir(), "db"), 0.002)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	facts := db.Facts()
	loader := db.Load()
	for _, bad := range []struct {
		codes []int32
		dim   string
	}{
		{[]int32{1 << 20, 0, 0, 0}, db.Dimensions()[0]},
		{[]int32{0, 0, -1, 0}, db.Dimensions()[2]},
	} {
		err := loader.AddCodes(bad.codes, 1)
		if err == nil || !strings.Contains(err.Error(), "dimension "+bad.dim+" ") {
			t.Fatalf("AddCodes(%v) returned %v, want an error naming dimension %s", bad.codes, err, bad.dim)
		}
	}
	if err := loader.AddCodes([]int32{0, 0, 0}, 1); err == nil {
		t.Fatal("AddCodes accepted three codes for four dimensions")
	}
	if err := loader.AddCodes([]int32{0, 0, 0, 0}, 1); err != nil {
		t.Fatal(err)
	}
	if err := loader.Close(); err != nil {
		t.Fatal(err)
	}
	if got := db.Facts(); got != facts+1 {
		t.Fatalf("base holds %d facts after one valid row, want %d", got, facts+1)
	}
	if err := db.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`{A''.A1.CHILDREN} on COLUMNS CONTEXT ABCD FILTER (D'.DD1)`); err != nil {
		t.Fatal(err)
	}
}
