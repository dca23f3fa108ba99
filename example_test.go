package mdxopt_test

import (
	"fmt"
	"log"
	"os"

	"mdxopt"
)

// Example builds a small star database, loads facts, precomputes a
// group-by and answers an MDX expression.
func Example() {
	dir, err := os.MkdirTemp("", "mdxopt-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := mdxopt.Create(dir+"/db", mdxopt.SchemaSpec{
		Measure: "revenue",
		Dims: []mdxopt.DimensionSpec{
			{Name: "Product", Levels: []mdxopt.LevelSpec{
				{Name: "SKU", Members: []string{"apple", "banana", "carrot"}, Parent: []int32{0, 0, 1}},
				{Name: "Category", Members: []string{"fruit", "veg"}},
			}},
			{Name: "Region", Levels: []mdxopt.LevelSpec{
				{Name: "City", Members: []string{"madison", "tokyo"}, Parent: []int32{0, 1}},
				{Name: "Country", Members: []string{"us", "jp"}},
			}},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	loader := db.Load()
	for _, f := range []struct {
		sku, city string
		rev       float64
	}{
		{"apple", "madison", 10},
		{"banana", "madison", 5},
		{"carrot", "tokyo", 7},
		{"apple", "tokyo", 3},
	} {
		if err := loader.Add([]string{f.sku, f.city}, f.rev); err != nil {
			log.Fatal(err)
		}
	}
	if err := loader.Close(); err != nil {
		log.Fatal(err)
	}
	if err := db.Materialize("Category", "City"); err != nil {
		log.Fatal(err)
	}

	ans, err := db.Query(`{Category.MEMBERS} on COLUMNS {Country.us, Country.jp} on ROWS CONTEXT shop`)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range ans.Queries[0].Rows {
		fmt.Printf("%s/%s = %.0f\n", row.Members[0], row.Members[1], row.Value)
	}
	// Output:
	// fruit/us = 15
	// fruit/jp = 3
	// veg/jp = 7
}

// ExampleOpenWith shows memory-governed serving: the database opens
// with a memory budget, and aggregation state that exceeds the budget
// spills to disk — the results are identical to an unbudgeted run, and
// the broker's accounting returns to zero afterwards.
func ExampleOpenWith() {
	dir, err := os.MkdirTemp("", "mdxopt-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	seed, err := mdxopt.CreateSample(dir+"/db", 0.002)
	if err != nil {
		log.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		log.Fatal(err)
	}

	db, err := mdxopt.OpenWith(dir+"/db", mdxopt.OpenOptions{
		MemoryBudget: 40 << 10, // 40 KiB: below this query's working set
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// A leaf-level group-by whose hash table outgrows the budget.
	src := `{A.MEMBERS} on COLUMNS {B.MEMBERS} on ROWS CONTEXT ABCD FILTER (D'.DD1)`
	ans, err := db.Query(src)
	if err != nil {
		log.Fatal(err)
	}
	ms := db.MemoryStats()
	fmt.Println("groups:", len(ans.Queries[0].Rows))
	fmt.Println("spilled:", ans.Stats.SpillBytes > 0)
	fmt.Println("peak within budget:", ms.Peak <= ms.Limit)
	fmt.Println("drained:", ms.Used == 0)
	// Output:
	// groups: 456
	// spilled: true
	// peak within budget: true
	// drained: true
}

// ExampleDB_QueryWith shows algorithm selection and plan inspection.
func ExampleDB_QueryWith() {
	dir, err := os.MkdirTemp("", "mdxopt-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := mdxopt.CreateSample(dir+"/db", 0.002)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	ans, err := db.QueryWith(
		`{A''.A1, A''.A2} on COLUMNS CONTEXT ABCD AGGREGATE COUNT FILTER (D'.DD1)`,
		mdxopt.Options{Algorithm: mdxopt.GG, ColdCache: true},
	)
	if err != nil {
		log.Fatal(err)
	}
	qr := ans.Queries[0]
	fmt.Println(qr.Aggregate, "groups:", len(qr.Rows))
	// Output:
	// COUNT groups: 2
}
