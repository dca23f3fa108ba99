package mdxopt

import (
	"path/filepath"
	"testing"
	"time"

	"mdxopt/internal/exec"
	"mdxopt/internal/mdx"
)

// wideMarginals is an unrestricted lattice expression whose widest
// component queries group two dimensions at the base level: four
// queries, the largest fold tables the sample schema produces.
const wideMarginals = `{A''.A1.CHILDREN, A''.A2.CHILDREN, A''.A3.CHILDREN, ` +
	`A''.A1.CHILDREN.CHILDREN, A''.A2.CHILDREN.CHILDREN, A''.A3.CHILDREN.CHILDREN} on COLUMNS ` +
	`{B''.B1.CHILDREN, B''.B2.CHILDREN, B''.B3.CHILDREN, ` +
	`B''.B1.CHILDREN.CHILDREN, B''.B2.CHILDREN.CHILDREN, B''.B3.CHILDREN.CHILDREN} on ROWS CONTEXT ABCD`

// naiveAnswer evaluates src with the exec.Naive oracle and renders it
// the way the facade does.
func naiveAnswer(t *testing.T, db *DB, src string) *Answer {
	t.Helper()
	snap, release := db.db.Pin()
	defer release()
	queries, err := mdx.ParseAndTranslate(snap.Schema, src)
	if err != nil {
		t.Fatal(err)
	}
	env := exec.NewEnv(snap)
	ans := &Answer{}
	for _, q := range queries {
		r, err := exec.Naive(env, q)
		if err != nil {
			t.Fatal(err)
		}
		ans.Queries = append(ans.Queries, db.formatResult(q, r))
	}
	return ans
}

// TestTightBudgetParallelCompletes is the regression test for the
// admission deadlock: a database-wide MemoryBudget below one wide
// marginal's fold table with Workers > 1. Every class node's estimate
// exceeds the budget, so each waits for an idle broker — which, while
// idle meant "no byte in use", never came: the request's own hoisted
// lookup set (and the result cache's standing reservation) held bytes
// for the whole run and all goroutines slept. The request must complete,
// spill, match the oracle and leave nothing reserved but the cache.
func TestTightBudgetParallelCompletes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	seed, err := CreateSample(dir, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveAnswer(t, seed, wideMarginals)
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name        string
		cacheBudget int64
	}{
		{"no cache", 0},
		{"result cache", 16 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := OpenWith(dir, OpenOptions{
				MemoryBudget:      64 << 10,
				Workers:           2,
				SpillDir:          t.TempDir(),
				ResultCacheBudget: tc.cacheBudget,
			})
			if err != nil {
				t.Fatal(err)
			}
			// A wedged request would also wedge Close: leave the
			// database open when the test gives up on one.
			wedged := false
			defer func() {
				if !wedged {
					db.Close()
				}
			}()

			// Twice: the second request starts with whatever the first
			// left standing in the result cache.
			for round := 0; round < 2; round++ {
				type outcome struct {
					ans *Answer
					err error
				}
				done := make(chan outcome, 1)
				go func() {
					ans, err := db.Query(wideMarginals)
					done <- outcome{ans, err}
				}()
				var got outcome
				select {
				case got = <-done:
				case <-time.After(30 * time.Second):
					wedged = true
					t.Fatalf("round %d: request did not complete; broker %+v", round, db.MemoryStats())
				}
				if got.err != nil {
					t.Fatal(got.err)
				}
				sameAnswer(t, tc.name, got.ans, want)
				if got.ans.Stats.SpillBytes == 0 {
					t.Fatalf("round %d: budget did not force a spill: %+v", round, got.ans.Stats)
				}
				if got.ans.Stats.WorkerPeak < 2 {
					t.Fatalf("round %d: worker peak %d, want the parallel executor", round, got.ans.Stats.WorkerPeak)
				}
				ms := db.MemoryStats()
				if ms.Used != db.ResultCacheStats().Bytes || ms.Waiting != 0 {
					t.Fatalf("round %d: broker not drained: %+v (cache holds %d)", round, ms, db.ResultCacheStats().Bytes)
				}
			}
		})
	}
}

// TestAnswerRowsDoNotAlias: the rows of one query share a member slab,
// so every Members slice must have its capacity clipped — an append on
// one row must not write into the next — and a query that groups by no
// dimension keeps nil Members.
func TestAnswerRowsDoNotAlias(t *testing.T) {
	db := sample(t)
	ans, err := db.Query(`{A''.A1, A''.A2, A''.A3} on COLUMNS {B''.B1, B''.B2} on ROWS CONTEXT ABCD`)
	if err != nil {
		t.Fatal(err)
	}
	rows := ans.Queries[0].Rows
	if len(rows) < 2 {
		t.Fatalf("%d rows, want several", len(rows))
	}
	for i := range rows[:len(rows)-1] {
		if len(rows[i].Members) != 2 || cap(rows[i].Members) != 2 {
			t.Fatalf("row %d: members len %d cap %d, want 2 and 2", i, len(rows[i].Members), cap(rows[i].Members))
		}
		next := append([]string(nil), rows[i+1].Members...)
		_ = append(rows[i].Members, "overwritten")
		for m := range next {
			if rows[i+1].Members[m] != next[m] {
				t.Fatalf("append on row %d changed row %d: %v", i, i+1, rows[i+1].Members)
			}
		}
	}

	// MDX always puts a dimension on an axis; the grand total is the
	// same query with every level raised to ALL.
	snap, release := db.db.Pin()
	defer release()
	queries, err := mdx.ParseAndTranslate(snap.Schema, `{A''.A1} on COLUMNS CONTEXT ABCD`)
	if err != nil {
		t.Fatal(err)
	}
	gt := *queries[0]
	gt.Levels = append([]int(nil), gt.Levels...)
	for d := range gt.Levels {
		gt.Levels[d] = snap.Schema.Dims[d].AllLevel()
	}
	qr := db.formatResult(&gt, &exec.Result{Query: &gt, Groups: []exec.Group{{Keys: make([]int32, len(gt.Levels)), Value: 42}}})
	if len(qr.Rows) != 1 || qr.Rows[0].Members != nil || qr.Rows[0].Value != 42 || qr.Columns != nil {
		t.Fatalf("grand total rendered as %+v, want one row with nil Members and nil Columns", qr)
	}
}

// TestFormatResultAllocs pins the facade's result rendering to a
// constant number of allocations, whatever the group count.
func TestFormatResultAllocs(t *testing.T) {
	db := sample(t)
	snap, release := db.db.Pin()
	defer release()
	queries, err := mdx.ParseAndTranslate(snap.Schema, wideMarginals)
	if err != nil {
		t.Fatal(err)
	}
	q := queries[len(queries)-1]
	full, err := exec.Naive(exec.NewEnv(snap), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Groups) < 1000 {
		t.Fatalf("%d groups; the test needs a wide result", len(full.Groups))
	}
	// Rows, the member slab, the column and dimension lists and the
	// header strings: a dozen objects for thousands of rows.
	if allocs := testing.AllocsPerRun(5, func() { db.formatResult(q, full) }); allocs > 12 {
		t.Fatalf("formatResult allocates %v objects for %d groups, want at most 12", allocs, len(full.Groups))
	}
}
