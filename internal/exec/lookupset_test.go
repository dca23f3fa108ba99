package exec

import (
	"testing"

	"mdxopt/internal/dag"
	"mdxopt/internal/query"
	"mdxopt/internal/star"
)

// dimPins counts the page fetches — reads and pool hits — made from the
// dimension tables so far.
func dimPins(db *star.Database) int64 {
	var n int64
	for _, t := range db.DimTables {
		s := t.File().IOStats()
		n += s.Reads() + s.Hits
	}
	return n
}

// TestPassAddsMissingLookups gives a two-worker pass a plan set
// (Env.Lookups) holding only Q1's lookups: the pass builds exactly the
// lookups of Q2 that Q1 does not share, once each and into that set,
// and a second pass over the now complete set builds nothing and reads
// no dimension page.
func TestPassAddsMissingLookups(t *testing.T) {
	db, qs := testDB(t)
	view := db.Base()
	group := []*query.Query{qs["Q1"], qs["Q2"]}
	env := NewEnv(db)
	env.Pool, env.MorselPages = dag.NewPool(2), 1

	set := NewLookupSet(nil)
	defer set.Close()
	var builds []LookupBuild
	for dim, level := range view.Levels {
		builds = append(builds, LookupBuild{Query: group[0], Dim: dim, ViewLevel: level})
	}
	if err := env.BuildLookups(set, builds, &Stats{}); err != nil {
		t.Fatal(err)
	}
	var missing int
	var wantRows int64
	for dim, level := range view.Levels {
		if string(appendLookupKey(nil, group[1], dim, level)) != string(appendLookupKey(nil, group[0], dim, level)) {
			missing++
			wantRows += int64(db.Schema.Dims[dim].Card(level))
		}
	}
	if missing == 0 || missing == len(view.Levels) {
		t.Fatalf("Q2 misses %d of %d lookups; the test wants some, not all", missing, len(view.Levels))
	}

	env.Lookups = set
	before := set.Len()
	var st Stats
	if _, err := SharedScanHash(env, view, group, &st); err != nil {
		t.Fatal(err)
	}
	if st.HashBuildRows != wantRows || set.Len() != before+missing {
		t.Fatalf("built %d rows, set grew %d → %d; want %d rows, %d new lookups",
			st.HashBuildRows, before, set.Len(), wantRows, missing)
	}

	pins := dimPins(db)
	st = Stats{}
	rs, err := SharedScanHash(env, view, group, &st)
	if err != nil {
		t.Fatal(err)
	}
	if st.HashBuildRows != 0 || set.Len() != before+missing {
		t.Fatalf("complete set: built %d rows, set holds %d", st.HashBuildRows, set.Len())
	}
	if n := dimPins(db) - pins; n != 0 {
		t.Fatalf("complete set: the pass fetched %d dimension pages", n)
	}
	checkNaive(t, "complete set", rs)
}

// TestUnsharedLookupsPerRoot: with ShareLookups off every root builds
// each of its lookups once — a set per root, shared by the root's
// worker pipelines — so the build work is the same at every width.
func TestUnsharedLookupsPerRoot(t *testing.T) {
	db, qs := testDB(t)
	view := db.Base()
	group := []*query.Query{qs["Q1"], qs["Q2"]}
	var wantRows int64
	for range group {
		for dim, level := range view.Levels {
			wantRows += int64(db.Schema.Dims[dim].Card(level))
		}
	}
	for _, width := range []int{1, 2} {
		env := NewEnv(db)
		env.ShareLookups = false
		if width > 1 {
			env.Pool, env.MorselPages = dag.NewPool(width), 1
		}
		var st Stats
		if _, err := SharedScanHash(env, view, group, &st); err != nil {
			t.Fatal(err)
		}
		if st.HashBuildRows != wantRows {
			t.Fatalf("width %d: built %d rows, want %d", width, st.HashBuildRows, wantRows)
		}
	}
}

// TestLookupSetHitAllocs: once a set holds every lookup a query needs
// against a view, fetching them allocates only the returned slice — the
// key of each probe is built on the stack.
func TestLookupSetHitAllocs(t *testing.T) {
	db, qs := testDB(t)
	view := db.Base()
	env := NewEnv(db)
	set := NewLookupSet(nil)
	defer set.Close()
	for _, name := range []string{"Q1", "Q2"} {
		if _, err := set.lookups(env, &Stats{}, qs[name], view); err != nil {
			t.Fatal(err)
		}
	}
	n := set.Len()
	var st Stats
	for _, name := range []string{"Q1", "Q2"} {
		q := qs[name]
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := set.lookups(env, &st, q, view); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Fatalf("%s: a complete set's lookups allocate %.1f times, want at most the returned slice", name, allocs)
		}
	}
	if set.Len() != n || st.HashBuildRows != 0 {
		t.Fatalf("complete set grew %d -> %d and built %d rows", n, set.Len(), st.HashBuildRows)
	}
}
