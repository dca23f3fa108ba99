package mdxopt

import (
	"strings"
	"testing"
)

// TestRequestCapSpillReachesMemoryStats: a request that spills under its
// own cap (Options.MemoryBudget) is refused growth by a per-request
// child broker; DB.MemoryStats must count those denials. The same
// request shows shared aggregation at the facade: one class, three of
// the four marginals derived from a classmate, answers equal to the
// oracle's.
func TestRequestCapSpillReachesMemoryStats(t *testing.T) {
	db := sample(t)
	want := naiveAnswer(t, db, wideMarginals)
	before := db.MemoryStats().Denied
	ans, err := db.QueryWith(wideMarginals, Options{MemoryBudget: 32 << 10, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "capped", ans, want)
	if ans.Stats.SpillBytes == 0 {
		t.Fatalf("the cap did not force a spill: %+v", ans.Stats)
	}
	if ms := db.MemoryStats(); ms.Denied <= before || ms.Used != 0 {
		t.Fatalf("after a spill under a request cap: %+v (denied before: %d)", ms, before)
	}
	if ans.Stats.DerivedQueries != 3 || ans.Stats.DerivedRows == 0 || strings.Count(ans.Plan, "[rollup]") != 3 || len(ans.Classes) != 1 {
		t.Fatalf("derived %d queries from %d rows in %d classes:\n%s", ans.Stats.DerivedQueries, ans.Stats.DerivedRows, len(ans.Classes), ans.Plan)
	}
}
