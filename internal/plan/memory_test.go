package plan

import (
	"math"
	"testing"

	"mdxopt/internal/query"
	"mdxopt/internal/rescache"
	"mdxopt/internal/star"
)

// Satellite coverage for ClassCost / CostOfAdd edge cases the memory
// model extends: single-query classes, index-only classes, and
// infeasible views.

func TestClassCostSingleQueryMatchesBestMethod(t *testing.T) {
	db, qs := testDB(t)
	// Paper estimator: a one-member class has nothing to share, so its
	// class cost must equal the member's best standalone cost exactly
	// (the full model may additionally apply the filter conversion,
	// which only ever lowers it).
	paper := NewPaperEstimator(db)
	full := NewEstimator(db)
	v := db.ViewByLevels([]int{1, 1, 1, 0})
	for _, name := range []string{"Q1", "Q6"} {
		c := &Class{View: v, Plans: []*Local{{Query: qs[name], View: v}}}
		cc := paper.ClassCost(c)
		_, best, ok := paper.BestMethod(qs[name], v)
		if !ok {
			t.Fatalf("%s infeasible on %s", name, v.Name)
		}
		if math.Abs(cc-best) > 1e-6 {
			t.Fatalf("%s: single-member class cost %v != best standalone %v", name, cc, best)
		}
		fc := &Class{View: v, Plans: []*Local{{Query: qs[name], View: v}}}
		if fcc := full.ClassCost(fc); fcc > cc+1e-6 {
			t.Fatalf("%s: full-model class cost %v above paper %v", name, fcc, cc)
		}
	}
}

func TestClassCostUnindexedViewFallsBackToScan(t *testing.T) {
	db, qs := testDB(t)
	e := NewEstimator(db)
	// A view without bitmap join indexes cannot use the probe regime —
	// even for very selective members the class must price as a scan
	// with hash methods, finitely.
	v := db.ViewByLevels([]int{1, 1, 2, 0})
	for dim := range v.Indexes {
		if v.Indexes[dim] != nil {
			t.Skipf("view %s unexpectedly has an index", v.Name)
		}
	}
	c := &Class{View: v, Plans: []*Local{
		{Query: qs["Q1"], View: v},
		{Query: qs["Q2"], View: v},
	}}
	cc := e.ClassCost(c)
	if math.IsInf(cc, 1) {
		t.Fatal("unindexed class priced infeasible")
	}
	if c.Regime != ScanRegime {
		t.Fatalf("regime = %v, want scan", c.Regime)
	}
	for _, p := range c.Plans {
		if p.Method != HashSJ {
			t.Fatalf("%s assigned %v on an unindexed view", p.Query.Name, p.Method)
		}
	}
}

func TestClassCostInfeasibleViewIsInf(t *testing.T) {
	db, qs := testDB(t)
	e := NewEstimator(db)
	// Q6 needs levels finer than the coarse view provides; a class
	// containing it on that view is unpriceable.
	coarse := db.ViewByLevels([]int{2, 2, 1, 0})
	c := &Class{View: coarse, Plans: []*Local{
		{Query: qs["Q1"], View: coarse},
		{Query: qs["Q6"], View: coarse},
	}}
	if cc := e.ClassCost(c); !math.IsInf(cc, 1) {
		t.Fatalf("infeasible class cost = %v, want +Inf", cc)
	}
	// CostOfAdd of an unanswerable query must also be +Inf, without
	// disturbing the class.
	ok := &Class{View: coarse, Plans: []*Local{{Query: qs["Q1"], View: coarse}}}
	if add := e.CostOfAdd(ok, qs["Q6"]); !math.IsInf(add, 1) {
		t.Fatalf("CostOfAdd(unanswerable) = %v, want +Inf", add)
	}
	if len(ok.Plans) != 1 {
		t.Fatal("CostOfAdd mutated the class")
	}
}

func TestCostOfAddToEmptyClassIsStandalone(t *testing.T) {
	db, qs := testDB(t)
	e := NewPaperEstimator(db)
	v := db.ViewByLevels([]int{1, 1, 2, 0})
	empty := &Class{View: v}
	add := e.CostOfAdd(empty, qs["Q1"])
	_, best, ok := e.BestMethod(qs["Q1"], v)
	if !ok {
		t.Fatal("Q1 infeasible")
	}
	if math.Abs(add-best) > 1e-6 {
		t.Fatalf("add-to-empty %v != best standalone %v", add, best)
	}
}

func TestClassMemoryPositiveAndSharingAware(t *testing.T) {
	db, qs := testDB(t)
	e := NewEstimator(db)
	v := db.ViewByLevels([]int{1, 1, 2, 0})

	single := &Class{View: v, Plans: []*Local{{Query: qs["Q1"], View: v}}}
	e.ClassCost(single)
	m1 := e.ClassMemory(single)
	if m1 <= 0 {
		t.Fatalf("single-member class memory = %d", m1)
	}

	// Two members with identical dimension lookups share them: the
	// class footprint must be below twice the single footprint.
	double := &Class{View: v, Plans: []*Local{
		{Query: qs["Q1"], View: v},
		{Query: qs["Q1"], View: v},
	}}
	e.ClassCost(double)
	m2 := e.ClassMemory(double)
	if m2 >= 2*m1 {
		t.Fatalf("lookup sharing not reflected: two identical members %d >= 2×%d", m2, m1)
	}
	if m2 <= m1 {
		t.Fatalf("second aggregation table not counted: %d <= %d", m2, m1)
	}

	if e.ClassMemory(&Class{View: v}) != 0 {
		t.Fatal("empty class has nonzero memory")
	}
}

func TestClassMemoryCountsBitmaps(t *testing.T) {
	db, qs := testDB(t)
	e := NewEstimator(db)
	indexed := db.ViewByLevels([]int{1, 1, 1, 0})

	probe := &Class{View: indexed, Plans: []*Local{
		{Query: qs["Q6"], View: indexed},
		{Query: qs["Q7"], View: indexed},
	}}
	e.ClassCost(probe)
	if probe.Regime != ProbeRegime {
		t.Skipf("expected probe regime for selective members, got %v", probe.Regime)
	}
	withBitmaps := e.ClassMemory(probe)

	// Force the same members onto hash methods in the scan regime: the
	// footprint must drop by at least the per-member bitmaps plus union.
	scan := &Class{View: indexed, Regime: ScanRegime, Plans: []*Local{
		{Query: qs["Q6"], View: indexed, Method: HashSJ},
		{Query: qs["Q7"], View: indexed, Method: HashSJ},
	}}
	withoutBitmaps := e.ClassMemory(scan)
	wantDrop := 3 * bitmapMemory(indexed) // two member bitmaps + union
	if withBitmaps-withoutBitmaps != wantDrop {
		t.Fatalf("bitmap accounting: with=%d without=%d drop=%d want %d",
			withBitmaps, withoutBitmaps, withBitmaps-withoutBitmaps, wantDrop)
	}
}

func TestGroupEstimateCappedBySelectedRows(t *testing.T) {
	db, qs := testDB(t)
	e := NewEstimator(db)
	v := db.Base()
	for _, q := range qs {
		groups := e.groupEstimate(q, v)
		if groups < 1 {
			t.Fatalf("%s: group estimate %v below 1", q.Name, groups)
		}
		if rows := e.selRows(q, v); groups > rows && groups > 1 {
			t.Fatalf("%s: groups %v exceed qualifying rows %v", q.Name, groups, rows)
		}
	}
}

func TestGlobalMemoryCachedPlansShrinkEstimate(t *testing.T) {
	db, qs := testDB(t)
	e := NewEstimator(db)
	v := db.ViewByLevels([]int{1, 1, 2, 0})
	q := qs["Q1"]
	c := &Class{View: v, Plans: []*Local{{Query: q, View: v}}}
	e.ClassCost(c)
	asClass := e.ClassMemory(c)

	// The same query served from a small cached entry charges only the
	// rollup re-aggregation table — strictly less than the class pass
	// (which adds lookup tables and a scan-sized aggregation estimate).
	ent := &rescache.Entry{
		Name:   q.GroupByName(),
		Levels: append([]int(nil), q.Levels...),
		Rows:   make([]rescache.Row, 8),
	}
	asCache := e.CacheMemory(&CachePlan{Query: q, Entry: ent})
	if want := int64(8) * aggEntryBytes(q); asCache != want {
		t.Fatalf("cached-plan memory = %d, want %d", asCache, want)
	}
	if asCache >= asClass {
		t.Fatalf("cache-served estimate %d not below class estimate %d", asCache, asClass)
	}
}

// marginal builds an unrestricted SUM group-by at the given levels.
func marginal(t *testing.T, db *star.Database, name string, levels ...int) *query.Query {
	t.Helper()
	q, err := query.New(name, db.Schema, levels, nil)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestClassCostPricesDerivedMemberAsRollup: a member derivable from a
// classmate costs one rollup-and-fold per group of that classmate — no
// scan CPU, no lookups — and holds one table copy whatever the worker
// count; two members neither of which derives the other are priced
// exactly as two scan members sharing the I/O.
func TestClassCostPricesDerivedMemberAsRollup(t *testing.T) {
	db, _ := testDB(t)
	e := NewEstimator(db)
	v := db.ViewByLevels([]int{1, 1, 2, 0})
	class := func(qs ...*query.Query) *Class {
		c := &Class{View: v}
		for _, q := range qs {
			c.Plans = append(c.Plans, &Local{Query: q, View: v})
		}
		return c
	}
	fine := marginal(t, db, "fine", 1, 1, 3, 3)
	left := marginal(t, db, "left", 2, 1, 3, 3)
	right := marginal(t, db, "right", 1, 2, 3, 3)
	scan := e.Model.ScanIO(v.Pages())

	apart := e.ClassCost(class(left)) + e.ClassCost(class(right)) - scan
	if got := e.ClassCost(class(left, right)); math.Abs(got-apart) > 1e-6 {
		t.Fatalf("non-derivable pair costs %v, want the two members on one scan = %v", got, apart)
	}

	alone := e.ClassCost(class(fine))
	rollup := (e.Model.TupleCPU + e.Model.AggCPU) * e.groupEstimate(fine, v)
	pair := class(left, fine)
	if got := e.ClassCost(pair); math.Abs(got-alone-rollup) > 1e-6 {
		t.Fatalf("derivable pair costs %v, want %v + a rollup of %v", got, alone, rollup)
	}
	if add := e.CostOfAdd(class(fine), left); math.Abs(add-rollup) > 1e-6 {
		t.Fatalf("CostOfAdd of a derivable member = %v, want %v", add, rollup)
	}
	if rollup*100 > alone {
		t.Fatalf("rollup %v is not small beside the scan member's %v", rollup, alone)
	}

	serial := e.ClassMemory(class(fine))
	e.Workers = 4
	withChild, parentOnly := e.ClassMemory(pair), e.ClassMemory(class(fine))
	if got, want := withChild-parentOnly, e.aggMemory(left, v); got != want {
		t.Fatalf("derived member adds %d bytes at 4 workers, want one table copy = %d", got, want)
	}
	// A root holds one table per worker, worker 0's being the pass's own,
	// and every worker holds one page buffer.
	if got, want := parentOnly-serial, 3*(e.aggMemory(fine, v)+memPageBufBytes(v)); got != want {
		t.Fatalf("root member adds %d bytes going from 1 to 4 workers, want three more table copies and page buffers = %d", got, want)
	}
	tasks := BuildTasks(&Global{Classes: []*Class{pair}})
	for _, task := range tasks {
		for _, s := range task.Specs {
			if s.Query == left {
				t.Fatalf("lookup of dimension %d hoisted for a derived member", s.Dim)
			}
		}
	}
}
