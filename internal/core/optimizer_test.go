package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"mdxopt/internal/datagen"
	"mdxopt/internal/exec"
	"mdxopt/internal/plan"
	"mdxopt/internal/query"
	"mdxopt/internal/star"
	"mdxopt/internal/workload"
)

var sharedDB *star.Database
var sharedQs map[string]*query.Query

func testDB(t *testing.T) (*star.Database, map[string]*query.Query) {
	t.Helper()
	if sharedDB != nil {
		return sharedDB, sharedQs
	}
	spec := datagen.PaperSpec(0.1) // 200k rows; index joins pay off
	spec.PoolFrames = 1024
	db, err := datagen.Build(filepath.Join(t.TempDir(), "db"), spec)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := workload.PaperQueries(db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	sharedDB, sharedQs = db, qs
	return db, qs
}

func qset(qs map[string]*query.Query, names ...string) []*query.Query {
	out := make([]*query.Query, len(names))
	for i, n := range names {
		out[i] = qs[n]
	}
	return out
}

// planAndCost optimizes and returns the plan with its estimated cost.
func planAndCost(t *testing.T, est *plan.Estimator, queries []*query.Query, alg Algorithm) (*plan.Global, float64) {
	t.Helper()
	g, err := Optimize(est, queries, alg)
	if err != nil {
		t.Fatalf("Optimize(%s): %v", alg, err)
	}
	if g.NumQueries() != len(queries) {
		t.Fatalf("%s planned %d of %d queries", alg, g.NumQueries(), len(queries))
	}
	return g, est.GlobalCost(g)
}

func TestEveryAlgorithmEveryTestSetExecutesCorrectly(t *testing.T) {
	db, qs := testDB(t)
	env := exec.NewEnv(db)

	sets := map[string][]*query.Query{
		"test4": qset(qs, "Q1", "Q2", "Q3"),
		"test5": qset(qs, "Q2", "Q3", "Q5"),
		"test6": qset(qs, "Q6", "Q7", "Q8"),
		"test7": qset(qs, "Q1", "Q7", "Q9"),
	}
	estimators := map[string]*plan.Estimator{
		"full":  plan.NewEstimator(db),
		"paper": plan.NewPaperEstimator(db),
	}
	for setName, queries := range sets {
		// Oracle once per query.
		want := make([]*exec.Result, len(queries))
		for i, q := range queries {
			r, err := exec.Naive(env, q)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = r
		}
		for estName, est := range estimators {
			for _, alg := range Algorithms() {
				g, _ := planAndCost(t, est, queries, alg)
				var st exec.Stats
				got, err := Execute(env, g, queries, &st)
				if err != nil {
					t.Fatalf("%s/%s/%s Execute: %v", setName, estName, alg, err)
				}
				for i := range queries {
					if !got[i].Equal(want[i]) {
						t.Fatalf("%s/%s/%s: wrong result for %s", setName, estName, alg, queries[i].Name)
					}
				}
			}
		}
	}
}

func TestFullModelPlansMeasureNoWorseThanPaperMode(t *testing.T) {
	// The full-model plan space is a superset of the paper's, and its
	// cost model reflects this engine's sorted storage; its GG plans
	// must not measure (in simulated time on identical counted work)
	// meaningfully worse than paper-mode GG plans.
	db, qs := testDB(t)
	env := exec.NewEnv(db)
	model := plan.NewEstimator(db).Model

	sets := map[string][]*query.Query{
		"test4": qset(qs, "Q1", "Q2", "Q3"),
		"test7": qset(qs, "Q1", "Q7", "Q9"),
	}
	for setName, queries := range sets {
		measure := func(est *plan.Estimator) float64 {
			g, err := Optimize(est, queries, GG)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.ColdReset(); err != nil {
				t.Fatal(err)
			}
			var st exec.Stats
			if _, err := Execute(env, g, queries, &st); err != nil {
				t.Fatal(err)
			}
			return st.SimulatedMicros(model)
		}
		paper := measure(plan.NewPaperEstimator(db))
		full := measure(plan.NewEstimator(db))
		if full > paper*1.02 {
			t.Fatalf("%s: full-model plan measured %.0f, paper-mode %.0f", setName, full, paper)
		}
	}
}

func TestAlgorithmCostOrdering(t *testing.T) {
	db, qs := testDB(t)
	est := plan.NewPaperEstimator(db)
	const slack = 1e-6
	sets := [][]*query.Query{
		qset(qs, "Q1", "Q2", "Q3"),
		qset(qs, "Q2", "Q3", "Q5"),
		qset(qs, "Q6", "Q7", "Q8"),
		qset(qs, "Q1", "Q7", "Q9"),
		qset(qs, "Q1", "Q2", "Q3", "Q4", "Q9"),
	}
	for i, queries := range sets {
		_, tplo := planAndCost(t, est, queries, TPLO)
		_, etplg := planAndCost(t, est, queries, ETPLG)
		_, gg := planAndCost(t, est, queries, GG)
		_, opt := planAndCost(t, est, queries, Optimal)

		// The paper's dominance: Optimal <= GG; GG searches a superset
		// of ETPLG's space per step. ETPLG is greedy so it is not
		// formally guaranteed below TPLO, but Optimal must bound all.
		if opt > gg+slack || opt > etplg+slack || opt > tplo+slack {
			t.Fatalf("set %d: Optimal %v above a heuristic (tplo %v etplg %v gg %v)",
				i, opt, tplo, etplg, gg)
		}
		if gg > etplg+slack {
			t.Fatalf("set %d: GG %v worse than ETPLG %v", i, gg, etplg)
		}
	}
}

func TestTest4Shape(t *testing.T) {
	// Test 4 (Q1,Q2,Q3): the greedy sharers must find a shared base and
	// beat TPLO, which picks three different exact views.
	db, qs := testDB(t)
	est := plan.NewPaperEstimator(db)
	queries := qset(qs, "Q1", "Q2", "Q3")

	tploPlan, tplo := planAndCost(t, est, queries, TPLO)
	_, gg := planAndCost(t, est, queries, GG)
	if len(tploPlan.Classes) != 3 {
		t.Fatalf("TPLO classes = %d, want 3 (no accidental sharing)", len(tploPlan.Classes))
	}
	if gg >= tplo {
		t.Fatalf("GG %v not below TPLO %v on Test 4", gg, tplo)
	}
	ggPlan, _ := planAndCost(t, est, queries, GG)
	if len(ggPlan.Classes) >= 3 {
		t.Fatalf("GG found no sharing: %d classes", len(ggPlan.Classes))
	}
	_ = db
}

func TestTest6Shape(t *testing.T) {
	// Test 6 (Q6,Q7,Q8): all selective; local optima are index joins on
	// the indexed view, so all algorithms land on the same logical plan
	// and perform about the same.
	db, qs := testDB(t)
	est := plan.NewPaperEstimator(db)
	queries := qset(qs, "Q6", "Q7", "Q8")

	indexed := db.ViewByLevels([]int{1, 1, 1, 0})
	for _, alg := range Algorithms() {
		g, _ := planAndCost(t, est, queries, alg)
		if len(g.Classes) != 1 {
			t.Fatalf("%s: %d classes, want 1", alg, len(g.Classes))
		}
		if g.Classes[0].View.Name != indexed.Name {
			t.Fatalf("%s picked %s, want %s", alg, g.Classes[0].View.Name, indexed.Name)
		}
		for _, p := range g.Classes[0].Plans {
			if p.Method != plan.IndexSJ {
				t.Fatalf("%s: %s uses %v, want IndexSJ", alg, p.Query.Name, p.Method)
			}
		}
	}
}

func TestTest7Shape(t *testing.T) {
	// Test 7 (Q1,Q7,Q9): TPLO picks a different view per query and
	// shares nothing; GG/ETPLG consolidate.
	db, qs := testDB(t)
	est := plan.NewPaperEstimator(db)
	queries := qset(qs, "Q1", "Q7", "Q9")

	tploPlan, tplo := planAndCost(t, est, queries, TPLO)
	ggPlan, gg := planAndCost(t, est, queries, GG)
	if len(ggPlan.Classes) >= len(tploPlan.Classes) {
		t.Fatalf("GG %d classes, TPLO %d: no consolidation", len(ggPlan.Classes), len(tploPlan.Classes))
	}
	if gg >= tplo {
		t.Fatalf("GG %v not below TPLO %v on Test 7", gg, tplo)
	}
	_ = db
}

func TestOptimizeDeterministic(t *testing.T) {
	_, qs := testDB(t)
	db := sharedDB
	est := plan.NewEstimator(db)
	queries := qset(qs, "Q1", "Q2", "Q3", "Q5", "Q7")
	for _, alg := range Algorithms() {
		g1, err := Optimize(est, queries, alg)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := Optimize(est, queries, alg)
		if err != nil {
			t.Fatal(err)
		}
		if g1.Describe() != g2.Describe() {
			t.Fatalf("%s non-deterministic:\n%s\nvs\n%s", alg, g1.Describe(), g2.Describe())
		}
	}
}

func TestOptimizeErrors(t *testing.T) {
	db, qs := testDB(t)
	est := plan.NewEstimator(db)
	if _, err := Optimize(est, nil, GG); err == nil {
		t.Fatal("empty query set accepted")
	}
	if _, err := Optimize(est, qset(qs, "Q1"), Algorithm("bogus")); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	var many []*query.Query
	for i := 0; i < 11; i++ {
		many = append(many, qs["Q1"])
	}
	if _, err := Optimize(est, many, Optimal); err == nil {
		t.Fatal("Optimal accepted 11 queries")
	}
}

func TestGGMergesClassesOnSameBase(t *testing.T) {
	// With many queries, GG must never emit two classes with one base.
	db, qs := testDB(t)
	est := plan.NewEstimator(db)
	queries := qset(qs, "Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9")
	g, err := Optimize(est, queries, GG)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*star.View]bool{}
	for _, c := range g.Classes {
		if seen[c.View] {
			t.Fatalf("two GG classes share base %s", c.View.Name)
		}
		seen[c.View] = true
	}
	_ = db
}

// latticeMarginals builds the component queries of an unrestricted
// lattice expression such as the benchmark's TK/TK/-: the cross product
// of the given A and B levels, every member listed (as the MDX
// translator emits it), C and D aggregated out.
func latticeMarginals(t *testing.T, s *star.Schema, aLevels, bLevels []int) []*query.Query {
	t.Helper()
	listed := func(dim, level int) query.Predicate {
		ms := make([]int32, s.Dims[dim].Card(level))
		for i := range ms {
			ms[i] = int32(i)
		}
		return query.Predicate{Members: ms}
	}
	var out []*query.Query
	for _, a := range aLevels {
		for _, b := range bLevels {
			q, err := query.New(fmt.Sprintf("q%d", len(out)+1), s, []int{a, b, 3, 3},
				[]query.Predicate{listed(0, a), listed(1, b), {}, {}})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, q)
		}
	}
	return out
}

// TestGreedyPullsMarginalsIntoFinestClass: with derived members priced
// as rollups, the class-growing algorithms put an expression's coarser
// marginals into the finest one's class instead of opening further
// classes on smaller views, the plan says which member derives from
// which, and the one-class plan still answers like the oracle.
func TestGreedyPullsMarginalsIntoFinestClass(t *testing.T) {
	db, _ := testDB(t)
	env := exec.NewEnv(db)
	shapes := map[string][]*query.Query{
		"TK/TK/-": latticeMarginals(t, db.Schema, []int{2, 1}, []int{2, 1}),
		"KG/KG/-": latticeMarginals(t, db.Schema, []int{1, 0}, []int{1, 0}),
	}
	for shape, queries := range shapes {
		for _, alg := range []Algorithm{ETPLG, GG, GGI, Optimal} {
			g, err := Optimize(plan.NewEstimator(db), queries, alg)
			if err != nil {
				t.Fatal(err)
			}
			if len(g.Classes) != 1 {
				t.Fatalf("%s %s: %d classes, want 1:\n%s", shape, alg, len(g.Classes), g.Describe())
			}
			if n := strings.Count(g.Describe(), "[rollup]"); n != 3 {
				t.Fatalf("%s %s: %d members marked as rollups, want 3:\n%s", shape, alg, n, g.Describe())
			}
			var st exec.Stats
			rs, err := Execute(env, g, queries, &st)
			if err != nil {
				t.Fatal(err)
			}
			if st.DerivedQueries != 3 || st.TuplesAgg >= 2*g.Classes[0].View.Rows() {
				t.Fatalf("%s %s: %d derived members, %d folds over a %d-row view", shape, alg,
					st.DerivedQueries, st.TuplesAgg, g.Classes[0].View.Rows())
			}
			for i, q := range queries {
				want, err := exec.Naive(env, q)
				if err != nil {
					t.Fatal(err)
				}
				if !rs[i].Equal(want) {
					t.Fatalf("%s %s: %s differs from the oracle", shape, alg, q.Name)
				}
			}
		}
	}
}
