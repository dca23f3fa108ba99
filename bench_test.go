package mdxopt

// Benchmarks regenerating the paper's evaluation. One benchmark exists
// per table and figure:
//
//	BenchmarkTable1Sizes          Table 1   (database profile)
//	BenchmarkTest1SharedScan      Figure 10 (shared-scan hash star join)
//	BenchmarkTest2SharedIndex     Figure 11 (shared index star join)
//	BenchmarkTest3SharedMixed     Figure 12 (mixed shared scan)
//	BenchmarkTest4Algorithms      Table 2, Q1 Q2 Q3
//	BenchmarkTest5Algorithms      Table 2, Q2 Q3 Q5
//	BenchmarkTest6Algorithms      Table 2, Q6 Q7 Q8
//	BenchmarkTest7Algorithms      Table 2, Q1 Q7 Q9
//
// plus ablations and micro-benchmarks of the substrate. Custom metrics
// report the paper's quantities: sim-s-* is simulated seconds on the
// 1998 hardware model, speedup is separate/shared.
//
// The benchmark database scale defaults to 0.05 (100k rows) and can be
// set with MDXOPT_BENCH_SCALE (1.0 = the paper's 2M rows).

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"mdxopt/internal/core"
	"mdxopt/internal/dag"
	"mdxopt/internal/exec"
	"mdxopt/internal/experiments"
	"mdxopt/internal/mdx"
	"mdxopt/internal/plan"
	"mdxopt/internal/query"
	"mdxopt/internal/workload"
)

var (
	benchOnce   sync.Once
	benchRunner *experiments.Runner
	benchErr    error
	benchDir    string
)

func benchScale() float64 {
	if s := os.Getenv("MDXOPT_BENCH_SCALE"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.05
}

func runner(b *testing.B) *experiments.Runner {
	b.Helper()
	benchOnce.Do(func() {
		benchDir, benchErr = os.MkdirTemp("", "mdxopt-bench")
		if benchErr != nil {
			return
		}
		benchRunner, benchErr = experiments.Open(benchDir+"/db", benchScale())
	})
	if benchErr != nil {
		b.Fatalf("bench database: %v", benchErr)
	}
	return benchRunner
}

func BenchmarkTable1Sizes(b *testing.B) {
	r := runner(b)
	var tbl *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		tbl = r.Table1()
	}
	base := float64(tbl.Views[0].Rows)
	for _, v := range tbl.Views {
		b.ReportMetric(float64(v.Rows)/base, "ratio-"+sanitizeMetric(v.Name))
	}
}

func sanitizeMetric(name string) string {
	out := ""
	for _, r := range name {
		if r == '\'' {
			out += "p"
		} else {
			out += string(r)
		}
	}
	return out
}

func benchSharedOp(b *testing.B, run func() (*experiments.SharedOpResult, error)) {
	var res *experiments.SharedOpResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = run()
		if err != nil {
			b.Fatal(err)
		}
	}
	last := res.Steps[len(res.Steps)-1]
	b.ReportMetric(res.Speedup(), "speedup")
	b.ReportMetric(last.Separate.SimSeconds, "sim-s-separate")
	b.ReportMetric(last.Shared.SimSeconds, "sim-s-shared")
	b.ReportMetric(float64(last.Shared.PageReads), "pages-shared")
}

func BenchmarkTest1SharedScan(b *testing.B)  { benchSharedOp(b, runner(b).Test1) }
func BenchmarkTest2SharedIndex(b *testing.B) { benchSharedOp(b, runner(b).Test2) }
func BenchmarkTest3SharedMixed(b *testing.B) { benchSharedOp(b, runner(b).Test3) }

func benchAlgos(b *testing.B, run func() (*experiments.AlgoResult, error)) {
	var res *experiments.AlgoResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = run()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.Measured.SimSeconds, "sim-s-"+row.Algorithm)
	}
}

func BenchmarkTest4Algorithms(b *testing.B) { benchAlgos(b, runner(b).Test4) }
func BenchmarkTest5Algorithms(b *testing.B) { benchAlgos(b, runner(b).Test5) }
func BenchmarkTest6Algorithms(b *testing.B) { benchAlgos(b, runner(b).Test6) }
func BenchmarkTest7Algorithms(b *testing.B) { benchAlgos(b, runner(b).Test7) }

func benchAblation(b *testing.B, run func() (*experiments.AblationResult, error)) {
	var res *experiments.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = run()
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, row := range res.Rows {
		b.ReportMetric(row.Measured.SimSeconds, fmt.Sprintf("sim-s-cfg%d", i))
	}
}

func BenchmarkAblationLookupSharing(b *testing.B) {
	benchAblation(b, runner(b).AblationLookupSharing)
}

func BenchmarkAblationFilterConversion(b *testing.B) {
	benchAblation(b, runner(b).AblationFilterConversion)
}

func BenchmarkAblationRandSeqRatio(b *testing.B) {
	benchAblation(b, runner(b).AblationRandSeqRatio)
}

func BenchmarkAblationGreedyOrder(b *testing.B) {
	benchAblation(b, runner(b).AblationGreedyOrder)
}

func BenchmarkAblationStatsUnderSkew(b *testing.B) {
	benchAblation(b, runner(b).AblationStatsUnderSkew)
}

func BenchmarkOptimizerStudy(b *testing.B) {
	r := runner(b)
	var res *experiments.StudyResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = r.OptimizerStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the 9-query effort of each algorithm.
	for _, row := range res.Rows {
		if row.Queries == 9 {
			b.ReportMetric(float64(row.CostEvals), "evals9-"+row.Algorithm)
		}
	}
}

// --- micro-benchmarks of the substrate and operators ---

func benchQueries(b *testing.B, names ...string) []*query.Query {
	b.Helper()
	r := runner(b)
	out := make([]*query.Query, len(names))
	for i, n := range names {
		out[i] = r.Queries[n]
	}
	return out
}

func BenchmarkHashJoinSingleQuery(b *testing.B) {
	r := runner(b)
	q := benchQueries(b, "Q1")[0]
	env := exec.NewEnv(r.DB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st exec.Stats
		if _, err := exec.HashJoinQuery(env, r.DB.Base(), q, &st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSharedScanHash4Queries(b *testing.B) {
	r := runner(b)
	group := benchQueries(b, "Q1", "Q2", "Q3", "Q4")
	env := exec.NewEnv(r.DB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st exec.Stats
		if _, err := exec.SharedScanHash(env, r.DB.Base(), group, &st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexJoinSingleQuery(b *testing.B) {
	r := runner(b)
	q := benchQueries(b, "Q7")[0]
	view := r.DB.ViewByLevels([]int{1, 1, 1, 0})
	env := exec.NewEnv(r.DB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st exec.Stats
		if _, err := exec.IndexJoinQuery(env, view, q, &st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSharedIndex4Queries(b *testing.B) {
	r := runner(b)
	group := benchQueries(b, "Q5", "Q6", "Q7", "Q8")
	view := r.DB.ViewByLevels([]int{1, 1, 1, 0})
	env := exec.NewEnv(r.DB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st exec.Stats
		if _, err := exec.SharedIndex(env, view, group, &st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSharedScanHashParallel(b *testing.B) {
	r := runner(b)
	group := benchQueries(b, "Q1", "Q2", "Q3", "Q4")
	env := exec.NewEnv(r.DB)
	env.Pool = dag.NewPool(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st exec.Stats
		if _, err := exec.SharedScanHash(env, r.DB.Base(), group, &st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaiveOracle(b *testing.B) {
	r := runner(b)
	q := benchQueries(b, "Q3")[0]
	env := exec.NewEnv(r.DB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Naive(env, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizerGG(b *testing.B) {
	r := runner(b)
	queries := benchQueries(b, "Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9")
	est := plan.NewEstimator(r.DB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(est, queries, core.GG); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizerExhaustive(b *testing.B) {
	r := runner(b)
	queries := benchQueries(b, "Q1", "Q2", "Q3", "Q5", "Q7", "Q9")
	est := plan.NewPaperEstimator(r.DB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(est, queries, core.Optimal); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMDXParseTranslate(b *testing.B) {
	r := runner(b)
	src := workload.MDX()["Q9"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mdx.ParseAndTranslate(r.DB.Schema, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaseTableScan(b *testing.B) {
	r := runner(b)
	base := r.DB.Base()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		err := base.Heap.Scan(func(row int64, keys []int32, ms []float64) error {
			sum += ms[0]
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(r.DB.Schema.RowWidthBytes()) * r.DB.Base().Rows())
}
