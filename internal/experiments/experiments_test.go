package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var sharedRunner *Runner

func TestMain(m *testing.M) {
	code := m.Run()
	if sharedRunner != nil {
		sharedRunner.Close()
		os.RemoveAll(filepath.Dir(sharedRunner.DB.Dir))
	}
	os.Exit(code)
}

func testRunner(t *testing.T) *Runner {
	t.Helper()
	if sharedRunner != nil {
		return sharedRunner
	}
	// Not t.TempDir(): the runner outlives the first test that builds it,
	// and later tests create files (index rebuilds) in the directory.
	dir, err := os.MkdirTemp("", "mdxopt-experiments")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(filepath.Join(dir, "db"), 0.1) // the default experiment scale
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sharedRunner = r
	return r
}

func TestOpenIsIdempotent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	r1, err := Open(dir, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	rows := r1.DB.Base().Rows()
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir, 0.002)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r2.Close()
	if r2.DB.Base().Rows() != rows {
		t.Fatalf("reopened rows = %d, want %d", r2.DB.Base().Rows(), rows)
	}
}

func TestTable1(t *testing.T) {
	r := testRunner(t)
	tbl := r.Table1()
	if len(tbl.Views) != 9 {
		t.Fatalf("views = %d", len(tbl.Views))
	}
	if tbl.Views[0].Name != "ABCD" {
		t.Fatalf("first view = %s", tbl.Views[0].Name)
	}
	for _, v := range tbl.Views[1:] {
		if v.Rows == 0 || v.Rows > tbl.Views[0].Rows {
			t.Fatalf("view %s has %d rows", v.Name, v.Rows)
		}
	}
	var buf bytes.Buffer
	tbl.Format(&buf)
	if !strings.Contains(buf.String(), "A'B'C'D") {
		t.Fatalf("Format output missing views:\n%s", buf.String())
	}
}

func TestSharedOperatorExperiments(t *testing.T) {
	r := testRunner(t)
	for _, f := range []struct {
		name string
		run  func() (*SharedOpResult, error)
	}{
		{"Test1", r.Test1}, {"Test2", r.Test2}, {"Test3", r.Test3},
	} {
		res, err := f.run()
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if len(res.Steps) < 3 {
			t.Fatalf("%s: only %d steps", f.name, len(res.Steps))
		}
		// The paper's headline: with all queries, sharing beats separate
		// execution in simulated time, and the gap grows with k.
		last := res.Steps[len(res.Steps)-1]
		if last.Shared.SimSeconds >= last.Separate.SimSeconds {
			t.Fatalf("%s: shared %.3f not below separate %.3f",
				f.name, last.Shared.SimSeconds, last.Separate.SimSeconds)
		}
		if res.Speedup() <= 1 {
			t.Fatalf("%s: speedup %.2f", f.name, res.Speedup())
		}
		// Monotone: separate cost grows with every added query.
		for i := 1; i < len(res.Steps); i++ {
			if res.Steps[i].Separate.SimSeconds <= res.Steps[i-1].Separate.SimSeconds {
				t.Fatalf("%s: separate cost not increasing at step %d", f.name, i)
			}
		}
		var buf bytes.Buffer
		res.Format(&buf)
		if !strings.Contains(buf.String(), res.Name) {
			t.Fatalf("%s: Format missing header", f.name)
		}
	}
}

func TestSharedScanMarginalCostSmall(t *testing.T) {
	// Figure 10's second observation: adding a query to the shared scan
	// costs (in simulated I/O) far less than running it alone, because
	// only CPU is added.
	r := testRunner(t)
	res, err := r.Test1()
	if err != nil {
		t.Fatal(err)
	}
	first := res.Steps[0]
	for i := 1; i < len(res.Steps); i++ {
		marginalShared := res.Steps[i].Shared.PageReads - res.Steps[i-1].Shared.PageReads
		if marginalShared > first.Shared.PageReads/5 {
			t.Fatalf("adding query %d to the shared scan cost %d page reads",
				i+1, marginalShared)
		}
	}
}

func TestAlgoExperiments(t *testing.T) {
	r := testRunner(t)
	for _, f := range []struct {
		name string
		run  func() (*AlgoResult, error)
	}{
		{"Test4", r.Test4}, {"Test5", r.Test5}, {"Test6", r.Test6}, {"Test7", r.Test7},
	} {
		res, err := f.run()
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if len(res.Rows) != 5 { // TPLO, ETPLG, GG, Optimal, GG-full
			t.Fatalf("%s: %d rows", f.name, len(res.Rows))
		}
		byAlg := map[string]AlgoRow{}
		for _, row := range res.Rows {
			byAlg[row.Algorithm] = row
		}
		// Paper-mode dominance in estimated cost.
		if byAlg["Optimal"].EstCost > byAlg["TPLO"].EstCost+1e-9 ||
			byAlg["Optimal"].EstCost > byAlg["GG"].EstCost+1e-9 {
			t.Fatalf("%s: Optimal estimate above a heuristic: %+v", f.name, res.Rows)
		}
		if byAlg["GG"].EstCost > byAlg["ETPLG"].EstCost+1e-9 {
			t.Fatalf("%s: GG above ETPLG", f.name)
		}
		var buf bytes.Buffer
		res.Format(&buf)
		if !strings.Contains(buf.String(), "GG-full") {
			t.Fatalf("%s: Format missing GG-full row", f.name)
		}
	}
}

func TestTable2Shapes(t *testing.T) {
	r := testRunner(t)
	// Test 4: GG measures strictly better than TPLO (it shares a base).
	t4, err := r.Test4()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]AlgoRow{}
	for _, row := range t4.Rows {
		rows[row.Algorithm] = row
	}
	if rows["GG"].Measured.SimSeconds >= rows["TPLO"].Measured.SimSeconds {
		t.Fatalf("Test4: GG measured %.3f not below TPLO %.3f",
			rows["GG"].Measured.SimSeconds, rows["TPLO"].Measured.SimSeconds)
	}
	if rows["GG"].Classes >= rows["TPLO"].Classes {
		t.Fatalf("Test4: GG %d classes, TPLO %d", rows["GG"].Classes, rows["TPLO"].Classes)
	}

	// Test 6: all paper algorithms produce the same plan.
	t6, err := r.Test6()
	if err != nil {
		t.Fatal(err)
	}
	var plans []string
	for _, row := range t6.Rows {
		if row.Algorithm == "GG-full" {
			continue
		}
		plans = append(plans, row.Plan)
	}
	for _, p := range plans[1:] {
		if p != plans[0] {
			t.Fatalf("Test6: plans differ:\n%s\nvs\n%s", plans[0], p)
		}
	}
}

func TestAblations(t *testing.T) {
	r := testRunner(t)
	ls, err := r.AblationLookupSharing()
	if err != nil {
		t.Fatal(err)
	}
	if len(ls.Rows) != 2 {
		t.Fatalf("lookup sharing rows = %d", len(ls.Rows))
	}
	if ls.Rows[0].Measured.SimSeconds > ls.Rows[1].Measured.SimSeconds {
		t.Fatalf("lookup sharing (%.3f) slower than no sharing (%.3f)",
			ls.Rows[0].Measured.SimSeconds, ls.Rows[1].Measured.SimSeconds)
	}

	fc, err := r.AblationFilterConversion()
	if err != nil {
		t.Fatal(err)
	}
	if len(fc.Rows) != 4 {
		t.Fatalf("filter conversion rows = %d", len(fc.Rows))
	}

	rs, err := r.AblationRandSeqRatio()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 4 {
		t.Fatalf("rand/seq rows = %d", len(rs.Rows))
	}

	od, err := r.AblationGreedyOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(od.Rows) != 4 {
		t.Fatalf("greedy order rows = %d", len(od.Rows))
	}

	sk, err := r.AblationStatsUnderSkew()
	if err != nil {
		t.Fatal(err)
	}
	if len(sk.Rows) != 2 {
		t.Fatalf("skew rows = %d", len(sk.Rows))
	}
	// Statistics-based plans must not measure worse than the uniform
	// assumption on skewed data.
	if sk.Rows[0].Measured.SimSeconds > sk.Rows[1].Measured.SimSeconds*1.01 {
		t.Fatalf("stats plan %.3f worse than uniform %.3f",
			sk.Rows[0].Measured.SimSeconds, sk.Rows[1].Measured.SimSeconds)
	}

	var buf bytes.Buffer
	if err := r.RunAblations(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Ablation:") {
		t.Fatal("ablation report empty")
	}
}

func TestRunAllProducesReport(t *testing.T) {
	r := testRunner(t)
	var buf bytes.Buffer
	if err := r.RunAll(&buf); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	report := buf.String()
	for _, want := range []string{"Table 1", "Test 1 (Figure 10)", "Test 2 (Figure 11)",
		"Test 3 (Figure 12)", "Test 4 (Table 2)", "Test 7 (Table 2)"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

func TestOptimizerStudy(t *testing.T) {
	r := testRunner(t)
	study, err := r.OptimizerStudy()
	if err != nil {
		t.Fatal(err)
	}
	byN := map[int]map[string]StudyRow{}
	for _, row := range study.Rows {
		if byN[row.Queries] == nil {
			byN[row.Queries] = map[string]StudyRow{}
		}
		byN[row.Queries][row.Algorithm] = row
	}
	for n := 2; n <= 9; n++ {
		rows := byN[n]
		if len(rows) == 0 {
			t.Fatalf("no study rows for n=%d", n)
		}
		// The paper's §8 claim: search effort ordering TPLO < ETPLG < GG
		// (and far below exhaustive).
		if rows["GG"].CostEvals < rows["ETPLG"].CostEvals {
			t.Fatalf("n=%d: GG searched fewer plans (%d) than ETPLG (%d)",
				n, rows["GG"].CostEvals, rows["ETPLG"].CostEvals)
		}
		if opt, ok := rows["Optimal"]; ok && n >= 5 {
			if opt.CostEvals <= rows["GGI"].CostEvals {
				t.Fatalf("n=%d: exhaustive searched fewer plans (%d) than GGI (%d)",
					n, opt.CostEvals, rows["GGI"].CostEvals)
			}
			if opt.Ratio != 1 {
				t.Fatalf("n=%d: Optimal ratio %v != 1", n, opt.Ratio)
			}
		}
		// GGI never worse than either greedy start.
		if rows["GGI"].EstCost > rows["GG"].EstCost+1e-9 ||
			rows["GGI"].EstCost > rows["ETPLG"].EstCost+1e-9 {
			t.Fatalf("n=%d: GGI %v above a greedy start", n, rows["GGI"].EstCost)
		}
	}
	var buf bytes.Buffer
	study.Format(&buf)
	if !strings.Contains(buf.String(), "trade-off") {
		t.Fatal("study format empty")
	}
}

func TestAblationPoolSize(t *testing.T) {
	r := testRunner(t)
	ps, err := r.AblationPoolSize()
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Rows) != 3 {
		t.Fatalf("pool size rows = %d", len(ps.Rows))
	}
	// Hot-everything pool: separate runs stop re-reading, so their cost
	// drops well below the small-pool configuration.
	small := ps.Rows[0].Measured
	huge := ps.Rows[len(ps.Rows)-1].Measured
	if huge.PageReads >= small.PageReads {
		t.Fatalf("huge pool reads %d not below small pool %d", huge.PageReads, small.PageReads)
	}
}

func TestEstimatesTrackMeasurements(t *testing.T) {
	// The §5.1 cost model's estimates must track the executed plans'
	// counted work: per Table 2 row, |est - run| / run within 50%. The
	// loose cases are probe-regime plans, where Yao's model prices every
	// touched page as a random read while the measured run's ascending
	// fetches partially coalesce into sequential ones.
	r := testRunner(t)
	for _, run := range []func() (*AlgoResult, error){r.Test4, r.Test5, r.Test6, r.Test7} {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			diff := row.EstCost - row.Measured.SimSeconds
			if diff < 0 {
				diff = -diff
			}
			if diff/row.Measured.SimSeconds > 0.5 {
				t.Fatalf("%s %s: estimate %.3f vs measured %.3f (off %.0f%%)",
					res.Name, row.Algorithm, row.EstCost, row.Measured.SimSeconds,
					100*diff/row.Measured.SimSeconds)
			}
		}
	}
}
