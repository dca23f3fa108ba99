package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mdxopt/internal/core"
	"mdxopt/internal/cost"
	"mdxopt/internal/datagen"
	"mdxopt/internal/exec"
	"mdxopt/internal/plan"
	"mdxopt/internal/query"
	"mdxopt/internal/star"
	"mdxopt/internal/workload"
)

// AblationRow is one configuration's measurement in an ablation study.
type AblationRow struct {
	Config   string
	Measured Measurement
	Note     string
}

// AblationResult is one ablation study.
type AblationResult struct {
	Name string
	Rows []AblationRow
}

// Format renders the ablation as a table.
func (a *AblationResult) Format(w io.Writer) {
	fmt.Fprintf(w, "Ablation: %s\n", a.Name)
	fmt.Fprintf(w, "%-34s %12s %12s  %s\n", "configuration", "run(sim s)", "pages", "note")
	for _, row := range a.Rows {
		fmt.Fprintf(w, "%-34s %12.3f %12d  %s\n", row.Config, row.Measured.SimSeconds, row.Measured.PageReads, row.Note)
	}
}

// AblationLookupSharing isolates §3.1's second sharing opportunity:
// running Test 1's four-query shared scan with and without dimension
// lookup-table sharing.
func (r *Runner) AblationLookupSharing() (*AblationResult, error) {
	group := r.qs("Q1", "Q2", "Q3", "Q4")
	base := r.DB.Base()
	out := &AblationResult{Name: "dimension lookup sharing in the shared scan (§3.1)"}

	for _, sharing := range []bool{true, false} {
		env := exec.NewEnv(r.DB)
		env.ShareLookups = sharing
		if err := r.DB.ColdReset(); err != nil {
			return nil, err
		}
		var st exec.Stats
		if _, err := exec.SharedScanHash(env, base, group, &st); err != nil {
			return nil, err
		}
		label := "shared lookup tables"
		if !sharing {
			label = "per-query lookup tables"
		}
		out.Rows = append(out.Rows, AblationRow{
			Config:   label,
			Measured: r.measurement(st),
			Note:     fmt.Sprintf("%d lookup rows built", st.HashBuildRows),
		})
	}
	return out, nil
}

// AblationFilterConversion compares the paper's plan space against the
// full model on the hash-heavy Test 4 and Test 7 query sets, executing
// each GG plan.
func (r *Runner) AblationFilterConversion() (*AblationResult, error) {
	out := &AblationResult{Name: "paper plan space vs full model (filter conversion + clustered probes)"}
	sets := []struct {
		name  string
		names []string
	}{
		{"test4", []string{"Q1", "Q2", "Q3"}},
		{"test7", []string{"Q1", "Q7", "Q9"}},
	}
	for _, s := range sets {
		queries := r.qs(s.names...)
		for _, mode := range []struct {
			label string
			est   *plan.Estimator
		}{
			{"paper plan space", plan.NewPaperEstimator(r.DB)},
			{"full model", plan.NewEstimator(r.DB)},
		} {
			g, err := core.Optimize(mode.est, queries, core.GG)
			if err != nil {
				return nil, err
			}
			if err := r.DB.ColdReset(); err != nil {
				return nil, err
			}
			var st exec.Stats
			if _, err := core.Execute(r.Env, g, queries, &st); err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, AblationRow{
				Config:   s.name + ": GG, " + mode.label,
				Measured: r.measurement(st),
				Note:     fmt.Sprintf("%d classes", len(g.Classes)),
			})
		}
	}
	return out, nil
}

// AblationRandSeqRatio sweeps the random/sequential page cost ratio and
// reports which plan GG chooses for Test 5's queries — the knob behind
// the paper's hash/index crossover.
func (r *Runner) AblationRandSeqRatio() (*AblationResult, error) {
	queries := r.qs("Q2", "Q3", "Q5")
	out := &AblationResult{Name: "random/sequential cost ratio sweep (GG plan on Test 5 queries)"}
	for _, ratio := range []float64{1, 4, 10, 40} {
		est := plan.NewPaperEstimator(r.DB)
		model := *cost.Default()
		model.RandPage = model.SeqPage * ratio
		est.Model = &model
		g, err := core.Optimize(est, queries, core.GG)
		if err != nil {
			return nil, err
		}
		if err := r.DB.ColdReset(); err != nil {
			return nil, err
		}
		var st exec.Stats
		if _, err := core.Execute(r.Env, g, queries, &st); err != nil {
			return nil, err
		}
		indexPlans := 0
		for _, c := range g.Classes {
			indexPlans += len(c.IndexPlans())
		}
		out.Rows = append(out.Rows, AblationRow{
			Config:   fmt.Sprintf("rand/seq = %gx", ratio),
			Measured: r.measurement(st),
			Note:     fmt.Sprintf("%d classes, %d index plans", len(g.Classes), indexPlans),
		})
	}
	return out, nil
}

// AblationGreedyOrder compares ETPLG/GG with the paper's finest-first
// query ordering against coarsest-first.
func (r *Runner) AblationGreedyOrder() (*AblationResult, error) {
	queries := r.qs("Q1", "Q2", "Q3", "Q4", "Q9")
	out := &AblationResult{Name: "greedy insertion order (5 hash-heavy queries)"}
	for _, alg := range []core.Algorithm{core.ETPLG, core.GG} {
		for _, coarsest := range []bool{false, true} {
			est := plan.NewPaperEstimator(r.DB)
			g, err := core.OptimizeWith(est, queries, alg, core.Options{CoarsestFirst: coarsest})
			if err != nil {
				return nil, err
			}
			if err := r.DB.ColdReset(); err != nil {
				return nil, err
			}
			var st exec.Stats
			if _, err := core.Execute(r.Env, g, queries, &st); err != nil {
				return nil, err
			}
			order := "finest-first"
			if coarsest {
				order = "coarsest-first"
			}
			out.Rows = append(out.Rows, AblationRow{
				Config:   fmt.Sprintf("%s, %s", alg, order),
				Measured: r.measurement(st),
				Note:     fmt.Sprintf("%d classes", len(g.Classes)),
			})
		}
	}
	return out, nil
}

// AblationStatsUnderSkew builds a Zipf-skewed copy of the database and
// compares GG's plans with statistics-based selectivity estimation on
// and off. Under skew the uniform assumption badly misprices selective
// predicates; measured frequencies keep the estimates honest.
func (r *Runner) AblationStatsUnderSkew() (*AblationResult, error) {
	out := &AblationResult{Name: "selectivity statistics under Zipf skew (GG, hot-member queries)"}
	dir, err := os.MkdirTemp("", "mdxopt-skew")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	spec := datagen.PaperSpec(minFloat(r.Scale, 0.05))
	spec.Zipf = 1.3
	db, err := datagen.Build(filepath.Join(dir, "db"), spec)
	if err != nil {
		return nil, err
	}
	defer db.Close()

	// Q7-shaped queries over the *hot* members (code 0 of each dimension
	// under Zipf). Uniformly they look extremely selective — one member
	// of each mid level — so the optimizer picks bitmap probes; in truth
	// the hot members cover a large slice of the table and the probes
	// touch most pages. Measured frequencies reveal this and flip the
	// plan to a scan.
	hot := func(name string) (*query.Query, error) {
		return query.New(name, db.Schema, []int{1, 1, 1, 1}, []query.Predicate{
			{Members: []int32{0}}, // hottest A' member
			{Members: []int32{0}},
			{Members: []int32{0}},
			{Members: []int32{0}}, // DD1
		})
	}
	h1, err := hot("H1")
	if err != nil {
		return nil, err
	}
	h2, err := query.New("H2", db.Schema, []int{1, 1, 2, 1}, []query.Predicate{
		{Members: []int32{0}},
		{Members: []int32{0}},
		{Members: []int32{0}},
		{Members: []int32{0}},
	})
	if err != nil {
		return nil, err
	}
	queries := []*query.Query{h1, h2}
	env := exec.NewEnv(db)

	for _, useStats := range []bool{true, false} {
		est := plan.NewEstimator(db)
		est.UseStats = useStats
		g, err := core.Optimize(est, queries, core.GG)
		if err != nil {
			return nil, err
		}
		if err := db.ColdReset(); err != nil {
			return nil, err
		}
		var st exec.Stats
		if _, err := core.Execute(env, g, queries, &st); err != nil {
			return nil, err
		}
		label := "measured frequencies"
		if !useStats {
			label = "uniform assumption"
		}
		out.Rows = append(out.Rows, AblationRow{
			Config:   label,
			Measured: r.measurement(st),
			Note:     fmt.Sprintf("%d classes", len(g.Classes)),
		})
	}
	return out, nil
}

func minFloat(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// AblationPoolSize reruns Test 1's four-query comparison with different
// buffer pool sizes by reopening the database: when the pool holds the
// whole base table, the separate runs stop paying repeated scan I/O and
// the shared operator's advantage shrinks to CPU-only effects.
func (r *Runner) AblationPoolSize() (*AblationResult, error) {
	out := &AblationResult{Name: "buffer pool size (Test 1's 4-query separate vs shared)"}
	basePages := r.DB.Base().Pages()
	group := []string{"Q1", "Q2", "Q3", "Q4"}

	// The sweep reopens the directory with fresh pools; everything the
	// runner's own pool still holds dirty (e.g. index rebuilds from
	// other ablations) must reach disk first.
	if err := r.DB.ColdReset(); err != nil {
		return nil, err
	}

	for _, frames := range []int{256, 2048, int(basePages) + 512} {
		db, err := star.Open(r.DB.Dir, frames)
		if err != nil {
			return nil, err
		}
		qs, err := workload.PaperQueries(db.Schema)
		if err != nil {
			db.Pool.CloseFiles()
			return nil, err
		}
		env := exec.NewEnv(db)
		queries := make([]*query.Query, len(group))
		for i, n := range group {
			queries[i] = qs[n]
		}

		// Separate runs WITHOUT cold resets: a big pool keeps the table
		// hot between queries, which is the effect under study.
		var sep exec.Stats
		for _, q := range queries {
			if _, err := exec.HashJoinQuery(env, db.Base(), q, &sep); err != nil {
				db.Pool.CloseFiles()
				return nil, err
			}
		}
		if err := db.ColdReset(); err != nil {
			db.Pool.CloseFiles()
			return nil, err
		}
		var shared exec.Stats
		if _, err := exec.SharedScanHash(env, db.Base(), queries, &shared); err != nil {
			db.Pool.CloseFiles()
			return nil, err
		}
		label := fmt.Sprintf("%5d frames (base = %d pages)", frames, basePages)
		out.Rows = append(out.Rows, AblationRow{
			Config:   label,
			Measured: Measurement{SimSeconds: sep.SimulatedSeconds(r.Model), PageReads: sep.IO.Reads(), Wall: sep.Wall},
			Note: fmt.Sprintf("separate; shared=%.3f sim-s, speedup %.2fx",
				shared.SimulatedSeconds(r.Model),
				sep.SimulatedSeconds(r.Model)/shared.SimulatedSeconds(r.Model)),
		})
		if err := db.Pool.CloseFiles(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunAblations executes every ablation and writes the report to w.
func (r *Runner) RunAblations(w io.Writer) error {
	for _, f := range []func() (*AblationResult, error){
		r.AblationLookupSharing,
		r.AblationFilterConversion,
		r.AblationRandSeqRatio,
		r.AblationGreedyOrder,
		r.AblationStatsUnderSkew,
		r.AblationPoolSize,
	} {
		res, err := f()
		if err != nil {
			return err
		}
		res.Format(w)
		fmt.Fprintln(w)
	}
	return nil
}
