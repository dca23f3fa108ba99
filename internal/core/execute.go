package core

import (
	"context"
	"fmt"
	"slices"

	"mdxopt/internal/exec"
	"mdxopt/internal/plan"
	"mdxopt/internal/query"
	"mdxopt/internal/storage"
)

// ClassStat records the work one class's shared pass performed — the
// per-class breakdown behind an EXPLAIN ANALYZE.
type ClassStat struct {
	View    string
	Regime  string
	Queries []string
	Stats   exec.Stats
}

// ExecOptions configures Run.
type ExecOptions struct {
	// Workers is the unified pool width: it bounds every executor
	// goroutine at once — the workers claiming the run's tasks (lookup
	// builds, class passes, cache rollups) AND the scan-morsel workers a
	// running class pass fans out, all holding slots of one exec.Pool.
	// Values <= 1 run every task inline, in order (builds, classes in
	// plan order, cache rollups), with serial scans; any width produces
	// byte-identical results and identical deterministic work counters.
	// Widths beyond exec.WorkerCap() are clamped.
	Workers int
	// Est prices each task's memory footprint for Gate. nil prices
	// every task at zero (gating then admits trivially).
	Est *plan.Estimator
	// Gate, when non-nil, admits each task's estimated footprint before
	// the task starts — typically mem.Broker.Admit — and its release runs
	// when the task finishes. Admission defers task starts while memory
	// is saturated, so at tight budgets inter-class parallelism degrades
	// toward the serial order instead of violating the budget.
	Gate func(ctx context.Context, cost int64) (release func(), err error)
}

// Execution is Run's full output.
type Execution struct {
	// Results are ordered to match the queries passed to Run.
	Results []*exec.Result
	// PerQuery is each query's attributed work: its non-shared work
	// exactly plus an equal share of its class's shared work (and of the
	// hoisted lookup builds its class consumed).
	PerQuery []exec.Stats
	// Classes covers the plan's classes in order, followed by one entry
	// per cache-served query (View "cache:<entry>", Regime "cache").
	Classes []ClassStat
	// DAGNodes is how many tasks the plan ran: lookup builds + class
	// passes + cache rollups.
	DAGNodes int
	// WorkerPeak is the pool-wide concurrency peak: task workers plus
	// the scan-morsel workers they fanned out, never exceeding the
	// effective width.
	WorkerPeak int
	// EffectiveWorkers is the width the run actually used: the requested
	// Workers clamped to [1, exec.WorkerCap()].
	EffectiveWorkers int
}

// Execute runs a global plan with the §3 shared operators — one shared
// pass per class — and returns results ordered to match queries. Work is
// accumulated into stats.
func Execute(env *exec.Env, g *plan.Global, queries []*query.Query, stats *exec.Stats) ([]*exec.Result, error) {
	ex, err := Run(env, g, queries, stats, ExecOptions{})
	if err != nil {
		return nil, err
	}
	return ex.Results, nil
}

// Run executes a global plan as two task lists on one bounded worker
// pool (exec.RunTasks):
//
//   - first the shared dimension-lookup builds, one per dimension,
//     hoisted out of the class passes — classes touching the same
//     dimension share one build instead of each rebuilding it;
//   - then one task per class pass (shared scan/index/mixed), followed
//     by one per cache rollup.
//
// The lists run one after the other, so every build has finished before
// any class pass reads the set; within a list the tasks are mutually
// independent. Every task runs on a private Env copy and accumulates
// into a private Stats; totals, attribution and the caller's stats are
// merged on join, after both lists have drained, so no Stats.Add ever
// races (merge-on-join). At every width each task restricts its I/O
// accounting to the files it owns (exec.Env.IOFiles): concurrent tasks
// touch disjoint files, so pool-global deltas would double-count each
// other's reads, and would also count pages that other goroutines
// sharing the buffer pool — a maintainer, a concurrent request — read
// from files the plan never touches. Per-file counters are read-side
// only, so a task's IO carries no Writes, Allocs or Evictions.
//
// The first task error cancels the rest of the run; in-flight tasks
// drain — releasing their reservations, pins and spill files through the
// operators' own cleanup paths — before Run returns the error, labeled
// with the failing task.
func Run(env *exec.Env, g *plan.Global, queries []*query.Query, stats *exec.Stats, opts ExecOptions) (*Execution, error) {
	for _, c := range g.Classes {
		if c.Regime == plan.ProbeRegime && len(c.HashPlans()) > 0 {
			return nil, fmt.Errorf("core: class %s: probe regime with hash members", c.View.Name)
		}
	}
	ctx := env.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ex := &Execution{EffectiveWorkers: min(max(opts.Workers, 1), exec.WorkerCap())}
	// One pool for the whole run, only when it is parallel: task workers
	// and the scan morsels class passes fan out hold the same slots.
	var pool *exec.Pool
	if ex.EffectiveWorkers > 1 {
		pool = exec.NewPool(ex.EffectiveWorkers)
	}

	// Shared lookup builds, hoisted out of the class passes. The set is
	// closed only after the run has drained, so an error path never
	// frees lookups a still-running pass is reading.
	var builds []plan.BuildTask
	var lookups *exec.LookupSet
	if env.ShareLookups {
		builds = plan.BuildTasks(g)
	}
	if len(builds) > 0 {
		lookups = exec.NewLookupSet(env.Mem)
		defer lookups.Close()
	}
	ex.DAGNodes = len(builds) + len(g.Classes) + len(g.Cached)

	dimFiles := make([]*storage.File, len(env.DB.DimTables))
	for i, t := range env.DB.DimTables {
		dimFiles[i] = t.File()
	}

	buildStats := make([]exec.Stats, len(builds))
	err := exec.RunTasks(ctx, pool, len(builds), func(ctx context.Context, bi int) error {
		t := &builds[bi]
		return opts.runTask(ctx, func() string { return "build " + env.DB.Schema.Dims[t.Dim].Name },
			func(e *plan.Estimator) int64 { return e.BuildMemory(*t) },
			func() error {
				e := *env
				e.Ctx, e.Lookups, e.IOFiles = ctx, lookups, dimFiles[t.Dim:t.Dim+1:t.Dim+1]
				specs := make([]exec.LookupBuild, len(t.Specs))
				for i, s := range t.Specs {
					specs[i] = exec.LookupBuild{Query: s.Query, Dim: s.Dim, ViewLevel: s.ViewLevel}
				}
				return e.BuildLookups(lookups, specs, &buildStats[bi])
			})
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	type classOut struct {
		qs []*query.Query
		rs []*exec.Result
		cs exec.Stats
	}
	type cacheOut struct {
		r  *exec.Result
		cs exec.Stats
	}
	classOuts := make([]classOut, len(g.Classes))
	cacheOuts := make([]cacheOut, len(g.Cached))
	err = exec.RunTasks(ctx, pool, len(g.Classes)+len(g.Cached), func(ctx context.Context, i int) error {
		e := *env
		e.Ctx = ctx
		if i >= len(g.Classes) {
			cp, out := g.Cached[i-len(g.Classes)], &cacheOuts[i-len(g.Classes)]
			e.IOFiles = []*storage.File{} // the rollup reads no pages
			return opts.runTask(ctx, func() string { return "cache rollup for " + cp.Query.QualifiedName() },
				func(est *plan.Estimator) int64 { return est.CacheMemory(cp) },
				func() (err error) {
					out.r, err = exec.RollupCached(&e, cp.Entry, cp.Query, &out.cs)
					return err
				})
		}
		c, out := g.Classes[i], &classOuts[i]
		e.Lookups, e.IOFiles = lookups, classFiles(c, dimFiles)
		if pool != nil {
			// The pass's scan morsels draw on the run's pool.
			e.Pool = pool
		}
		return opts.runTask(ctx, func() string { return "class " + c.View.Name },
			func(est *plan.Estimator) int64 { return est.ClassPassMemory(c, lookups != nil) },
			func() error {
				hashQs, indexQs := plansQueries(c.HashPlans()), plansQueries(c.IndexPlans())
				if c.Regime == plan.ProbeRegime {
					rs, err := exec.SharedIndex(&e, c.View, indexQs, &out.cs)
					out.qs, out.rs = indexQs, rs
					return err
				}
				hr, ir, err := exec.SharedMixed(&e, c.View, hashQs, indexQs, &out.cs)
				out.qs, out.rs = slices.Concat(hashQs, indexQs), slices.Concat(hr, ir)
				return err
			})
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if ex.DAGNodes > 0 {
		ex.WorkerPeak = max(pool.Peak(), 1)
	}

	// Join: both lists have drained, so every task's private output is
	// stable. The hoisted builds are shared by every class; split their
	// work equally across the classes, then split each class — builds
	// included — across its queries. Totals are conserved: the class
	// stats sum to exactly the pass + build work performed.
	for bi := range buildStats {
		for ci, share := range exec.Attribute(buildStats[bi], make([]exec.Stats, len(g.Classes))) {
			classOuts[ci].cs.Add(share)
		}
	}

	byQuery := map[*query.Query]*exec.Result{}
	perQuery := map[*query.Query]exec.Stats{}
	for ci, c := range g.Classes {
		out := &classOuts[ci]
		owns := make([]exec.Stats, len(out.rs))
		for i, r := range out.rs {
			byQuery[out.qs[i]] = r
			owns[i] = r.Own
		}
		for i, s := range exec.Attribute(out.cs, owns) {
			perQuery[out.qs[i]] = s
		}
		stats.Add(out.cs)
		names := make([]string, 0, len(c.Plans))
		for _, p := range c.Plans {
			names = append(names, p.Query.QualifiedName())
		}
		ex.Classes = append(ex.Classes, ClassStat{
			View:    c.View.Name,
			Regime:  c.Regime.String(),
			Queries: names,
			Stats:   out.cs,
		})
	}
	for i, cp := range g.Cached {
		out := &cacheOuts[i]
		byQuery[cp.Query] = out.r
		perQuery[cp.Query] = out.cs
		stats.Add(out.cs)
		ex.Classes = append(ex.Classes, ClassStat{
			View:    "cache:" + cp.Entry.Name,
			Regime:  "cache",
			Queries: []string{cp.Query.QualifiedName()},
			Stats:   out.cs,
		})
	}
	ex.Results = make([]*exec.Result, len(queries))
	ex.PerQuery = make([]exec.Stats, len(queries))
	for i, q := range queries {
		r, ok := byQuery[q]
		if !ok {
			return nil, fmt.Errorf("core: plan has no result for %s", q)
		}
		ex.Results[i] = r
		ex.PerQuery[i] = perQuery[q]
	}
	return ex, nil
}

// runTask runs one task admitted through o.Gate with its footprint as
// cost prices it (zero without an estimator), and labels its failure —
// a refusal as an admission error.
func (o ExecOptions) runTask(ctx context.Context, label func() string, cost func(*plan.Estimator) int64, run func() error) error {
	if o.Gate != nil {
		var c int64
		if o.Est != nil {
			c = cost(o.Est)
		}
		release, err := o.Gate(ctx, c)
		if err != nil {
			return fmt.Errorf("admit %s: %w", label(), err)
		}
		defer release()
	}
	if err := run(); err != nil {
		return fmt.Errorf("%s: %w", label(), err)
	}
	return nil
}

// classFiles enumerates the files a class pass may touch: the view's
// heap, its bitmap join indexes, and the dimension tables (read only
// when the pass builds a lookup the hoisted set lacks — with lookup
// sharing off, every lookup — so concurrent classes re-reading one
// dimension table may attribute the same read to more than one class;
// totals remain upper bounds).
func classFiles(c *plan.Class, dimFiles []*storage.File) []*storage.File {
	n := 1 + len(dimFiles)
	for _, ix := range c.View.Indexes {
		if ix != nil {
			n++
		}
	}
	files := make([]*storage.File, 0, n)
	files = append(files, c.View.Heap.File())
	for _, ix := range c.View.Indexes {
		if ix != nil {
			files = append(files, ix.File())
		}
	}
	return append(files, dimFiles...)
}

func plansQueries(plans []*plan.Local) []*query.Query {
	out := make([]*query.Query, len(plans))
	for i, p := range plans {
		out[i] = p.Query
	}
	return out
}
