package core

import (
	"context"
	"fmt"

	"mdxopt/internal/dag"
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
	// goroutine at once — concurrently running task-graph nodes (class
	// passes, cache rollups, shared lookup builds) AND the scan-morsel
	// workers a running class pass fans out, all drawing slots from one
	// dag.Pool. Values <= 1 run the graph serially in the legacy order
	// (builds, classes in plan order, cache rollups) with serial scans;
	// any width produces byte-identical results and identical
	// deterministic work counters. Widths beyond dag.WorkerCap() are
	// clamped.
	Workers int
	// Est prices each node's memory footprint for Gate and for the
	// graph's node costs. nil prices every node at zero (gating then
	// admits trivially).
	Est *plan.Estimator
	// Gate, when non-nil, admits each node's estimated footprint before
	// the node starts — typically mem.Broker.Admit — and its release runs
	// when the node finishes. Admission defers node starts while memory
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
	// DAGNodes is how many task-graph nodes the plan compiled to.
	DAGNodes int
	// WorkerPeak is the pool-wide concurrency peak: nodes running plus
	// the scan-morsel workers they fanned out, never exceeding the
	// effective width.
	WorkerPeak int
	// EffectiveWorkers is the width the run actually used: the requested
	// Workers clamped to [1, dag.WorkerCap()].
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

// Run compiles a global plan into an operator task graph and executes it
// on a bounded worker pool (internal/dag):
//
//   - one node per shared dimension-lookup build, grouped per dimension
//     and hoisted out of the class passes — classes touching the same
//     dimension share one build instead of each rebuilding it;
//   - one node per class pass (shared scan/index/mixed), depending on
//     every build node;
//   - one independent node per cache rollup.
//
// Every node runs on a private Env clone and accumulates into a private
// Stats; totals, attribution and the caller's stats are merged on join,
// after the graph has fully drained, so no Stats.Add ever races
// (merge-on-join). At every width each node restricts its I/O accounting
// to the files it owns (exec.Env.IOFiles): concurrent nodes touch
// disjoint files, so pool-global deltas would double-count each other's
// reads, and would also count pages that other goroutines sharing the
// buffer pool — a maintainer, a concurrent request — read from files the
// plan never touches. Per-file counters are read-side only, so a node's
// IO carries no Writes, Allocs or Evictions.
//
// The first node error cancels the rest of the graph; in-flight nodes
// drain — releasing their reservations, pins and spill files through the
// operators' own cleanup paths — before Run returns the error.
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
	// One pool for the whole run: node starts and the scan morsels class
	// passes fan out draw on the same slots.
	pool := dag.NewPool(opts.Workers)
	parallel := pool.Width() > 1

	// Shared lookup builds, hoisted out of the class passes. The set is
	// closed only after the graph has drained, so an error path never
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

	dimFiles := make([]*storage.File, len(env.DB.DimTables))
	for i, t := range env.DB.DimTables {
		dimFiles[i] = t.File()
	}

	var graph dag.Graph
	buildStats := make([]exec.Stats, len(builds))
	buildNodes := make([]*dag.Node, len(builds))
	for bi, t := range builds {
		bi, t := bi, t
		nodeEnv := *env
		nodeEnv.Lookups = lookups
		nodeEnv.IOFiles = dimFiles[t.Dim : t.Dim+1 : t.Dim+1]
		specs := make([]exec.LookupBuild, len(t.Specs))
		for i, s := range t.Specs {
			specs[i] = exec.LookupBuild{Query: s.Query, Dim: s.Dim, ViewLevel: s.ViewLevel}
		}
		buildNodes[bi] = graph.Add(&dag.Node{
			Label: "build " + env.DB.Schema.Dims[t.Dim].Name,
			Cost:  nodeCost(opts.Est, func(e *plan.Estimator) int64 { return e.BuildMemory(t) }),
			Run: func(nctx context.Context) error {
				e := nodeEnv
				e.Ctx = nctx
				return e.BuildLookups(lookups, specs, &buildStats[bi])
			},
		})
	}

	type classOut struct {
		qs []*query.Query
		rs []*exec.Result
		cs exec.Stats
	}
	classOuts := make([]classOut, len(g.Classes))
	for ci, c := range g.Classes {
		ci, c := ci, c
		hashQs := plansQueries(c.HashPlans())
		indexQs := plansQueries(c.IndexPlans())
		nodeEnv := *env
		nodeEnv.Lookups = lookups
		nodeEnv.IOFiles = classFiles(c, dimFiles)
		if parallel {
			// The pass's scan morsels draw on the run's pool.
			nodeEnv.Pool = pool
		}
		graph.Add(&dag.Node{
			Label: "class " + c.View.Name,
			Cost:  nodeCost(opts.Est, func(e *plan.Estimator) int64 { return e.ClassPassMemory(c, lookups != nil) }),
			Run: func(nctx context.Context) error {
				e := nodeEnv
				e.Ctx = nctx
				out := &classOuts[ci]
				if c.Regime == plan.ProbeRegime {
					rs, err := exec.SharedIndex(&e, c.View, indexQs, &out.cs)
					if err != nil {
						return err
					}
					out.qs, out.rs = indexQs, rs
					return nil
				}
				hr, ir, err := exec.SharedMixed(&e, c.View, hashQs, indexQs, &out.cs)
				if err != nil {
					return err
				}
				out.qs = append(append([]*query.Query{}, hashQs...), indexQs...)
				out.rs = append(append([]*exec.Result{}, hr...), ir...)
				return nil
			},
		}, buildNodes...)
	}

	type cacheOut struct {
		r  *exec.Result
		cs exec.Stats
	}
	cacheOuts := make([]cacheOut, len(g.Cached))
	for i, cp := range g.Cached {
		i, cp := i, cp
		nodeEnv := *env
		nodeEnv.IOFiles = []*storage.File{} // the rollup reads no pages
		graph.Add(&dag.Node{
			Label: "cache rollup for " + cp.Query.QualifiedName(),
			Cost:  nodeCost(opts.Est, func(e *plan.Estimator) int64 { return e.CacheMemory(cp) }),
			Run: func(nctx context.Context) error {
				e := nodeEnv
				e.Ctx = nctx
				r, err := exec.RollupCached(&e, cp.Entry, cp.Query, &cacheOuts[i].cs)
				if err != nil {
					return err
				}
				cacheOuts[i].r = r
				return nil
			},
		})
	}

	dagStats, err := graph.Run(ctx, dag.Options{Pool: pool, Gate: opts.Gate})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Join: the graph has drained, so every node's private output is
	// stable. The hoisted builds are shared by every class; split their
	// work equally across the classes, then split each class — builds
	// included — across its queries. Totals are conserved: the class
	// stats sum to exactly the pass + build work performed.
	for bi := range buildStats {
		for ci, share := range exec.Attribute(buildStats[bi], make([]exec.Stats, len(g.Classes))) {
			classOuts[ci].cs.Add(share)
		}
	}

	ex := &Execution{
		DAGNodes:         dagStats.Nodes,
		WorkerPeak:       dagStats.WorkerPeak,
		EffectiveWorkers: pool.Width(),
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

// nodeCost prices one node with est, or zero without an estimator.
func nodeCost(est *plan.Estimator, f func(*plan.Estimator) int64) int64 {
	if est == nil {
		return 0
	}
	return f(est)
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
