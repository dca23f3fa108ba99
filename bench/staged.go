package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"mdxopt"
	"mdxopt/internal/core"
	"mdxopt/internal/cost"
	"mdxopt/internal/exec"
	"mdxopt/internal/mdx"
	"mdxopt/internal/mem"
	"mdxopt/internal/plan"
	"mdxopt/internal/query"
	"mdxopt/internal/rescache"
	"mdxopt/internal/star"
	"mdxopt/internal/storage"
	"mdxopt/internal/table"
)

// stager replays expressions stage by stage through the layers'
// exported functions, doing what the facade's plan and run steps do
// (mdxopt.go) with a span around each: parse and translate, optimize
// (with all three algorithms; only GG's plan runs), cold reset, hoisted
// lookup builds, one shared operator per class, cache rollups, result
// cache upkeep, answer formatting. At more than one worker the classes
// cannot be driven one by one without losing what the workload is
// about, so the whole plan runs under one core.run span.
type stager struct {
	r   *run
	in  *instance
	sdb *star.Database
	tr  *tracer

	broker *mem.Broker
	rc     *rescache.Cache
	plans  map[string]*stagedPlan // the facade's plan cache, re-enacted

	d       samples
	exprs   int
	total   exec.Stats // all operators
	scan    exec.Stats // scan-regime classes
	index   exec.Stats // probe-regime classes
	io      storage.Stats
	estTPLO []float64
	estGG   []float64
	wallW1  []float64
	wallW2  []float64
}

type stagedPlan struct {
	epoch, rcEpoch uint64
	queries        []*query.Query
	global         *plan.Global
}

// stagedOut is what the replay hands back to the traced pass.
type stagedOut struct {
	layerSum []float64 // per expression: sum of stage spans / facade latency
	assemble []float64 // per expression: facade latency - sum of stage spans, microseconds
	samples  []sample
}

func newStager(r *run, in *instance, sdb *star.Database, tr *tracer) *stager {
	s := &stager{r: r, in: in, sdb: sdb, tr: tr, broker: mem.New(in.opts.MemoryBudget),
		plans: map[string]*stagedPlan{}, d: samples{}}
	if in.opts.ResultCacheBudget > 0 {
		s.rc = rescache.New(in.opts.ResultCacheBudget, s.broker)
	}
	return s
}

// replayPrefix replays the first stagedPrefix of what the traced facade
// phase sent, for at most the given time. A fixed pool is replayed once
// to miss the plan cache, as the facade's warm pass did, which yields
// the parse and optimize times, and then again and again until the time
// is up: those passes hit it, as the facade's timed passes did, and are
// the ones compared with the facade's latencies.
func (s *stager) replayPrefix(obs *facadeObs, seconds float64) (*stagedOut, error) {
	if err := s.warm(); err != nil {
		return nil, err
	}
	prefix := obs.order[:int(math.Ceil(float64(len(obs.order))*stagedPrefix))]
	fixed := len(s.in.pool)
	out := &stagedOut{}
	stages := map[string][]float64{} // text -> sums of stage spans of the comparable replays
	before := s.sdb.Pool.Stats()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	next := func(i int) (expr, bool) {
		late := time.Now().After(deadline)
		if fixed > 0 {
			// The miss pass and one hit pass, then whole passes while
			// time is left.
			return s.in.pool[i%fixed], !(late && i >= 2*fixed && i%fixed == 0)
		}
		if i >= len(prefix) || (late && i > 0) {
			return expr{}, false
		}
		return prefix[i], true
	}
	for i := 0; ; i++ {
		e, ok := next(i)
		if !ok {
			break
		}
		if i == fixed && fixed > 0 {
			// The miss pass is over: keep its parse and optimize times,
			// start the operators' numbers afresh.
			s.exprs, s.total, s.scan, s.index = 0, exec.Stats{}, exec.Stats{}, exec.Stats{}
			for name := range s.d {
				if !strings.HasPrefix(name, "mdx.") && !strings.HasPrefix(name, "core.") {
					delete(s.d, name)
				}
			}
			before = s.sdb.Pool.Stats()
		}
		sum, digest, hit, err := s.replay(i+1, e)
		if err != nil {
			return nil, fmt.Errorf("staged: %s: %w", e.text, err)
		}
		// After the facade phases every load is in; the loads the staged
		// maintenance cycles add later carry the largest epoch.
		s.r.settle(s.in, e, digest, math.MaxUint64-1, i+1, &out.samples)
		if hit || fixed == 0 {
			stages[e.text] = append(stages[e.text], sum)
		}
	}
	s.io = s.sdb.Pool.Stats().Sub(before)
	for text, sums := range stages {
		if lats := obs.lat[text]; len(lats) > 0 {
			staged, facade := median(sums), median(lats)
			out.layerSum = append(out.layerSum, staged/facade)
			out.assemble = append(out.assemble, facade-staged)
		}
	}
	if s.in.opts.Workers > 1 {
		if err := s.widthSpeedup(prefix); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// warm brings the star handle to the state the facade was measured in:
// where the pool holds the data, by reading every view once. (A result
// cache needs nothing: every replayed block starts by emptying it, as
// the facade's did.)
func (s *stager) warm() error {
	if s.r.w.smallPool {
		return nil
	}
	for _, v := range s.sdb.Views {
		if err := v.Heap.ScanRangeBatches(0, v.Heap.Count(), func(*table.Batch) error { return nil }); err != nil {
			return err
		}
	}
	return nil
}

// stage times one stage as a child span of root and adds it to the
// expression's sum.
func (s *stager) stage(name string, root, id int, sumUS *float64, f func() error) error {
	sp := s.tr.begin(name, root, id)
	err := f()
	d := s.tr.end(sp, nil)
	s.d.add(name, d)
	if sumUS != nil {
		*sumUS += float64(d.Nanoseconds()) / 1e3
	}
	return err
}

// replay is the facade's QueryContext, opened up. It returns the sum of
// the stage spans the facade would also have spent, in microseconds,
// the digest of the formatted answer, and whether the plan was cached.
func (s *stager) replay(id int, e expr) (stagesUS float64, digest uint64, hit bool, err error) {
	pin := time.Now()
	snap, release := s.sdb.Pin()
	s.d.add("star.pin", time.Since(pin))
	defer release()
	root := s.tr.begin("staged.expr", 0, id)
	defer func() { s.tr.end(root, nil) }()

	if e.newDay {
		s.rc.Invalidate()
	}
	opts := s.r.w.queryOptions(e, s.in.facts)
	p := s.plans[e.text]
	hit = p != nil && p.epoch == snap.Epoch && p.rcEpoch == s.rc.Epoch()
	if !hit {
		p = &stagedPlan{epoch: snap.Epoch, rcEpoch: s.rc.Epoch()}
		if err = s.stage("mdx.parse_translate", root, id, &stagesUS, func() (err error) {
			p.queries, err = mdx.ParseAndTranslate(snap.Schema, e.text)
			return err
		}); err != nil {
			return
		}
		for _, q := range p.queries {
			q := q
			s.stage("rescache.probe", 0, id, nil, func() error { s.rc.Probe(q, snap.Epoch); return nil })
		}
		// Optimizer time, reported apart from execution time. The facade
		// runs GG only; the other two are measured beside it, outside
		// the expression's sum.
		for _, alg := range []core.Algorithm{core.TPLO, core.ETPLG, core.GG} {
			est := plan.NewEstimator(snap)
			est.Cache, est.Gen = s.rc, snap.Epoch
			var g *plan.Global
			parent, into := 0, (*float64)(nil)
			if alg == core.GG {
				parent, into = root, &stagesUS
			}
			name := "core.optimize_" + map[core.Algorithm]string{core.TPLO: "tplo", core.ETPLG: "etplg", core.GG: "gg"}[alg]
			if err = s.stage(name, parent, id, into, func() (err error) {
				g, err = core.Optimize(est, p.queries, alg)
				return err
			}); err != nil {
				return
			}
			switch alg {
			case core.TPLO:
				s.estTPLO = append(s.estTPLO, est.GlobalCost(g))
			case core.GG:
				s.estGG = append(s.estGG, est.GlobalCost(g))
				p.global = g
			}
		}
		s.plans[e.text] = p
	}

	env := exec.NewEnv(snap)
	env.Ctx = context.Background()
	env.Mem, env.SpillDir = s.broker, s.in.spill
	if opts.MemoryBudget > 0 {
		env.Mem = s.broker.Child(opts.MemoryBudget)
	}
	if opts.ColdCache {
		if err = s.stage("storage.cold_reset", root, id, &stagesUS, snap.ColdReset); err != nil {
			return
		}
	}
	workers := s.in.opts.Workers
	if opts.Workers > 0 {
		workers = opts.Workers
	}
	var results map[*query.Query]*exec.Result
	var perQuery map[*query.Query]exec.Stats
	var st exec.Stats
	if workers > 1 {
		err = s.stage("core.run", root, id, &stagesUS, func() error {
			ex, err := core.Run(env, p.global, p.queries, &st, execOptions(snap, workers, env.Mem))
			if err != nil {
				return err
			}
			results, perQuery = map[*query.Query]*exec.Result{}, map[*query.Query]exec.Stats{}
			for i, q := range p.queries {
				results[q], perQuery[q] = ex.Results[i], ex.PerQuery[i]
			}
			return nil
		})
	} else {
		results, perQuery, err = s.runSerial(root, id, env, p.global, &st, &stagesUS)
	}
	if err != nil {
		return
	}
	s.total.Add(st)
	s.exprs++

	if s.rc != nil {
		s.stage("rescache.note", root, id, &stagesUS, func() error {
			for _, cp := range p.global.Cached {
				s.rc.Touch(cp.Entry)
			}
			s.rc.RecordHits(int64(len(p.global.Cached)))
			s.rc.RecordMisses(int64(len(p.queries) - len(p.global.Cached)))
			return nil
		})
		model := cost.Default()
		for _, q := range p.queries {
			q, res := q, results[q]
			s.stage("rescache.put", root, id, &stagesUS, func() error {
				rows := make([]rescache.Row, len(res.Groups))
				for j, grp := range res.Groups {
					rows[j] = rescache.Row{Keys: grp.Keys, Value: grp.Value}
				}
				s.rc.Put(q, snap.Epoch, rows, perQuery[q].SimulatedMicros(model))
				return nil
			})
		}
	}

	var ans mdxopt.Answer
	s.stage("facade.format", root, id, &stagesUS, func() error {
		ans.Plan = p.global.Describe()
		for _, q := range p.queries {
			ans.Queries = append(ans.Queries, formatResult(q, results[q]))
		}
		return nil
	})
	return stagesUS, digestAnswer(&ans), hit, nil
}

// runSerial is core.Run's serial order with a span per node: the
// hoisted lookup builds, then one shared operator per class, then the
// cache rollups.
func (s *stager) runSerial(root, id int, env *exec.Env, g *plan.Global, total *exec.Stats, stagesUS *float64) (map[*query.Query]*exec.Result, map[*query.Query]exec.Stats, error) {
	results := map[*query.Query]*exec.Result{}
	perQuery := map[*query.Query]exec.Stats{}
	lookups := exec.NewLookupSet(env.Mem)
	defer lookups.Close()
	env.Lookups = lookups
	var buildStats exec.Stats
	if builds := plan.BuildTasks(g); len(builds) > 0 {
		if err := s.stage("exec.lookup_build", root, id, stagesUS, func() error {
			for _, t := range builds {
				specs := make([]exec.LookupBuild, len(t.Specs))
				for i, sp := range t.Specs {
					specs[i] = exec.LookupBuild{Query: sp.Query, Dim: sp.Dim, ViewLevel: sp.ViewLevel}
				}
				if err := env.BuildLookups(lookups, specs, &buildStats); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, nil, err
		}
		total.Add(buildStats)
	}
	for _, c := range g.Classes {
		c := c
		var cs exec.Stats
		var qs []*query.Query
		var rs []*exec.Result
		hashQs, indexQs := planQueries(c.HashPlans()), planQueries(c.IndexPlans())
		name, into := "exec.shared_scan", &s.scan
		switch {
		case c.Regime == plan.ProbeRegime:
			name, into = "exec.shared_index", &s.index
		case len(indexQs) > 0:
			name = "exec.shared_mixed"
		}
		if err := s.stage(name, root, id, stagesUS, func() (err error) {
			if c.Regime == plan.ProbeRegime {
				qs = indexQs
				rs, err = exec.SharedIndex(env, c.View, indexQs, &cs)
				return err
			}
			hr, ir, err := exec.SharedMixed(env, c.View, hashQs, indexQs, &cs)
			qs = append(append(qs, hashQs...), indexQs...)
			rs = append(append(rs, hr...), ir...)
			return err
		}); err != nil {
			return nil, nil, err
		}
		into.Add(cs)
		total.Add(cs)
		owns := make([]exec.Stats, len(rs))
		for i, r := range rs {
			results[qs[i]], owns[i] = r, r.Own
		}
		for i, share := range exec.Attribute(cs, owns) {
			perQuery[qs[i]] = share
		}
	}
	for _, cp := range g.Cached {
		cp := cp
		var cs exec.Stats
		if err := s.stage("exec.rollup_cached", root, id, stagesUS, func() (err error) {
			results[cp.Query], err = exec.RollupCached(env, cp.Entry, cp.Query, &cs)
			return err
		}); err != nil {
			return nil, nil, err
		}
		total.Add(cs)
		perQuery[cp.Query] = cs
	}
	return results, perQuery, nil
}

func planQueries(plans []*plan.Local) []*query.Query {
	out := make([]*query.Query, len(plans))
	for i, p := range plans {
		out[i] = p.Query
	}
	return out
}

// execOptions is the facade's: above one worker, every node start is
// gated on the broker with the optimizer's footprint estimate.
func execOptions(snap *star.Snapshot, workers int, broker *mem.Broker) core.ExecOptions {
	if workers <= 1 {
		return core.ExecOptions{}
	}
	est := plan.NewEstimator(snap)
	est.Workers = workers
	return core.ExecOptions{Workers: workers, Est: est, Gate: func(ctx context.Context, cost int64) (func(), error) {
		return broker.Admit(ctx, cost)
	}}
}

// formatResult is the facade's: member names of the grouped dimensions.
func formatResult(q *query.Query, r *exec.Result) mdxopt.QueryResult {
	schema := q.Schema
	qr := mdxopt.QueryResult{Name: q.Name, GroupBy: q.GroupByName(), Aggregate: q.Agg.String()}
	var dims []int
	for i, l := range q.Levels {
		if l != schema.Dims[i].AllLevel() {
			dims = append(dims, i)
			qr.Columns = append(qr.Columns, schema.Dims[i].Name)
		}
	}
	for _, g := range r.Groups {
		row := mdxopt.ResultRow{Value: g.Value}
		for _, i := range dims {
			row.Members = append(row.Members, schema.Dims[i].MemberName(q.Levels[i], g.Keys[i]))
		}
		qr.Rows = append(qr.Rows, row)
	}
	return qr
}

// widthSpeedup runs the uncapped expressions of the prefix's first
// block at one worker and at two, plans cached, and keeps both walls:
// what the DAG pool buys on this machine.
func (s *stager) widthSpeedup(prefix []expr) error {
	snap, release := s.sdb.Pin()
	defer release()
	n := 0
	for _, e := range prefix {
		p := s.plans[e.text]
		if e.capped || p == nil || n == len(latticeShapes) {
			continue
		}
		n++
		for _, w := range []int{1, 2} {
			env := exec.NewEnv(snap)
			env.Ctx, env.Mem, env.SpillDir = context.Background(), s.broker, s.in.spill
			var st exec.Stats
			start := time.Now()
			if _, err := core.Run(env, p.global, p.queries, &st, execOptions(snap, w, s.broker)); err != nil {
				return err
			}
			wall := float64(time.Since(start).Nanoseconds()) / 1e3
			if w == 1 {
				s.wallW1 = append(s.wallW1, wall)
			} else {
				s.wallW2 = append(s.wallW2, wall)
			}
		}
	}
	return nil
}
