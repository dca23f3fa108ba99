package exec

import (
	"context"

	"mdxopt/internal/query"
	"mdxopt/internal/star"
)

// Shared aggregation.
//
// The shared operators share the scan, the lookups and the probe I/O;
// folding every tuple once per member would remain, although an MDX
// expression's component queries are mostly rollups of one another.
// Before its scan a pass therefore arranges its members into a
// derivation forest (query.Forest — the same function the cost model
// prices a class with). Only the roots take tuples: they alone get
// pipelines, result bitmaps and worker-private tables, and run the
// fold kernel. At emit, parent before child, a derived member's table
// is folded from its parent's merged rows — the worker merge with a key
// remap (foldTable.rollupFrom) — so a class costs one fold per tuple
// for its finest group-bys plus one per *group* for everything coarser.
// The child's table is an ordinary fold table: it reserves, grows and
// spills through the broker like any other, and finalizes through the
// same sort, so results stay byte-identical to Naive, order included.
//
// Derivation needs the packed kernel on both sides: Env.NoPackedKeys
// turns it off along with the kernel, and query.Forest never picks a
// parent whose key is wider than a word.

// forest is one pass's derivation forest over its member queries.
type forest struct {
	queries []*query.Query
	parent  []int             // classmate each member is derived from; -1: a root
	qctx    []context.Context // each member's per-submission context, or nil
	// watch[m], for a root m, holds the contexts of m and of every
	// member derived from it; nil when one of them has none and so can
	// never be canceled.
	watch [][]context.Context
}

func newForest(env *Env, queries []*query.Query) *forest {
	f := &forest{
		queries: queries,
		parent:  query.Forest(queries),
		qctx:    make([]context.Context, len(queries)),
		watch:   make([][]context.Context, len(queries)),
	}
	if env.NoPackedKeys {
		for i := range f.parent {
			f.parent[i] = -1
		}
	}
	if env.QueryCtx == nil {
		return f
	}
	immortal := make([]bool, len(queries))
	for i, q := range queries {
		f.qctx[i] = env.QueryCtx(q)
		r := i
		for f.parent[r] >= 0 {
			r = f.parent[r]
		}
		if f.qctx[i] == nil {
			immortal[r] = true
		}
		f.watch[r] = append(f.watch[r], f.qctx[i])
	}
	for r := range immortal {
		if immortal[r] {
			f.watch[r] = nil
		}
	}
	return f
}

// roots lists the members in [from, to) that take tuples themselves.
func (f *forest) roots(from, to int) []int {
	var out []int
	for i := from; i < to; i++ {
		if f.parent[i] < 0 {
			out = append(out, i)
		}
	}
	return out
}

// pipeline builds a pipeline for root member m. The pipeline detaches
// only when the submissions of m and of every member derived from it
// are all canceled: a root keeps folding for an attached descendant
// after its own caller is gone (its Result.Err is set regardless).
func (f *forest) pipeline(env *Env, stats *Stats, cache *lookupCache, view *star.View, m int) (*queryPipeline, error) {
	p, err := newQueryPipeline(env, stats, cache, f.queries[m], view)
	if err != nil {
		return nil, err
	}
	p.qctx, p.watch = f.qctx[m], f.watch[m]
	return p, nil
}

// emit converts the pass's pipelines into one result per member, in
// member order (merging any spilled state). roots holds the pipelines
// of the root members in member order; every derived member's table is
// built here from its parent's rows, parents first, and closed before
// emit returns. Each result carries its member's own (non-shared) work
// and, for a canceled submission, the per-query context's error; each
// table's memory counters — reservation peak, spill volume, partitions
// — are folded into both the member's stats and the pass stats.
func (f *forest) emit(env *Env, stats *Stats, roots []*queryPipeline) ([]*Result, error) {
	kids := make([][]int, len(f.queries))
	for i, p := range f.parent {
		if p >= 0 {
			kids[p] = append(kids[p], i)
		}
	}
	out := make([]*Result, len(f.queries))
	var finish func(i int, p *queryPipeline) error
	finish = func(i int, p *queryPipeline) error {
		if p.ioErr != nil {
			return p.ioErr
		}
		r, rows, err := p.result()
		if err != nil {
			return err
		}
		peak, spillBytes, spillParts := p.tabMemStats()
		p.own.PeakMemory += peak
		p.own.SpillBytes += spillBytes
		p.own.SpillPartitions += spillParts
		stats.PeakMemory += p.own.PeakMemory
		stats.SpillBytes += p.own.SpillBytes
		stats.SpillPartitions += p.own.SpillPartitions
		r.Own = p.own
		if p.qctx != nil {
			r.Err = p.qctx.Err()
		}
		out[i] = r
		for _, c := range kids[i] {
			if err := env.canceled(); err != nil {
				return err
			}
			cp := p.derive(env, stats, f.queries[c], f.qctx[c], rows)
			err := finish(c, cp)
			cp.close()
			if err != nil {
				return err
			}
		}
		return nil
	}
	for k, m := range f.roots(0, len(f.queries)) {
		if err := finish(m, roots[k]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// derive builds the pipeline of member q, derived from p, by folding
// p's merged rows into a fresh table. A subtree whose root detached
// from the scan has no live member left (see forest.pipeline) and is
// not computed.
func (p *queryPipeline) derive(env *Env, stats *Stats, q *query.Query, qctx context.Context, rows []foldRow) *queryPipeline {
	kp, _ := newKeyPacker(q.Schema, q.Levels) // no wider than its parent's key
	c := &queryPipeline{q: q, packer: kp, ftab: newFoldTable(env, q.Agg, kp, q.Name), qctx: qctx, detached: p.detached}
	work := Stats{DerivedQueries: 1}
	if !c.detached {
		work.DerivedRows = int64(len(rows))
		work.TuplesAgg, c.ioErr = c.ftab.rollupFrom(rows, p.packer, rollupLookups(q, p.q.Levels))
		work.PackedFolds = work.TuplesAgg
	}
	c.own.Add(work)
	stats.Add(work)
	return c
}

// rollupLookups builds, for every dimension, the remap of a rollup
// onto q from groups at the given (finer or equal) levels: out maps a
// source-level code to q's level, pass marks the codes q's predicate
// keeps (nil when q is unrestricted there). Unlike a view lookup it
// reads no stored dimension table — the hierarchy is in memory — and
// it is what both rollup operators (a classmate's rows, a cache
// entry's) drive their key remap with.
func rollupLookups(q *query.Query, levels []int) []dimLookup {
	lks := make([]dimLookup, len(levels))
	for d, dim := range q.Schema.Dims {
		set := q.MemberSet(d)
		lk := dimLookup{out: make([]int32, dim.Card(levels[d]))}
		if set != nil {
			lk.pass = make([]bool, len(lk.out))
		}
		for code := range lk.out {
			lk.out[code] = dim.RollUp(int32(code), levels[d], q.Levels[d])
			if set != nil {
				lk.pass[code] = set[lk.out[code]]
			}
		}
		lks[d] = lk
	}
	return lks
}

// rollupFrom folds a finer table's merged rows into t — the worker
// merge with a key remap: each row's codes are unpacked with the
// source packer from, mapped through lks (rollupLookups), dropped when
// a predicate fails and folded under t's own packed key. Rows carry
// both accumulator components, so AVG rolls up like the rest. It
// returns the number of rows folded.
func (t *foldTable) rollupFrom(rows []foldRow, from *keyPacker, lks []dimLookup) (int64, error) {
	var folded int64
next:
	for i := range rows {
		r := &rows[i]
		var k uint64
		for d := range lks {
			code := r.key >> from.shifts[d] & from.masks[d]
			if lks[d].pass != nil && !lks[d].pass[code] {
				continue next
			}
			k |= uint64(uint32(lks[d].out[code])) << t.kp.shifts[d]
		}
		if err := t.fold(k, accum{a: r.a, b: r.b, set: true}); err != nil {
			return folded, err
		}
		folded++
	}
	return folded, nil
}
