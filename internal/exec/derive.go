package exec

import (
	"context"
	"math/bits"

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
// Parent and child keys may each take one word or two: the rollup
// reads both words of the parent's rows and folds under the child's
// key of either width. The remap works on field values (pack.go), not
// codes: rollupLookups is indexed by the parent's field values and
// yields the child's, so a row's key is remapped without decoding it.

// forest is one pass's derivation forest over its member queries.
type forest struct {
	queries []*query.Query
	parent  []int             // classmate each member is derived from; -1: a root
	qctx    []context.Context // each member's per-submission context, or nil
	// watch[m], for a root m, holds the contexts of m and of every
	// member derived from it; nil when one of them has none and so can
	// never be canceled.
	watch   [][]context.Context
	rootIdx []int // the members that take tuples, ascending
}

func newForest(env *Env, queries []*query.Query) *forest {
	f := &forest{
		queries: queries,
		parent:  query.Forest(queries),
		qctx:    make([]context.Context, len(queries)),
		watch:   make([][]context.Context, len(queries)),
	}
	f.rootIdx = make([]int, 0, len(queries))
	for i := range f.parent {
		if f.parent[i] < 0 {
			f.rootIdx = append(f.rootIdx, i)
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

// lookups returns, per root in root order, the root's lookups (one per
// dimension), having built those it lacks into the set it reads: the
// plan's hoisted Env.Lookups when it is given, otherwise a set the pass
// owns — one for the whole pass when Env.ShareLookups is set (§3.1), one
// per root when it is not. owned lists the sets the caller closes once
// the pass is done, also on an error.
func (f *forest) lookups(env *Env, stats *Stats, view *star.View) (lookups [][]*dimLookup, owned []*LookupSet, err error) {
	shared := env.Lookups
	if !env.ShareLookups {
		shared = nil
	}
	lookups = make([][]*dimLookup, len(f.rootIdx))
	for k, m := range f.rootIdx {
		set := shared
		if set == nil {
			set = NewLookupSet(env.Mem)
			owned = append(owned, set)
			if env.ShareLookups {
				shared = set
			}
		}
		if lookups[k], err = set.lookups(env, stats, f.queries[m], view); err != nil {
			return nil, owned, err
		}
	}
	return lookups, owned, nil
}

// workerSets builds the pipelines of width workers over the roots, on
// each root's lookups (forest.lookups): worker w's are workerSet(pipes,
// w), worker 0's being the pass's own. Members below nh are hash
// members; the rest filter by their result bitmaps. A root's pass
// vectors (passFilter) are cut from one slab for the whole pass and
// shared by the root's worker pipelines. A pipeline detaches only when
// the submissions of its root and of every member derived from it are
// all canceled: a root keeps folding for an attached descendant after
// its own caller is gone (its Result.Err is set regardless).
func (f *forest) workerSets(env *Env, lookups [][]*dimLookup, view *star.View, nh, width int) []*queryPipeline {
	nr, nd := len(f.rootIdx), len(view.Levels)
	filters := make([][]bool, nr*nd)
	for k, m := range f.rootIdx {
		passFilter(filters[k*nd:(k+1)*nd:(k+1)*nd], lookups[k], view, m >= nh)
	}
	pipes := make([]*queryPipeline, width*nr)
	for i := range pipes {
		k := i % nr
		m := f.rootIdx[k]
		pipes[i] = newQueryPipeline(env, lookups[k], filters[k*nd:(k+1)*nd:(k+1)*nd], f.queries[m], view)
		pipes[i].qctx, pipes[i].watch = f.qctx[m], f.watch[m]
	}
	return pipes
}

// workerSet returns worker w's pipelines, one per root in member order.
func (f *forest) workerSet(pipes []*queryPipeline, w int) []*queryPipeline {
	return pipes[w*len(f.rootIdx) : (w+1)*len(f.rootIdx)]
}

// emit converts the pass's pipelines (workerSets) into one result per
// member, in member order; worker 0's take in the others' work. The
// roots' worker tables are finalized key range by key range on the pool
// (finalizeSets); then the derived members are built forest depth by
// depth, each one pool task that folds its table from its parent's
// merged rows and finalizes it inline.
func (f *forest) emit(env *Env, stats *Stats, pipes []*queryPipeline) ([]*Result, error) {
	members := make([]*queryPipeline, len(f.queries))
	level := f.rootIdx
	roots, width := f.workerSet(pipes, 0), len(pipes)/len(level)
	for k, m := range level {
		p := roots[k]
		members[m] = p
		if p.ioErr != nil {
			return nil, p.ioErr
		}
		p.ftab.fin.init(p.ftab, width)
		for w := 1; w < width; w++ {
			if err := p.addWorker(f.workerSet(pipes, w)[k], w); err != nil {
				return nil, err
			}
		}
	}
	if err := finalizeSets(env, roots); err != nil {
		return nil, err
	}
	out := make([]*Result, len(f.queries))
	for {
		var next []int
		for _, i := range level {
			out[i] = members[i].result(stats)
			for c, pi := range f.parent {
				if pi == i {
					next = append(next, c)
				}
			}
		}
		if len(next) == 0 {
			return out, nil
		}
		err := poolTasks(env, len(next), func(j int) error {
			if err := env.canceled(); err != nil {
				return err
			}
			c := next[j]
			members[c] = members[f.parent[c]].derive(env, f.queries[c], f.qctx[c])
			return members[c].ioErr
		})
		if err != nil {
			return nil, err
		}
		for _, c := range next {
			stats.Add(members[c].own)
		}
		level = next
	}
}

// derive builds and finalizes the pipeline of member q, derived from p,
// by folding p's merged rows into a fresh table; the table is released
// once finalized. A subtree whose root detached from the scan has no
// live member left (see forest.pipeline) and is not computed. A failure
// is latched in the pipeline's ioErr.
func (p *queryPipeline) derive(env *Env, q *query.Query, qctx context.Context) *queryPipeline {
	kp := newKeyPacker(q.Schema, q.Levels)
	c := &queryPipeline{q: q, packer: kp, ftab: newFoldTable(env, q.Agg, kp, q.Name), qctx: qctx, detached: p.detached}
	defer c.close()
	work := Stats{DerivedQueries: 1}
	if !c.detached {
		lks := rollupLookups(q, p.q.Levels)
		for r := 0; r < p.ftab.fin.parts && c.ioErr == nil; r++ {
			rows := p.ftab.fin.rowsOf(r)
			var folded int64
			folded, c.ioErr = c.ftab.rollupFrom(rows, p.packer, lks)
			work.DerivedRows += int64(len(rows))
			work.TuplesAgg += folded
		}
		if !kp.twoWords() {
			work.PackedFolds = work.TuplesAgg
		}
	}
	c.own.Add(work)
	c.ftab.fin.init(c.ftab, 1)
	if c.ioErr == nil {
		c.ioErr = c.ftab.fin.finalize()
	}
	return c
}

// rollupLookups builds, for every dimension, the remap of a rollup
// onto q from groups at the given (finer or equal) levels: out maps a
// source-level field value to q's field value, pass marks the field
// values whose codes q's predicate keeps (nil when q is unrestricted
// there). Both are indexed by field value, so they span the field's
// whole width; values no code takes stay zero. Unlike a view lookup it
// reads no stored dimension table — the hierarchy is in memory — and
// it is what both rollup operators (a classmate's rows, a cache
// entry's) drive their key remap with.
func rollupLookups(q *query.Query, levels []int) []dimLookup {
	lks := make([]dimLookup, len(levels))
	for d, dim := range q.Schema.Dims {
		set := q.MemberSet(d)
		card := dim.Card(levels[d])
		from, to := star.FieldBits(card), star.FieldBits(dim.Card(q.Levels[d]))
		lk := dimLookup{out: make([]int32, 1<<from)}
		if set != nil {
			lk.pass = make([]bool, len(lk.out))
		}
		for code := int32(0); code < card; code++ {
			up, v := dim.RollUp(code, levels[d], q.Levels[d]), fieldValue(uint32(code), from)
			lk.out[v] = int32(fieldValue(uint32(up), to))
			if set != nil {
				lk.pass[v] = set[up]
			}
		}
		lks[d] = lk
	}
	return lks
}

// fieldBits is the source field width of a rollup lookup, whose out
// spans the field's 1<<width values.
func (lk *dimLookup) fieldBits() int { return bits.Len(uint(len(lk.out))) - 1 }

// rollupFrom folds a finer table's merged rows into t — the worker
// merge with a key remap: each row's field values are read with the
// source packer from, mapped through lks (rollupLookups), dropped when
// a predicate fails and folded under t's own packed key. Rows carry
// both accumulator components, so AVG rolls up like the rest. It
// returns the number of rows folded. When either key takes two words
// the rows go through rollupWide.
func (t *foldTable) rollupFrom(rows []foldRow, from *keyPacker, lks []dimLookup) (int64, error) {
	if from.twoWords() || t.kp.twoWords() {
		return t.rollupWide(rows, from, lks)
	}
	var folded int64
next:
	for i := range rows {
		r := &rows[i]
		var k uint64
		for d := range lks {
			v := r.lo >> from.shifts[d] & from.masks[d]
			if lks[d].pass != nil && !lks[d].pass[v] {
				continue next
			}
			k |= uint64(uint32(lks[d].out[v])) << t.kp.shifts[d]
		}
		if err := t.fold(k, accum{a: r.a, b: r.b, set: true}); err != nil {
			return folded, err
		}
		folded++
	}
	return folded, nil
}

// rollupWide is rollupFrom when either key takes two words: field
// values are read from both words of a row and folded under a key of
// either width.
// It is a loop of its own because the two-word field access costs the
// one-word rollup a sixth of its time.
func (t *foldTable) rollupWide(rows []foldRow, from *keyPacker, lks []dimLookup) (int64, error) {
	var folded int64
next:
	for i := range rows {
		r := &rows[i]
		var lo, hi uint64
		for d := range lks {
			v := from.field(r.lo, r.hi, d)
			if lks[d].pass != nil && !lks[d].pass[v] {
				continue next
			}
			lo, hi = t.kp.put(lo, hi, d, uint32(lks[d].out[v]))
		}
		if err := t.foldKey(lo, hi, accum{a: r.a, b: r.b, set: true}); err != nil {
			return folded, err
		}
		folded++
	}
	return folded, nil
}
