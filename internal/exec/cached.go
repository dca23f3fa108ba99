package exec

import (
	"fmt"

	"mdxopt/internal/query"
	"mdxopt/internal/rescache"
)

// RollupCached answers q from a semantic result-cache entry: every
// cached row's member codes are rolled up the dimension hierarchies
// from the entry's levels to the query's and filtered by the query's
// predicates — through the remap vectors a classmate rollup uses
// (rollupLookups), which a row's codes index as their field values at
// the entry's levels — and the final values are re-aggregated. No page is read —
// the operator's cost is CPU linear in the entry's rows (counted in
// Stats.CacheRows) — which is what makes a cache hit worth compiling
// into the plan.
//
// Correctness needs the entry to Answer q (the optimizer guarantees it,
// and it is re-checked here) and the aggregate to be decomposable from
// final values: SUM and COUNT merge by addition, MIN/MAX by min/max.
// AVG is excluded by the cache itself. The aggregation state is an
// ordinary fold table, so it reserves broker memory and may spill like
// any other pipeline's, and it is finalized by the same width-1
// finalization as a derived member's, keeping cache-served results —
// order included — byte-identical to uncached execution.
//
// The stats accumulated into stats are entirely the query's own work —
// there is no shared pass to attribute. Per-query cancellation
// (Env.QueryCtx) detaches the rollup like any pipeline: the result
// comes back with Err set instead of failing the caller.
func RollupCached(env *Env, e *rescache.Entry, q *query.Query, stats *Stats) (*Result, error) {
	if !e.Answers(q, e.Gen) {
		return nil, fmt.Errorf("exec: cache entry %s cannot answer %s", e.Name, q)
	}
	nd := q.Schema.NumDims()
	var qctx = func() <-chan struct{} {
		if env.QueryCtx == nil {
			return nil
		}
		ctx := env.QueryCtx(q)
		if ctx == nil {
			return nil
		}
		return ctx.Done()
	}()
	var res *Result
	var own Stats
	err := env.measure(&own, func() error {
		kp := newKeyPacker(q.Schema, q.Levels)
		ftab := newFoldTable(env, q.Agg, kp, "rollup:"+q.Name)
		defer ftab.close()
		lks := rollupLookups(q, e.Levels)
		detached := false
	rows:
		for ri := range e.Rows {
			if ri%checkEvery == 0 {
				if err := env.canceled(); err != nil {
					return err
				}
				if qctx != nil {
					select {
					case <-qctx:
						detached = true
						break rows
					default:
					}
				}
			}
			row := &e.Rows[ri]
			own.CacheRows++
			qualifies := true
			var lo, hi uint64
			for d := 0; d < nd; d++ {
				v := fieldValue(uint32(row.Keys[d]), lks[d].fieldBits())
				if lks[d].pass != nil && !lks[d].pass[v] {
					qualifies = false
					break
				}
				lo, hi = kp.put(lo, hi, d, uint32(lks[d].out[v]))
			}
			if !qualifies {
				continue
			}
			own.TuplesAgg++
			if !kp.twoWords() {
				own.PackedFolds++
			}
			if err := ftab.foldKey(lo, hi, accum{a: row.Value, set: true}); err != nil {
				return err
			}
		}
		if detached {
			res = &Result{Query: q, Err: env.QueryCtx(q).Err(), Cached: true}
		} else {
			// Cached values are already final: AVG never reaches the
			// cache, so the plain value is the aggregate.
			ftab.fin.init(ftab, 1)
			if err := ftab.fin.finalize(); err != nil {
				return err
			}
			res = &Result{Query: q, Groups: ftab.fin.groups, Cached: true}
		}
		own.Add(ftab.memStats())
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Own = own
	stats.Add(own)
	return res, nil
}
