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
// (rollupLookups) — and the final values are re-aggregated. No page is read —
// the operator's cost is CPU linear in the entry's rows (counted in
// Stats.CacheRows) — which is what makes a cache hit worth compiling
// into the plan.
//
// Correctness needs the entry to Answer q (the optimizer guarantees it,
// and it is re-checked here) and the aggregate to be decomposable from
// final values: SUM and COUNT merge by addition, MIN/MAX by min/max.
// AVG is excluded by the cache itself. The aggregation state is an
// ordinary fold table (or byte-key aggTable), so it reserves broker
// memory and may spill like any other pipeline's, and it is finalized
// by the same finalizeGroups, keeping cache-served results — order
// included — byte-identical to uncached execution.
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
		// The rollup folds through the same kernel selection as the
		// scan pipelines: the packed open-addressing table when the
		// query's key fits a word, the byte-key map otherwise.
		var tab *aggTable
		var ftab *foldTable
		kp, packed := newKeyPacker(q.Schema, q.Levels)
		if packed {
			ftab = newFoldTable(env, q.Agg, kp, "rollup:"+q.Name)
			defer ftab.close()
		} else {
			tab = newAggTable(env, q.Agg, 4*nd, "rollup:"+q.Name)
			defer tab.close()
		}
		lks := rollupLookups(q, e.Levels)
		key := make([]byte, 4*nd)
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
			var pk uint64
			for d := 0; d < nd; d++ {
				if lks[d].pass != nil && !lks[d].pass[row.Keys[d]] {
					qualifies = false
					break
				}
				code := lks[d].out[row.Keys[d]]
				if packed {
					pk |= uint64(uint32(code)) << kp.shifts[d]
				} else {
					key[d*4] = byte(code)
					key[d*4+1] = byte(code >> 8)
					key[d*4+2] = byte(code >> 16)
					key[d*4+3] = byte(code >> 24)
				}
			}
			if !qualifies {
				continue
			}
			own.TuplesAgg++
			if packed {
				own.PackedFolds++
				if err := ftab.fold(pk, accum{a: row.Value, set: true}); err != nil {
					return err
				}
			} else if err := tab.add(key, accum{a: row.Value, set: true}); err != nil {
				return err
			}
		}
		if detached {
			res = &Result{Query: q, Err: env.QueryCtx(q).Err(), Cached: true}
		} else {
			// Cached values are already final: AVG never reaches the
			// cache, so the plain value is the aggregate.
			groups, err := finalizeGroups(ftab, tab, false)
			if err != nil {
				return err
			}
			res = &Result{Query: q, Groups: groups, Cached: true}
		}
		if packed {
			own.Add(ftab.memStats())
		} else {
			own.Add(tab.memStats())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Own = own
	stats.Add(own)
	return res, nil
}
