package exec

import (
	"context"
	"fmt"
	"strconv"

	"mdxopt/internal/query"
	"mdxopt/internal/star"
	"mdxopt/internal/table"
)

// dimLookup is the in-memory join structure the hash star join builds
// from one dimension table: for every code at the view column's level it
// gives the group-by code at the query's level and whether the code
// passes the query's predicate.
//
// It corresponds to the paper's per-dimension join hash table (Fig. 1);
// because our member codes are dense the table is an array, but building
// it still scans the stored dimension table and is charged per row, and
// two queries needing the same table can share one (§3.1).
type dimLookup struct {
	out  []int32 // view-level code -> query-level code
	pass []bool  // nil when the dimension is unrestricted
}

// appendLookupKey appends the key that identifies the lookup for
// dimension dim of q against a view column at viewLevel, for sharing:
// "dim/viewLevel/" and the query-side signature (target level and
// predicate, query.DimSignature).
func appendLookupKey(b []byte, q *query.Query, dim, viewLevel int) []byte {
	b = strconv.AppendInt(b, int64(dim), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(viewLevel), 10)
	b = append(b, '/')
	return q.AppendDimSignature(b, dim)
}

// lookupBytesPerRow is the estimated footprint of one view-level code in
// a dimLookup: 4 bytes of out plus 1 byte of pass. The plan.Estimator
// memory model mirrors this constant.
const lookupBytesPerRow = 5

// buildLookup scans the stored dimension table to build the join lookup,
// mirroring the hash-table build phase of the pipelined star join. The
// scan's page I/O lands in the pool stats; each useful row is charged as
// a hash-build row.
func buildLookup(env *Env, stats *Stats, q *query.Query, dim, viewLevel int) (*dimLookup, error) {
	d := env.DB.Schema.Dims[dim]
	targetLevel := q.Levels[dim]
	if viewLevel > targetLevel {
		return nil, fmt.Errorf("exec: view level %d coarser than query level %d on %s",
			viewLevel, targetLevel, d.Name)
	}
	card := d.Card(viewLevel)
	lk := &dimLookup{out: make([]int32, card)}
	memberSet := q.MemberSet(dim)
	if memberSet != nil {
		lk.pass = make([]bool, card)
	}

	if viewLevel >= d.NumLevels() {
		// View column is at the ALL level: single code 0, out 0.
		if lk.pass != nil {
			lk.pass[0] = memberSet[0]
		}
		return lk, nil
	}

	// Scan the dimension table once; dedupe view-level codes so each is
	// inserted once (the "hash table" keyed by the view column).
	seen := make([]bool, card)
	err := env.DB.DimTables[dim].Scan(func(row int64, keys []int32, _ []float64) error {
		code := keys[viewLevel]
		if seen[code] {
			return nil
		}
		seen[code] = true
		var target int32 // 0 at the ALL level
		if targetLevel < d.NumLevels() {
			target = keys[targetLevel]
		}
		lk.out[code] = target
		if lk.pass != nil {
			lk.pass[code] = memberSet[target]
		}
		stats.HashBuildRows++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return lk, nil
}

// accum is one group's aggregation state. Component a carries the
// running sum/count/min/max per the query's aggregate; Avg additionally
// uses b for the running count.
type accum struct {
	a, b float64
	set  bool
}

// queryPipeline is the per-query tail of a star join: dimension lookups
// plus a fold table (foldtable.go) that spills under memory pressure.
// A key of one word folds through the vectorized kernel below; a
// two-word key takes foldWide.
type queryPipeline struct {
	q       *query.Query
	lookups []*dimLookup // one per dimension, shared by the root's workers
	// filter holds, per dimension, the pass vector the fold kernel
	// tests: nil when the dimension is unrestricted or when the root's
	// result bitmap already proves its predicate (an indexed dimension
	// of a filter root).
	filter [][]bool

	packer *keyPacker
	ftab   *foldTable
	// selRows/selKeys are the batch kernel's scratch vectors (one page
	// of row indices and packed keys), reused batch to batch so the
	// steady-state fold loop performs no allocation.
	selRows []int32
	selKeys []uint64
	// qctx is the query's per-submission context (Env.QueryCtx), whose
	// error the query's result carries. watch holds the contexts the
	// pipeline folds for — its own and those of the members derived
	// from it (forest.pipeline); once all are done the pipeline
	// detaches: the shared pass keeps running for the other queries
	// while this one stops consuming tuples. A nil watch never detaches.
	qctx     context.Context
	watch    []context.Context
	detached bool
	// ioErr latches the first spill I/O failure; checked at scan
	// checkpoints and at emit, so the pass aborts without a per-tuple
	// error branch.
	ioErr error
	// own is the pipeline's non-shared work — probes, aggregations,
	// fetch routing, per-query bitmap building — counted alongside the
	// pass stats so Attribute can split a shared pass per query.
	own Stats
}

// newQueryPipeline builds q's pipeline over view on the given lookups,
// one per dimension (LookupSet.lookups), testing the pass vectors in
// filter (passFilter), which the root's worker pipelines share.
func newQueryPipeline(env *Env, lookups []*dimLookup, filter [][]bool, q *query.Query, view *star.View) *queryPipeline {
	p := &queryPipeline{
		q:       q,
		lookups: lookups,
		filter:  filter,
	}
	p.packer = newKeyPacker(q.Schema, q.Levels)
	p.ftab = newFoldTable(env, q.Agg, p.packer, q.Name)
	tpp := view.Heap.TuplesPerPage()
	p.selRows = make([]int32, 0, tpp)
	if !p.packer.twoWords() {
		p.selKeys = make([]uint64, 0, tpp)
	}
	return p
}

// passFilter fills dst, one entry per dimension of lookups, with the
// pass vectors the fold kernel tests for a root on those lookups, and
// returns it. A filter root (filterRoot set) leaves its indexed
// dimensions' predicates to its result bitmap.
func passFilter(dst [][]bool, lookups []*dimLookup, view *star.View, filterRoot bool) [][]bool {
	for dim, lk := range lookups {
		if !filterRoot || view.Indexes[dim] == nil {
			dst[dim] = lk.pass
		}
	}
	return dst
}

// close releases the pipeline's aggregation memory and spill file.
// Idempotent and nil-safe; safe to call before or after result().
func (p *queryPipeline) close() {
	if p == nil {
		return
	}
	p.ftab.close()
}

// detachedNow polls the contexts the pipeline folds for, latching
// detachment once every one is done. Called only at scan checkpoints,
// not per tuple.
func (p *queryPipeline) detachedNow() bool {
	if p.detached || p.watch == nil {
		return p.detached
	}
	for _, ctx := range p.watch {
		select {
		case <-ctx.Done():
		default:
			return false
		}
	}
	p.detached = true
	return true
}

// foldBatch pushes the slots sel of one decoded page through the
// pipeline — the page loop's one entry into the fold kernel, for hash
// and filter roots alike. A one-word key runs the vectorized kernel
// below; a two-word key folds tuple by tuple (foldWide).
//
// The vectorized kernel processes the selection dimension at a time
// instead of tuple at a time, hoisting the per-dimension branches
// (filter presence, shift amount) out of the inner loops: sel seeds a
// vector of surviving row indices beside their zeroed packed keys, each
// dimension OR-s its field into the keys — compacting the survivors
// when it has a filter — and a final tight loop folds the survivors'
// measures into the table. All scratch lives in the pipeline
// (selRows/selKeys, of which sel may be the first), so the steady state
// allocates nothing. The kernel counts TuplesAgg and PackedFolds; what
// sel cost to select (probes, bit tests, fetches) is the caller's to
// count.
func (p *queryPipeline) foldBatch(st *Stats, b *table.Batch, sel []int32) {
	if p.detached || p.ioErr != nil || len(sel) == 0 {
		return
	}
	if p.packer.twoWords() {
		p.foldWide(st, b, sel)
		return
	}
	nk := b.NumKeys()
	keys := b.Keys
	rows := append(p.selRows[:0], sel...)
	pk := p.selKeys[:len(rows)]
	clear(pk)
	for dim, lk := range p.lookups {
		out, sh := lk.out, p.packer.shifts[dim]
		if pass := p.filter[dim]; pass != nil {
			w := 0
			for i, r := range rows {
				code := keys[int(r)*nk+dim]
				if !pass[code] {
					continue
				}
				rows[w] = r
				pk[w] = pk[i] | uint64(uint32(out[code]))<<sh
				w++
			}
			rows, pk = rows[:w], pk[:w]
		} else {
			for i, r := range rows {
				pk[i] |= uint64(uint32(out[keys[int(r)*nk+dim]])) << sh
			}
		}
	}
	p.selRows, p.selKeys = rows[:0], pk[:0]

	survivors := int64(len(rows))
	st.TuplesAgg += survivors
	p.own.TuplesAgg += survivors
	st.PackedFolds += survivors
	p.own.PackedFolds += survivors
	if err := p.foldSelection(rows, pk, b); err != nil {
		p.ioErr = err
	}
}

// foldSelection runs the kernel's final fold loop: one find-or-insert
// per surviving tuple, with the aggregate's delta construction hoisted
// out of the loop (one loop variant per (measure layout, aggregate)
// combination instead of a per-tuple switch).
func (p *queryPipeline) foldSelection(rows []int32, pk []uint64, b *table.Batch) error {
	ft := p.ftab
	ms := b.Measures
	if b.NumMeasures() == 1 {
		switch p.q.Agg {
		case query.Count:
			for i := range rows {
				if err := ft.fold(pk[i], accum{a: 1, set: true}); err != nil {
					return err
				}
			}
		case query.Avg:
			for i, r := range rows {
				if err := ft.fold(pk[i], accum{a: ms[r], b: 1, set: true}); err != nil {
					return err
				}
			}
		default: // Sum, Min, Max: the single measure is the component
			for i, r := range rows {
				if err := ft.fold(pk[i], accum{a: ms[r], set: true}); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// Multi-aggregate views carry the four components per tuple; pick
	// the query's column(s) once.
	var ai int
	switch p.q.Agg {
	case query.Count:
		ai = star.AggCount
	case query.Min:
		ai = star.AggMin
	case query.Max:
		ai = star.AggMax
	default:
		ai = star.AggSum
	}
	if p.q.Agg == query.Avg {
		for i, r := range rows {
			if err := ft.fold(pk[i], accum{a: ms[r*4+star.AggSum], b: ms[r*4+star.AggCount], set: true}); err != nil {
				return err
			}
		}
		return nil
	}
	for i, r := range rows {
		if err := ft.fold(pk[i], accum{a: ms[r*4+int32(ai)], set: true}); err != nil {
			return err
		}
	}
	return nil
}

// foldWide is foldBatch's loop for a two-word key, tuple at a time:
// every batch slot of sel whose codes pass the pipeline's filters folds
// its delta under its key. It counts TuplesAgg but not PackedFolds,
// which count one-word folds only.
func (p *queryPipeline) foldWide(st *Stats, b *table.Batch, sel []int32) {
	nk := b.NumKeys()
	var folded int64
tuples:
	for _, r := range sel {
		keys := b.Keys[int(r)*nk : int(r+1)*nk]
		for d, pass := range p.filter {
			if pass != nil && !pass[keys[d]] {
				continue tuples
			}
		}
		var lo, hi uint64
		for d, lk := range p.lookups {
			lo, hi = p.packer.put(lo, hi, d, uint32(lk.out[keys[d]]))
		}
		if err := p.ftab.fold2(lo, hi, p.delta(b, r)); err != nil {
			p.ioErr = err
			break
		}
		folded++
	}
	st.TuplesAgg += folded
	p.own.TuplesAgg += folded
}

// delta is batch slot r's single-tuple accumulator under the query's
// aggregate: foldSelection's choice of measure components, per tuple.
func (p *queryPipeline) delta(b *table.Batch, r int32) accum {
	if b.NumMeasures() == 1 {
		m := b.Measures[r]
		switch p.q.Agg {
		case query.Count:
			return accum{a: 1, set: true}
		case query.Avg:
			return accum{a: m, b: 1, set: true}
		}
		return accum{a: m, set: true}
	}
	ms := b.Measures[r*4 : r*4+4]
	switch p.q.Agg {
	case query.Count:
		return accum{a: ms[star.AggCount], set: true}
	case query.Min:
		return accum{a: ms[star.AggMin], set: true}
	case query.Max:
		return accum{a: ms[star.AggMax], set: true}
	case query.Avg:
		return accum{a: ms[star.AggSum], b: ms[star.AggCount], set: true}
	}
	return accum{a: ms[star.AggSum], set: true}
}
