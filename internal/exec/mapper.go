package exec

import (
	"context"
	"fmt"

	"mdxopt/internal/mem"
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

// lookupKey identifies a dimLookup for sharing.
type lookupKey struct {
	dim       int
	viewLevel int
	sig       string // query-side signature: target level + predicate
}

// lookupBytesPerRow is the estimated footprint of one view-level code in
// a dimLookup: 4 bytes of out plus 1 byte of pass. The plan.Estimator
// memory model mirrors this constant.
const lookupBytesPerRow = 5

// lookupCache shares dimension lookups across the queries of one shared
// operator invocation. Lookups are required state — the join cannot run
// without them — so their memory is an overdraft grant on the broker,
// held until the pass closes the cache.
type lookupCache struct {
	env     *Env
	entries map[lookupKey]*dimLookup
	stats   *Stats
	res     *mem.Reservation
}

func newLookupCache(env *Env, stats *Stats) *lookupCache {
	return &lookupCache{
		env:     env,
		entries: map[lookupKey]*dimLookup{},
		stats:   stats,
		res:     env.Mem.Reserve("lookups"),
	}
}

// get returns the lookup for dimension dim of q against a view column at
// viewLevel, building (and, if sharing is enabled, caching) it. Lookups
// prebuilt into a shared set (Env.Lookups) are preferred — the pass then
// holds no memory for them and charges no build work; a set miss falls
// back to the pass-local build below.
func (c *lookupCache) get(q *query.Query, dim, viewLevel int) (*dimLookup, error) {
	key := lookupKey{dim: dim, viewLevel: viewLevel, sig: q.DimSignature(dim)}
	if c.env.ShareLookups {
		if c.env.Lookups != nil {
			if lk := c.env.Lookups.get(key); lk != nil {
				return lk, nil
			}
		}
		if lk, ok := c.entries[key]; ok {
			return lk, nil
		}
	}
	lk, err := buildLookup(c.env, c.stats, q, dim, viewLevel)
	if err != nil {
		return nil, err
	}
	c.res.MustGrow(int64(len(lk.out)) * lookupBytesPerRow)
	if c.env.ShareLookups {
		c.entries[key] = lk
	}
	return lk, nil
}

// memPeak returns the cache reservation's high-water mark.
func (c *lookupCache) memPeak() int64 { return c.res.Peak() }

// close releases the cache's memory reservation. Idempotent.
func (c *lookupCache) close() { c.res.Release() }

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
		// View column is at the ALL level: single code 0.
		lk.out[0] = 0
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
		var target int32
		if targetLevel >= d.NumLevels() {
			target = 0
		} else {
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
	lookups []*dimLookup // one per dimension, indexed by dim position

	packer *keyPacker
	ftab   *foldTable
	// selRows/selKeys are the batch kernel's scratch vectors (one page
	// of row indices and packed keys), reused batch to batch so the
	// steady-state fold loop performs no allocation.
	selRows []int32
	selKeys []uint64
	// restricted lists the dimensions whose predicates foldBatch tests
	// on a two-word key; nil for a one-word key.
	restricted []int
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

func newQueryPipeline(env *Env, stats *Stats, cache *lookupCache, q *query.Query, view *star.View) (*queryPipeline, error) {
	nd := env.DB.Schema.NumDims()
	p := &queryPipeline{
		q:       q,
		lookups: make([]*dimLookup, nd),
	}
	p.packer = newKeyPacker(q.Schema, q.Levels)
	p.ftab = newFoldTable(env, q.Agg, p.packer, q.Name)
	tpp := view.Heap.TuplesPerPage()
	p.selRows = make([]int32, 0, tpp)
	if p.packer.twoWords() {
		p.restricted = q.RestrictedDims()
	} else {
		p.selKeys = make([]uint64, 0, tpp)
	}
	for dim := 0; dim < nd; dim++ {
		lk, err := cache.get(q, dim, view.Levels[dim])
		if err != nil {
			p.close()
			return nil, err
		}
		p.lookups[dim] = lk
	}
	return p, nil
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

// foldBatch pushes one decoded page of tuples through the pipeline —
// the scan operators' per-pipeline entry point. A one-word key runs the
// vectorized kernel below; a two-word key folds tuple by tuple.
//
// The vectorized kernel processes the batch dimension at a time
// instead of tuple at a time, hoisting the per-dimension branches
// (predicate presence, shift amount) out of the inner loops: dimension
// 0 seeds a selection vector of surviving row indices and their
// partial packed keys, each further dimension compacts the selection
// while OR-ing its field into the keys, and a final tight loop folds
// the survivors' measures into the table. All scratch lives in the
// pipeline (selRows/selKeys), so the steady state allocates nothing.
func (p *queryPipeline) foldBatch(st *Stats, b *table.Batch) {
	if p.detached || p.ioErr != nil {
		return
	}
	n := b.N
	st.TupleProbes += int64(n)
	p.own.TupleProbes += int64(n)
	if p.packer.twoWords() {
		p.foldWide(st, b, identitySel(p.selRows[:0], n), p.restricted)
		return
	}
	nk := b.NumKeys()
	keys := b.Keys
	rows := p.selRows[:0]
	pk := p.selKeys[:0]

	lk := p.lookups[0]
	sh := p.packer.shifts[0]
	if lk.pass != nil {
		for t := 0; t < n; t++ {
			code := keys[t*nk]
			if !lk.pass[code] {
				continue
			}
			rows = append(rows, int32(t))
			pk = append(pk, uint64(uint32(lk.out[code]))<<sh)
		}
	} else {
		for t := 0; t < n; t++ {
			rows = append(rows, int32(t))
			pk = append(pk, uint64(uint32(lk.out[keys[t*nk]]))<<sh)
		}
	}
	for dim := 1; dim < len(p.lookups); dim++ {
		lk := p.lookups[dim]
		sh := p.packer.shifts[dim]
		if lk.pass != nil {
			w := 0
			for i, r := range rows {
				code := keys[int(r)*nk+dim]
				if !lk.pass[code] {
					continue
				}
				rows[w] = r
				pk[w] = pk[i] | uint64(uint32(lk.out[code]))<<sh
				w++
			}
			rows, pk = rows[:w], pk[:w]
		} else {
			for i, r := range rows {
				pk[i] |= uint64(uint32(lk.out[keys[int(r)*nk+dim]])) << sh
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

// foldBatchSel is the index path's per-pipeline entry into the fold
// kernel: sel holds the batch slots of tuples whose position the
// query's bitmap already covers, so the indexed predicates are proven
// and only residual (unindexed restricted) dimensions still filter.
// Every survivor folds with its full packed key. It counts TuplesAgg
// (and PackedFolds for a one-word key) in both st and the pipeline's
// own stats; TuplesFetched and BitTests are the caller's to count —
// they are properties of the routing, not the fold.
func (p *queryPipeline) foldBatchSel(st *Stats, b *table.Batch, sel []int32, residual []int) {
	if p.detached || p.ioErr != nil || len(sel) == 0 {
		return
	}
	if p.packer.twoWords() {
		p.foldWide(st, b, sel, residual)
		return
	}
	nk := b.NumKeys()
	keys := b.Keys
	rows := append(p.selRows[:0], sel...)
	for _, dim := range residual {
		lk := p.lookups[dim]
		if lk.pass == nil {
			continue
		}
		w := 0
		for _, r := range rows {
			if lk.pass[keys[int(r)*nk+dim]] {
				rows[w] = r
				w++
			}
		}
		rows = rows[:w]
	}
	pk := p.selKeys[:0]
	lk0 := p.lookups[0]
	sh0 := p.packer.shifts[0]
	for _, r := range rows {
		pk = append(pk, uint64(uint32(lk0.out[keys[int(r)*nk]]))<<sh0)
	}
	for dim := 1; dim < len(p.lookups); dim++ {
		lk := p.lookups[dim]
		sh := p.packer.shifts[dim]
		for i, r := range rows {
			pk[i] |= uint64(uint32(lk.out[keys[int(r)*nk+dim]])) << sh
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

// foldWide is foldBatch's and foldBatchSel's loop for a two-word key,
// tuple at a time: every batch slot of sel whose codes pass the
// predicates of dims folds its delta under its key. It counts TuplesAgg
// but not PackedFolds, which count one-word folds only.
func (p *queryPipeline) foldWide(st *Stats, b *table.Batch, sel []int32, dims []int) {
	nk := b.NumKeys()
	var folded int64
tuples:
	for _, r := range sel {
		keys := b.Keys[int(r)*nk : int(r+1)*nk]
		for _, d := range dims {
			if pass := p.lookups[d].pass; pass != nil && !pass[keys[d]] {
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
