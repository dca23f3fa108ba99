package plan

import (
	"mdxopt/internal/query"
	"mdxopt/internal/star"
)

// Memory model.
//
// A parallel run admits each task only when its estimated
// operator-state footprint fits the memory broker's budget
// (internal/mem), so the estimator mirrors the execution layer's accounting: dimension lookup
// tables, result bitmaps, and aggregation hash tables, with the same
// per-entry constants internal/exec charges its reservations with.
// Estimates intentionally ignore sharing's timing (everything is priced
// as if live simultaneously) — admission wants a peak bound, and the
// operators' spill paths recover from underestimates.

const (
	// memLookupBytesPerRow mirrors exec's lookupBytesPerRow: 4 bytes of
	// rollup target plus 1 byte of predicate pass per view-level code.
	memLookupBytesPerRow = 5
	// memFoldEntryBytes is the per-group estimate of an aggregation
	// table (exec's foldTable): one 32-byte slot, doubled for the ≤3/4
	// load factor and rehash headroom.
	memFoldEntryBytes = 64
	// memHighWordBytes is the same estimate for a two-word key's high
	// word, which the table keeps beside the slot.
	memHighWordBytes = 16
)

// aggEntryBytes prices one aggregation group of q: one fold-table slot,
// plus the high word when q's key takes two words — exec's foldTable
// charges exactly that split.
func aggEntryBytes(q *query.Query) int64 {
	if q.Schema.PackedGroupBits(q.Levels) <= 64 {
		return memFoldEntryBytes
	}
	return memFoldEntryBytes + memHighWordBytes
}

// memLookupKey identifies one shareable dimension lookup, mirroring
// exec's lookupKey: queries with the same dimension, view level, target
// level, and predicate share one table when lookup sharing is on.
type memLookupKey struct {
	dim       int
	viewLevel int
	sig       string
}

// groupEstimate estimates q's result group count on v: the group-by
// space capped by the qualifying rows (a query cannot produce more
// groups than tuples it aggregates).
func (e *Estimator) groupEstimate(q *query.Query, v *star.View) float64 {
	groups := 1.0
	for dim, d := range q.Schema.Dims {
		groups *= float64(d.Card(q.Levels[dim]))
	}
	if rows := e.selRows(q, v); rows < groups {
		groups = rows
	}
	if groups < 1 {
		groups = 1
	}
	return groups
}

// aggMemory estimates q's aggregation-table footprint on v in bytes.
func (e *Estimator) aggMemory(q *query.Query, v *star.View) int64 {
	return int64(e.groupEstimate(q, v) * float64(aggEntryBytes(q)))
}

// bitmapMemory is one result bitmap's footprint over v in bytes.
func bitmapMemory(v *star.View) int64 {
	return (v.Rows() + 63) / 64 * 8
}

// foldTableCopies is how many copies of each member's aggregation table
// a class pass holds at its peak: one per worker of a Workers-wide pool
// (worker 0's table is the pass's own, and finalization releases each
// worker table once its groups are copied into the result slab), one
// for the serial pass. Both regimes run the same page loop, whose
// workers claim morsels from the same pool, so both multiply. Lookups
// and bitmaps are shared read-only across workers and are not
// multiplied.
func (e *Estimator) foldTableCopies(c *Class) int64 {
	return int64(max(e.Workers, 1))
}

// memPageBufBytes mirrors exec's pageBufBytes: one page-loop worker's
// page batch (4-byte keys + 8-byte measures per tuple) plus its
// selection vector and the masked-word scratch.
func memPageBufBytes(v *star.View) int64 {
	tpp := int64(v.Heap.TuplesPerPage())
	nk := int64(v.Heap.Schema().NumKeys())
	nm := int64(v.Heap.Schema().NumMeasures())
	return tpp*(4*nk+8*nm) + 4*tpp + (tpp/64+2)*8
}

// ClassMemory estimates the operator-state footprint of evaluating
// class c in one shared pass, in bytes: deduplicated dimension lookups
// (assuming lookup sharing), one aggregation table per member — one per
// worker when the pool fans the pass out (foldTableCopies) — one result
// bitmap per index member, the union bitmap in the probe regime, and
// one page buffer per worker in either regime. A member derived from a
// classmate (query.Forest) holds one table, built at emit, and no
// lookups or bitmap. Methods and Regime must already be assigned
// (ClassCost does this); an unpriced class is estimated as if in the
// scan regime with its current methods.
func (e *Estimator) ClassMemory(c *Class) int64 {
	if len(c.Plans) == 0 {
		return 0
	}
	return e.classMemory(c, query.Forest(c.Queries()))
}

// classMemory is ClassMemory of a non-empty class whose derivation
// forest (query.Forest) is parents.
func (e *Estimator) classMemory(c *Class, parents []int) int64 {
	v := c.View
	copies := e.foldTableCopies(c)
	total := e.classLookupMemory(c, parents)
	bitmaps := 0
	for i, p := range c.Plans {
		if parents[i] >= 0 {
			total += e.aggMemory(p.Query, v)
			continue
		}
		total += copies * e.aggMemory(p.Query, v)
		if p.Method == IndexSJ {
			bitmaps++
		}
	}
	total += int64(bitmaps) * bitmapMemory(v)
	if c.Regime == ProbeRegime && bitmaps > 1 {
		total += bitmapMemory(v) // the union bitmap
	}
	// One page batch + selection scratch per worker (exec's pageWorker
	// buffers, reserved on the bitmaps grant).
	return total + copies*memPageBufBytes(v)
}

// classLookupMemory estimates the class's deduplicated dimension-lookup
// footprint (assuming lookup sharing), the component the executor
// hoists into shared build tasks. parents is the class's
// query.Forest: derived members need no view lookups.
func (e *Estimator) classLookupMemory(c *Class, parents []int) int64 {
	v := c.View
	var total int64
	lookups := make(map[memLookupKey]struct{})
	for i, p := range c.Plans {
		if parents[i] >= 0 {
			continue
		}
		q := p.Query
		for dim, d := range q.Schema.Dims {
			key := memLookupKey{dim: dim, viewLevel: v.Levels[dim], sig: q.DimSignature(dim)}
			if _, ok := lookups[key]; ok {
				continue
			}
			lookups[key] = struct{}{}
			total += int64(d.Card(v.Levels[dim])) * memLookupBytesPerRow
		}
	}
	return total
}
