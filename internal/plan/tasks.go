package plan

import (
	"mdxopt/internal/query"
)

// Hoisted lookup builds.
//
// The dimension lookups a global plan's class passes need can be built
// once up front and shared across every class (extending §3.1's
// within-pass sharing across passes); the class passes themselves are
// mutually independent, and so are the cache rollups. BuildTasks
// enumerates the hoisted lookup builds; the core executor runs them as
// a first task list, then the classes and cache rollups as a second.
//
// Builds are grouped one task per dimension, not one per lookup: a
// build task then scans only its own dimension's stored table, so
// concurrent build tasks touch disjoint files — which both avoids
// re-reading one table from two tasks and keeps per-task I/O accounting
// exact (see exec.Env.IOFiles).

// LookupSpec identifies one shareable dimension lookup a class pass
// needs: the dimension, the view column's level, and the query-side
// signature (target level + predicate). Query is a representative query
// to build it from; any query with the same signature builds the
// identical lookup.
type LookupSpec struct {
	Dim       int
	ViewLevel int
	Sig       string
	Query     *query.Query
}

// BuildTask is one hoisted lookup build: the distinct lookups of one
// dimension across the whole plan, deduplicated exactly the way the
// execution layer's lookup cache would share them.
type BuildTask struct {
	Dim   int
	Specs []LookupSpec
}

// BuildTasks enumerates the shared dimension-lookup builds of g,
// deduplicated across classes and grouped per dimension, in dimension
// order. Every class pass consumes lookups of every dimension, so a run
// finishes every returned build before any class pass starts. Plans
// without classes need no builds.
func BuildTasks(g *Global) []BuildTask {
	if len(g.Classes) == 0 {
		return nil
	}
	nd := len(g.Classes[0].View.Levels)
	seen := map[memLookupKey]bool{}
	byDim := make([][]LookupSpec, nd)
	for _, c := range g.Classes {
		parents := query.Forest(c.Queries())
		for i, p := range c.Plans {
			if parents[i] >= 0 {
				continue // derived from a classmate: no view lookups
			}
			q := p.Query
			for dim := 0; dim < nd; dim++ {
				key := memLookupKey{dim: dim, viewLevel: c.View.Levels[dim], sig: q.DimSignature(dim)}
				if seen[key] {
					continue
				}
				seen[key] = true
				byDim[dim] = append(byDim[dim], LookupSpec{
					Dim:       dim,
					ViewLevel: key.viewLevel,
					Sig:       key.sig,
					Query:     q,
				})
			}
		}
	}
	out := make([]BuildTask, 0, nd)
	for dim, specs := range byDim {
		if len(specs) > 0 {
			out = append(out, BuildTask{Dim: dim, Specs: specs})
		}
	}
	return out
}

// BuildMemory estimates a build task's footprint: the bytes of every
// lookup it registers, which stay live until the whole plan finishes.
func (e *Estimator) BuildMemory(t BuildTask) int64 {
	var total int64
	for _, s := range t.Specs {
		d := s.Query.Schema.Dims[s.Dim]
		total += int64(d.Card(s.ViewLevel)) * memLookupBytesPerRow
	}
	return total
}

// ClassPassMemory estimates the operator-state footprint of one class's
// shared pass as one task of a run. With hoisted lookups the pass holds
// no lookup memory of its own (the shared set does, priced by
// BuildMemory); otherwise this is ClassMemory. The class's derivation
// forest is built once for both estimates.
func (e *Estimator) ClassPassMemory(c *Class, hoistedLookups bool) int64 {
	if len(c.Plans) == 0 {
		return 0
	}
	parents := query.Forest(c.Queries())
	total := e.classMemory(c, parents)
	if hoistedLookups {
		total -= e.classLookupMemory(c, parents)
	}
	return total
}

// CacheMemory estimates a cache rollup's footprint: its re-aggregation
// table, at most one group per cached row, priced per entry the same
// way as the scan-side tables (one slot, plus a two-word key's high
// word).
func (e *Estimator) CacheMemory(cp *CachePlan) int64 {
	return int64(len(cp.Entry.Rows)) * aggEntryBytes(cp.Query)
}
