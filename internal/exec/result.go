package exec

import (
	"fmt"
	"strings"

	"mdxopt/internal/query"
)

// Group is one row of a query result: the group-by member codes (at the
// query's levels) and the aggregated measure. The Keys of one Result's
// groups are sub-slices of a single backing array, each with its
// capacity clipped to its length: writing through one group's Keys
// stays inside that group, and append reallocates.
type Group struct {
	Keys  []int32
	Value float64
}

// Result is the evaluated output of one query, with groups in ascending
// key order. Its groups share backing arrays (see Group), so keeping
// one group alive keeps the whole result's keys alive.
type Result struct {
	Query  *query.Query
	Groups []Group
	// Own is the query's non-shared work in the pass that produced the
	// result (probes, aggregations, fetch routing); the pass's shared
	// work (the scan itself, page I/O) is not included. See Attribute.
	Own Stats
	// Err is set when the query's per-submission context (Env.QueryCtx)
	// was canceled and its pipelines detached from the shared pass;
	// Groups is then partial and must be discarded.
	Err error
	// Cached reports that the result was served from the semantic
	// result cache by the zero-IO rollup operator (RollupCached) rather
	// than computed from a stored view.
	Cached bool
}

// result builds the member's Result from its finalized groups
// (finalize.go), with its own (non-shared) work and, for a canceled
// submission, the per-query context's error. The memory counters of
// every worker table its finalization read — reservation peaks, spill
// volume, partitions — are folded into both the member's stats and the
// pass stats.
func (p *queryPipeline) result(stats *Stats) *Result {
	r := &Result{Query: p.q, Groups: p.ftab.fin.groups}
	for _, s := range p.ftab.fin.src {
		p.own.Add(s.t.memStats())
	}
	stats.Add(Stats{PeakMemory: p.own.PeakMemory, SpillBytes: p.own.SpillBytes, SpillPartitions: p.own.SpillPartitions})
	r.Own = p.own
	if p.qctx != nil {
		r.Err = p.qctx.Err()
	}
	return r
}

// finalValue converts a group's accumulator components into its result
// value: sum over count for AVG, component a otherwise.
func finalValue(avg bool, a, b float64) float64 {
	if !avg {
		return a
	}
	if b == 0 {
		return 0
	}
	return a / b
}

func equalKeys(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Total returns the sum of all group values.
func (r *Result) Total() float64 {
	var t float64
	for _, g := range r.Groups {
		t += g.Value
	}
	return t
}

// Equal reports whether two results have identical groups and values.
func (r *Result) Equal(o *Result) bool {
	if len(r.Groups) != len(o.Groups) {
		return false
	}
	for i := range r.Groups {
		if !equalKeys(r.Groups[i].Keys, o.Groups[i].Keys) || r.Groups[i].Value != o.Groups[i].Value {
			return false
		}
	}
	return true
}

// Format renders the result with member names, one group per line.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d groups\n", r.Query, len(r.Groups))
	for _, g := range r.Groups {
		b.WriteString("  (")
		sep := ""
		for d, k := range g.Keys {
			dim := r.Query.Schema.Dims[d]
			lvl := r.Query.Levels[d]
			if lvl == dim.AllLevel() {
				continue
			}
			b.WriteString(sep)
			b.WriteString(dim.MemberName(lvl, k))
			sep = ", "
		}
		fmt.Fprintf(&b, ") = %.2f\n", g.Value)
	}
	return b.String()
}
