// Package query models the dimensional queries extracted from an MDX
// expression: a target group-by (one hierarchy level per dimension) plus
// a member-set selection predicate along each dimension.
//
// In the paper's terms (§2), each component query of an MDX expression is
// a star join followed by aggregation at some level in the dimension
// hierarchies, with a selection predicate along each join dimension. The
// predicates of related queries are typically disjoint, which is why
// common-selection multi-query techniques do not apply and base-table
// sharing is the lever instead.
package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mdxopt/internal/star"
)

// Agg is the aggregate function a query applies to the measure.
type Agg int

// The supported aggregates. Sum is the paper's (and the default); the
// others are this repository's extension. All are decomposable, so they
// evaluate correctly over materialized group-bys that carry the
// multi-aggregate layout (sum, count, min, max per group) and over
// views holding duplicate group rows after a delta refresh.
const (
	Sum Agg = iota
	Count
	Min
	Max
	Avg
)

func (a Agg) String() string {
	switch a {
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Avg:
		return "AVG"
	default:
		return fmt.Sprintf("Agg(%d)", int(a))
	}
}

// ParseAgg resolves an aggregate name (case-insensitive).
func ParseAgg(name string) (Agg, bool) {
	switch strings.ToUpper(name) {
	case "SUM":
		return Sum, true
	case "COUNT":
		return Count, true
	case "MIN":
		return Min, true
	case "MAX":
		return Max, true
	case "AVG", "AVERAGE":
		return Avg, true
	default:
		return Sum, false
	}
}

// Predicate restricts one dimension to a set of members at the query's
// group-by level for that dimension. A nil Members slice means the
// dimension is unrestricted.
type Predicate struct {
	Members []int32
}

// IsRestricted reports whether the predicate restricts the dimension.
func (p Predicate) IsRestricted() bool { return p.Members != nil }

// Query is one dimensional query: aggregate the measure grouped by
// Levels, keeping only tuples whose rolled-up codes fall in each
// dimension's predicate.
type Query struct {
	Name   string // label, e.g. "Q1"
	Schema *star.Schema
	Levels []int       // group-by level per dimension
	Preds  []Predicate // one per dimension, at Levels[i]
	// Agg is the aggregate applied to the measure (default Sum).
	Agg Agg
	// Origin identifies the request the query arrived with when a plan
	// merges several: the request's 1-based sorted position in the
	// composition, set once when the composition is planned. 0 means the
	// query ran alone. The ID flows through plan
	// classes and the shared operators so per-submission work can be
	// attributed and per-submission contexts can detach pipelines.
	Origin int
}

// New validates and builds a query. preds may be nil for no restrictions.
func New(name string, schema *star.Schema, levels []int, preds []Predicate) (*Query, error) {
	if err := schema.ValidLevels(levels); err != nil {
		return nil, err
	}
	if preds == nil {
		preds = make([]Predicate, schema.NumDims())
	}
	if len(preds) != schema.NumDims() {
		return nil, fmt.Errorf("query: %d predicates for %d dimensions", len(preds), schema.NumDims())
	}
	for i, p := range preds {
		if p.Members == nil {
			continue
		}
		card := schema.Dims[i].Card(levels[i])
		seen := make(map[int32]bool, len(p.Members))
		for _, m := range p.Members {
			if m < 0 || m >= card {
				return nil, fmt.Errorf("query: dimension %s member %d out of range at level %s",
					schema.Dims[i].Name, m, schema.Dims[i].LevelName(levels[i]))
			}
			if seen[m] {
				return nil, fmt.Errorf("query: dimension %s duplicate member %d", schema.Dims[i].Name, m)
			}
			seen[m] = true
		}
		sorted := make([]int32, len(p.Members))
		copy(sorted, p.Members)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		preds[i] = Predicate{Members: sorted}
	}
	lv := make([]int, len(levels))
	copy(lv, levels)
	return &Query{Name: name, Schema: schema, Levels: lv, Preds: preds}, nil
}

// GroupByName renders the target group-by in the paper's notation.
func (q *Query) GroupByName() string { return q.Schema.GroupByName(q.Levels) }

// QualifiedName is Name prefixed with the submission origin when the
// query ran merged with other requests ("s2.q1"); queries that ran
// alone (Origin 0) keep their plain name. Plans and class stats use
// it so queries from different submissions stay distinguishable.
func (q *Query) QualifiedName() string {
	if q.Origin == 0 {
		return q.Name
	}
	return fmt.Sprintf("s%d.%s", q.Origin, q.Name)
}

// DimSelectivity returns the estimated selectivity of dimension i's
// predicate under the uniform assumption: |members| / card(level).
func (q *Query) DimSelectivity(i int) float64 {
	p := q.Preds[i]
	if !p.IsRestricted() {
		return 1
	}
	card := q.Schema.Dims[i].Card(q.Levels[i])
	if card == 0 {
		return 1
	}
	return float64(len(p.Members)) / float64(card)
}

// Selectivity returns the estimated combined selectivity over all
// dimensions.
func (q *Query) Selectivity() float64 {
	s := 1.0
	for i := range q.Preds {
		s *= q.DimSelectivity(i)
	}
	return s
}

// RestrictedDims returns the dimensions with a predicate.
func (q *Query) RestrictedDims() []int {
	var out []int
	for i, p := range q.Preds {
		if p.IsRestricted() {
			out = append(out, i)
		}
	}
	return out
}

// EstGroups estimates the number of result groups.
func (q *Query) EstGroups() float64 {
	g := 1.0
	for i := range q.Preds {
		if q.Levels[i] == q.Schema.Dims[i].AllLevel() {
			continue
		}
		if q.Preds[i].IsRestricted() {
			g *= float64(len(q.Preds[i].Members))
		} else {
			g *= float64(q.Schema.Dims[i].Card(q.Levels[i]))
		}
	}
	return g
}

// TotalLevel is the "GroupbyLevel" the paper sorts on: the sum of the
// group-by levels across dimensions. Smaller totals are finer group-bys
// that need larger source views.
func (q *Query) TotalLevel() int {
	t := 0
	for _, l := range q.Levels {
		t += l
	}
	return t
}

// AnswerableFrom reports whether a view at the given levels can compute
// this query, considering only the group-by lattice.
func (q *Query) AnswerableFrom(viewLevels []int) bool {
	return star.Derives(viewLevels, q.Levels)
}

// SupportedBy reports whether the stored view can compute this query:
// the view's levels must derive the query's, the view must be fresh with
// respect to the snapshot's base table, and for aggregates other than
// Sum the view must either be the base table or carry the
// multi-aggregate layout.
func (q *Query) SupportedBy(snap *star.Snapshot, v *star.View) bool {
	if !star.Derives(v.Levels, q.Levels) || !snap.Fresh(v) {
		return false
	}
	if q.Agg == Sum || v.IsBase() {
		return true
	}
	return v.MultiAgg()
}

// ViewPredicate maps dimension i's predicate down to a view column at
// level viewLevel (viewLevel <= Levels[i]): the set of view-level codes
// whose rollup is in the predicate. Returns nil when the dimension is
// unrestricted.
func (q *Query) ViewPredicate(i, viewLevel int) []int32 {
	p := q.Preds[i]
	if !p.IsRestricted() {
		return nil
	}
	return q.Schema.Dims[i].Descend(p.Members, q.Levels[i], viewLevel)
}

// MemberSet returns dimension i's predicate as a dense membership table
// over codes at the query level, or nil when unrestricted.
func (q *Query) MemberSet(i int) []bool {
	p := q.Preds[i]
	if !p.IsRestricted() {
		return nil
	}
	set := make([]bool, q.Schema.Dims[i].Card(q.Levels[i]))
	for _, m := range p.Members {
		set[m] = true
	}
	return set
}

// String renders the query with member names, e.g.
// "Q5(A'B”C”D; A'∈{AA2}, B”∈{B1})".
func (q *Query) String() string {
	var b strings.Builder
	if q.Name != "" {
		b.WriteString(q.Name)
	} else {
		b.WriteString("Q")
	}
	b.WriteString("(")
	if q.Agg != Sum {
		b.WriteString(q.Agg.String())
		b.WriteString(" ")
	}
	b.WriteString(q.GroupByName())
	for i, p := range q.Preds {
		if !p.IsRestricted() {
			continue
		}
		d := q.Schema.Dims[i]
		b.WriteString("; ")
		b.WriteString(d.LevelName(q.Levels[i]))
		b.WriteString("∈{")
		for j, m := range p.Members {
			if j > 0 {
				b.WriteString(",")
			}
			b.WriteString(d.MemberName(q.Levels[i], m))
		}
		b.WriteString("}")
	}
	b.WriteString(")")
	return b.String()
}

// DimSignature identifies dimension dim's side of the query — target
// level and predicate members. Two queries with equal signatures on a
// dimension need the identical dimension lookup against any one view
// column, so the operators and the memory model key shared lookups by it.
func (q *Query) DimSignature(dim int) string {
	return string(q.AppendDimSignature(make([]byte, 0, 8+6*len(q.Preds[dim].Members)), dim))
}

// AppendDimSignature appends DimSignature(dim) to b and returns the
// extended buffer, so a caller probing a map keyed by signatures can
// build the key without allocating.
func (q *Query) AppendDimSignature(b []byte, dim int) []byte {
	p := q.Preds[dim]
	b = strconv.AppendInt(b, int64(q.Levels[dim]), 10)
	b = append(b, ':')
	if !p.IsRestricted() {
		return append(b, '*')
	}
	for _, m := range p.Members {
		b = strconv.AppendInt(b, int64(m), 10)
		b = append(b, ',')
	}
	return b
}

// Signature returns a canonical string identifying the query's semantics
// (levels and predicates), independent of its name. Used to share
// dimension lookup tables between identical sub-tasks.
func (q *Query) Signature() string {
	var b strings.Builder
	if q.Agg != Sum {
		fmt.Fprintf(&b, "agg%d:", int(q.Agg))
	}
	for i, l := range q.Levels {
		fmt.Fprintf(&b, "%d:", l)
		if q.Preds[i].IsRestricted() {
			for _, m := range q.Preds[i].Members {
				fmt.Fprintf(&b, "%d,", m)
			}
		} else {
			b.WriteString("*")
		}
		b.WriteString("|")
	}
	return b.String()
}
