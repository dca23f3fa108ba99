// Package plan defines the physical plan forms the optimizers produce —
// local plans (query × base view × star-join method), classes of plans
// sharing one base view, and global plans — together with the §5.1 cost
// model that prices them, including the shared-I/O accounting that makes
// base-table sharing attractive.
package plan

import (
	"fmt"
	"sort"
	"strings"

	"mdxopt/internal/query"
	"mdxopt/internal/rescache"
	"mdxopt/internal/star"
)

// Method is a star-join method.
type Method int

const (
	// HashSJ is the pipelined right-deep hash star join (scan the base
	// table, probe dimension hash tables).
	HashSJ Method = iota
	// IndexSJ is the bitmap-join-index star join (build a result bitmap,
	// probe the base table at the set positions).
	IndexSJ
)

func (m Method) String() string {
	switch m {
	case HashSJ:
		return "hash-based SJ"
	case IndexSJ:
		return "index-based SJ"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Local is one query's plan: evaluate Query from View with Method.
type Local struct {
	Query  *query.Query
	View   *star.View
	Method Method
}

func (l *Local) String() string {
	return fmt.Sprintf("(%s => %s [%s])", l.Query.GroupByName(), l.View.Name, l.Method)
}

// Regime is how a class's shared pass over its base view is performed.
type Regime int

const (
	// ScanRegime evaluates the class with one shared sequential scan
	// (§3.1/§3.3): hash members probe per tuple, index members filter
	// the scanned stream with their result bitmaps.
	ScanRegime Regime = iota
	// ProbeRegime evaluates the class with the shared index star join
	// (§3.2): the union result bitmap drives random probes; every
	// member must be an index plan.
	ProbeRegime
)

func (r Regime) String() string {
	if r == ProbeRegime {
		return "probe"
	}
	return "scan"
}

// Class is a set of local plans sharing one base view; the §3 shared
// operators evaluate a class in one pass over the view, in the manner
// selected by Regime.
type Class struct {
	View   *star.View
	Regime Regime
	Plans  []*Local
}

// HashPlans returns the class members using the hash star join.
func (c *Class) HashPlans() []*Local {
	var out []*Local
	for _, p := range c.Plans {
		if p.Method == HashSJ {
			out = append(out, p)
		}
	}
	return out
}

// IndexPlans returns the class members using the index star join.
func (c *Class) IndexPlans() []*Local {
	var out []*Local
	for _, p := range c.Plans {
		if p.Method == IndexSJ {
			out = append(out, p)
		}
	}
	return out
}

// Queries returns the class's queries in plan order.
func (c *Class) Queries() []*query.Query {
	out := make([]*query.Query, len(c.Plans))
	for i, p := range c.Plans {
		out[i] = p.Query
	}
	return out
}

func (c *Class) String() string {
	parts := make([]string, len(c.Plans))
	for i, p := range c.Plans {
		parts[i] = p.String()
	}
	return fmt.Sprintf("Class[%s]{%s}", c.View.Name, strings.Join(parts, " "))
}

// CachePlan answers one query by rolling up a semantic result-cache
// entry (exec.RollupCached) instead of joining a stored view — zero
// page I/O, CPU linear in the entry's rows.
type CachePlan struct {
	Query *query.Query
	Entry *rescache.Entry
}

func (p *CachePlan) String() string {
	return fmt.Sprintf("(%s <= cache %s [%d rows])", p.Query.QualifiedName(), p.Entry.Name, len(p.Entry.Rows))
}

// Global is a complete plan for a query set: the classes evaluated by
// shared passes over stored views, plus the queries served from the
// result cache.
type Global struct {
	Classes []*Class
	Cached  []*CachePlan
}

// NumQueries returns the total number of queries planned.
func (g *Global) NumQueries() int {
	n := len(g.Cached)
	for _, c := range g.Classes {
		n += len(c.Plans)
	}
	return n
}

// PlanFor returns the local plan of the given query, or nil.
func (g *Global) PlanFor(q *query.Query) *Local {
	for _, c := range g.Classes {
		for _, p := range c.Plans {
			if p.Query == q {
				return p
			}
		}
	}
	return nil
}

// Describe renders the plan in the paper's notation, one class per
// line: "(q1 => A'B'C'D [hash-based SJ])" for a member that takes the
// pass's tuples, "(q3 <= q1 [rollup])" for one derived from a classmate.
func (g *Global) Describe() string {
	var b strings.Builder
	for _, c := range g.Classes {
		fmt.Fprintf(&b, "class %s [%s]:", c.View.Name, c.Regime)
		// Stable output: queries in (origin, name) order. A member the
		// pass derives from a classmate's groups (query.Forest) names
		// that classmate instead of the view.
		parents := query.Forest(c.Queries())
		order := make([]int, len(c.Plans))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool {
			return c.Plans[order[i]].Query.QualifiedName() < c.Plans[order[j]].Query.QualifiedName()
		})
		for _, i := range order {
			p := c.Plans[i]
			if parents[i] >= 0 {
				fmt.Fprintf(&b, " (%s <= %s [rollup])", p.Query.QualifiedName(), c.Plans[parents[i]].Query.QualifiedName())
				continue
			}
			fmt.Fprintf(&b, " (%s => %s [%s])", p.Query.QualifiedName(), p.View.Name, p.Method)
		}
		b.WriteString("\n")
	}
	if len(g.Cached) > 0 {
		cached := append([]*CachePlan(nil), g.Cached...)
		sort.Slice(cached, func(i, j int) bool {
			return cached[i].Query.QualifiedName() < cached[j].Query.QualifiedName()
		})
		b.WriteString("cache [rollup]:")
		for _, cp := range cached {
			fmt.Fprintf(&b, " %s", cp)
		}
		b.WriteString("\n")
	}
	return b.String()
}
