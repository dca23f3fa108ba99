package query

import (
	"slices"

	"mdxopt/internal/star"
)

// Derivation: computing one query from another's finished groups.
//
// An MDX expression's component queries are mostly lattice ancestors
// of one another — {A”, A'} × {B”, B'} is four group-bys, three of
// them rollups of A'B'. DerivableFrom is the one test of that relation
// (the result cache, the shared operators and the cost model all apply
// it), and Forest arranges a set of queries by it.

// DerivableFrom reports whether q can be computed from the groups of a
// result with the given group-by levels, predicates and aggregate, by
// rolling each group up the hierarchies, filtering by q's predicates
// and re-aggregating: the aggregates are equal, the source's group-by
// derives q's, and per dimension the source kept every tuple q selects
// — the source is unrestricted or keeps every member of its level, or
// every source-level code under q's members is among the source's. A
// query unrestricted on a dimension where the source dropped members
// is not derivable: the source is missing rows.
//
// AVG is derivable only from a source that still carries sum and count
// per group (a fold table's rows); a source of final values must
// exclude it itself.
func (q *Query) DerivableFrom(levels []int, preds []Predicate, agg Agg) bool {
	if agg != q.Agg || !star.Derives(levels, q.Levels) {
		return false
	}
	for i, sp := range preds {
		d := q.Schema.Dims[i]
		if !sp.IsRestricted() || len(sp.Members) == int(d.Card(levels[i])) {
			continue
		}
		if !q.Preds[i].IsRestricted() {
			return false
		}
		for _, m := range q.Preds[i].Members {
			if !covers(d, m, q.Levels[i], levels[i], sp.Members) {
				return false
			}
		}
	}
	return true
}

// covers reports whether every descendant of code (at level) down at
// level to is in the sorted set have.
func covers(d *star.Dimension, code int32, level, to int, have []int32) bool {
	if level == to {
		_, ok := slices.BinarySearch(have, code)
		return ok
	}
	for _, c := range d.Children(level, code) {
		if !covers(d, c, level-1, to, have) {
			return false
		}
	}
	return true
}

// Forest arranges the queries of one shared pass into a derivation
// forest: parent[i] is the index of the classmate query i is computed
// from (DerivableFrom its levels, predicates and aggregate), or -1 for
// a root, which aggregates the pass's tuples itself.
//
// A member's parent is the classmate it is derivable from with the
// smallest estimated group count (PipeSort's smallest-parent rule), so
// derivations cascade: A”B” comes from A”B', which comes from A'B'.
// Ties go to the structurally smaller query (levels, then predicates),
// never to input position, so every caller — the operators and the
// cost model see a class's members in different orders — builds the
// same forest. Members derivable from each other (equal semantics)
// form one node: the first by (Origin, Name) stands for them, the rest
// are its children, copies by an identity rollup.
func Forest(qs []*Query) []int {
	n := len(qs)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	if n < 2 {
		return parent
	}
	// der[i*n+j]: query i is derivable from query j.
	der := make([]bool, n*n)
	for i, q := range qs {
		for j, s := range qs {
			der[i*n+j] = i != j && q.DerivableFrom(s.Levels, s.Preds, s.Agg)
		}
	}
	// rep[i] stands for the members derivable from and to query i.
	rep := make([]int, n)
	for i := range qs {
		rep[i] = i
		for j := range qs {
			if der[i*n+j] && der[j*n+i] && before(qs[j], qs[rep[i]], j, rep[i]) {
				rep[i] = j
			}
		}
	}
	for i := range qs {
		if rep[i] != i {
			parent[i] = rep[i]
			continue
		}
		for j, s := range qs {
			if der[i*n+j] && rep[j] == j && (parent[i] < 0 || smaller(s, qs[parent[i]])) {
				parent[i] = j
			}
		}
	}
	return parent
}

// before orders members of equal semantics: by origin, then name, then
// input position.
func before(a, b *Query, ai, bi int) bool {
	if a.Origin != b.Origin {
		return a.Origin < b.Origin
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return ai < bi
}

// smaller orders candidate parents: fewer estimated groups first, then
// the structural order of levels and predicates. Two candidates that
// compare equal here have equal semantics and so are one node.
func smaller(a, b *Query) bool {
	if ga, gb := a.EstGroups(), b.EstGroups(); ga != gb {
		return ga < gb
	}
	if c := slices.Compare(a.Levels, b.Levels); c != 0 {
		return c < 0
	}
	for i := range a.Preds {
		if c := slices.Compare(a.Preds[i].Members, b.Preds[i].Members); c != 0 {
			return c < 0
		}
		if ra, rb := a.Preds[i].IsRestricted(), b.Preds[i].IsRestricted(); ra != rb {
			return rb
		}
	}
	return false
}
