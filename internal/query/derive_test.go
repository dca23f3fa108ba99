package query

import (
	"math/rand"
	"slices"
	"testing"
)

func mustQuery(t *testing.T, name string, levels []int, preds []Predicate) *Query {
	t.Helper()
	q, err := New(name, testSchema(t), levels, preds)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestDerivableFrom(t *testing.T) {
	// A: 24/6/3 members, B: 12/6/3, C: 8/4/2; level 3 is ALL.
	all := func(n int) []int32 {
		ms := make([]int32, n)
		for i := range ms {
			ms[i] = int32(i)
		}
		return ms
	}
	fine := mustQuery(t, "fine", []int{1, 1, 3}, nil)
	cases := []struct {
		name   string
		q      *Query
		levels []int
		preds  []Predicate
		agg    Agg
		want   bool
	}{
		{"rollup of an unrestricted source", mustQuery(t, "q", []int{2, 2, 3}, nil), fine.Levels, fine.Preds, Sum, true},
		{"finer than the source", mustQuery(t, "q", []int{0, 1, 3}, nil), fine.Levels, fine.Preds, Sum, false},
		{"another aggregate", mustQuery(t, "q", []int{2, 2, 3}, nil), fine.Levels, fine.Preds, Count, false},
		{"source lists every member", mustQuery(t, "q", []int{2, 1, 3}, nil),
			[]int{1, 1, 3}, []Predicate{{Members: all(6)}, {}, {}}, Sum, true},
		{"source dropped members, query unrestricted", mustQuery(t, "q", []int{2, 1, 3}, nil),
			[]int{1, 1, 3}, []Predicate{{Members: []int32{0, 1}}, {}, {}}, Sum, false},
		// A'' member 0 is A' members 0 and 1.
		{"query's members lie under the source's", mustQuery(t, "q", []int{2, 1, 3}, []Predicate{{Members: []int32{0}}, {}, {}}),
			[]int{1, 1, 3}, []Predicate{{Members: []int32{0, 1, 4}}, {}, {}}, Sum, true},
		{"one child of a member is missing", mustQuery(t, "q", []int{2, 1, 3}, []Predicate{{Members: []int32{0}}, {}, {}}),
			[]int{1, 1, 3}, []Predicate{{Members: []int32{0, 4}}, {}, {}}, Sum, false},
		{"same level, subset", mustQuery(t, "q", []int{1, 1, 3}, []Predicate{{Members: []int32{4}}, {}, {}}),
			[]int{1, 1, 3}, []Predicate{{Members: []int32{0, 4}}, {}, {}}, Sum, true},
		{"restricted at ALL over a full source", mustQuery(t, "q", []int{3, 1, 3}, []Predicate{{Members: []int32{0}}, {}, {}}),
			[]int{1, 1, 3}, []Predicate{{Members: all(6)}, {}, {}}, Sum, true},
		{"restricted at ALL over a partial source", mustQuery(t, "q", []int{3, 1, 3}, []Predicate{{Members: []int32{0}}, {}, {}}),
			[]int{1, 1, 3}, []Predicate{{Members: []int32{0, 1, 2, 3, 4}}, {}, {}}, Sum, false},
	}
	for _, c := range cases {
		c.q.Agg = Sum
		if got := c.q.DerivableFrom(c.levels, c.preds, c.agg); got != c.want {
			t.Errorf("%s: DerivableFrom = %v, want %v", c.name, got, c.want)
		}
	}
	avg := mustQuery(t, "avg", []int{2, 2, 3}, nil)
	avg.Agg = Avg
	if !avg.DerivableFrom(fine.Levels, fine.Preds, Avg) {
		t.Error("AVG is not derivable from an AVG source")
	}
}

// family is TK/TK/- plus relatives: the four marginals of {A”, A'} x
// {B”, B'}, a duplicate, a restricted slice and a stranger.
func family(t *testing.T) map[string]*Query {
	qs := map[string]*Query{
		"a1b1":   mustQuery(t, "a1b1", []int{1, 1, 3}, nil),
		"a2b1":   mustQuery(t, "a2b1", []int{2, 1, 3}, nil),
		"a1b2":   mustQuery(t, "a1b2", []int{1, 2, 3}, nil),
		"a2b2":   mustQuery(t, "a2b2", []int{2, 2, 3}, nil),
		"a2b2'":  mustQuery(t, "a2b2'", []int{2, 2, 3}, nil),
		"slice":  mustQuery(t, "slice", []int{2, 2, 3}, []Predicate{{Members: []int32{1}}, {}, {}}),
		"c":      mustQuery(t, "c", []int{3, 3, 0}, nil),
		"a1 cnt": mustQuery(t, "a1 cnt", []int{1, 3, 3}, nil),
	}
	qs["a1 cnt"].Agg = Count
	return qs
}

func TestForestSmallestParentAndCascade(t *testing.T) {
	f := family(t)
	names := []string{"a2b2", "slice", "a1b1", "c", "a2b2'", "a1b2", "a2b1", "a1 cnt"}
	qs := make([]*Query, len(names))
	for i, n := range names {
		qs[i] = f[n]
	}
	parent := Forest(qs)
	got := map[string]string{}
	for i, p := range parent {
		if p >= 0 {
			got[names[i]] = names[p]
		}
	}
	// A' and B' both have 6 members, so a2b1 and a1b2 tie at 18 groups:
	// the structurally smaller levels (1,2,3) win. a2b2 cascades from
	// there, its duplicate copies it, the slice takes the 9-group a2b2
	// over the 18- and 36-group tables.
	want := map[string]string{
		"a2b1":  "a1b1",
		"a1b2":  "a1b1",
		"a2b2":  "a1b2",
		"a2b2'": "a2b2",
		"slice": "a2b2",
	}
	if len(got) != len(want) {
		t.Fatalf("forest %v, want %v", got, want)
	}
	for c, p := range want {
		if got[c] != p {
			t.Fatalf("forest %v, want %v", got, want)
		}
	}
}

func TestForestIgnoresInputOrder(t *testing.T) {
	f := family(t)
	var qs []*Query
	for _, q := range f {
		qs = append(qs, q)
	}
	edges := func(qs []*Query) map[string]string {
		out := map[string]string{}
		for i, p := range Forest(qs) {
			if p >= 0 {
				out[qs[i].Name] = qs[p].Name
			}
		}
		return out
	}
	want := edges(qs)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		got := edges(qs)
		if len(got) != len(want) {
			t.Fatalf("order %d: forest %v, want %v", trial, got, want)
		}
		for c, p := range want {
			if got[c] != p {
				t.Fatalf("order %d: forest %v, want %v", trial, got, want)
			}
		}
	}
}

// TestForestHasNoCycles: members of equal semantics — duplicates, and a
// query listing every member beside one that is unrestricted — derive
// from each other; exactly one of them may stay a node.
func TestForestHasNoCycles(t *testing.T) {
	qs := []*Query{
		mustQuery(t, "x", []int{2, 2, 3}, nil),
		mustQuery(t, "listed", []int{2, 2, 3}, []Predicate{{Members: []int32{0, 1, 2}}, {}, {}}),
		mustQuery(t, "y", []int{2, 2, 3}, nil),
		mustQuery(t, "z", []int{2, 2, 3}, nil),
	}
	parent := Forest(qs)
	for i := range qs {
		steps := 0
		for j := i; parent[j] >= 0; j = parent[j] {
			if steps++; steps > len(qs) {
				t.Fatalf("cycle through %s: %v", qs[i].Name, parent)
			}
		}
	}
	// "listed" sorts first by name, so it stands for the four.
	if want := []int{1, -1, 1, 1}; !slices.Equal(parent, want) {
		t.Fatalf("parents %v, want %v", parent, want)
	}
}

func TestDimSignature(t *testing.T) {
	a := mustQuery(t, "a", []int{1, 2, 3}, []Predicate{{Members: []int32{4, 0}}, {}, {}})
	b := mustQuery(t, "b", []int{1, 1, 0}, []Predicate{{Members: []int32{0, 4}}, {}, {}})
	if got := a.DimSignature(0); got != "1:0,4," || got != b.DimSignature(0) {
		t.Fatalf("equal level and members: %q and %q", got, b.DimSignature(0))
	}
	if a.DimSignature(1) == b.DimSignature(1) || a.DimSignature(1) != "2:*" {
		t.Fatalf("different levels: %q and %q", a.DimSignature(1), b.DimSignature(1))
	}
	c := mustQuery(t, "c", []int{1, 2, 3}, []Predicate{{Members: []int32{0, 4, 5}}, {}, {}})
	if a.DimSignature(0) == c.DimSignature(0) {
		t.Fatalf("different members share signature %q", a.DimSignature(0))
	}
}
