package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// The generators below produce MDX text against the paper's sample
// schema (datagen.PaperSpec): dimensions A, B, C with levels X'' (3
// members X1..X3), X' (mid members XX1..XXn, n/3 under each top member)
// and X (base), plus the date-like D with D' = DD1..DD4. The engine sees
// only the text. Every random choice comes from the rand.Rand handed
// in, so a seed fixes the stream.
//
// Shapes (how many levels of which dimension an expression touches, and
// how selective its predicates are) are fixed lists, not random draws:
// the seed picks member names and orderings only. Ten runs with ten
// seeds therefore do statistically the same work, which is what lets
// the driver compare their medians.

// expr is one generated expression. Two expressions with equal keys
// denote the same set of group-by queries, so their answers must be
// equal at equal database contents; text differs between them whenever
// the generator decorated it to defeat the plan cache.
type expr struct {
	text string
	key  string
	// capped asks the client to send the expression serially under the
	// workload's per-request memory cap (see workload.capPerFact).
	capped bool
	// newDay marks the first expression of a block that starts on an
	// emptied result cache (see run.measure); the staged replay empties
	// its own there.
	newDay bool
}

// group is one dimension at one hierarchy level inside an axis set,
// such as the children of top member A1.
type group string

// axis is the groups of one dimension; an expression puts each
// dimension on an axis of its own.
type axis []group

var axisNames = []string{"COLUMNS", "ROWS", "PAGES"}

// render writes the expression's text with axes and groups in the given
// order, and its order-independent key.
func render(axes []axis, filter string) expr {
	var text strings.Builder
	keys := make([]string, len(axes))
	for i, ax := range axes {
		parts := make([]string, len(ax))
		for j, g := range ax {
			parts[j] = string(g)
		}
		fmt.Fprintf(&text, "{%s} on %s ", strings.Join(parts, ", "), axisNames[i])
		sort.Strings(parts)
		keys[i] = strings.Join(parts, ",")
	}
	text.WriteString("CONTEXT ABCD")
	if filter != "" {
		fmt.Fprintf(&text, " FILTER (%s)", filter)
	}
	sort.Strings(keys)
	return expr{text: text.String(), key: strings.Join(keys, ";") + "|" + filter}
}

// decorate reorders axes and groups at random: same queries, new text.
func decorate(rng *rand.Rand, axes []axis, filter string) expr {
	out := make([]axis, len(axes))
	for i, ax := range axes {
		gs := append(axis(nil), ax...)
		rng.Shuffle(len(gs), func(a, b int) { gs[a], gs[b] = gs[b], gs[a] })
		out[i] = gs
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return render(out, filter)
}

func topMember(dim string, i int) group { return group(fmt.Sprintf("%s''.%s%d", dim, dim, i)) }
func midMember(dim string, i int) group { return group(fmt.Sprintf("%s'.%s%s%d", dim, dim, dim, i)) }
func kids(dim string, i int) group      { return topMember(dim, i) + ".CHILDREN" }
func grandkids(dim string, i int) group { return kids(dim, i) + ".CHILDREN" }
func dFilter(i int) string              { return fmt.Sprintf("D'.DD%d", i) }

// Level codes of a shape string: one letter per level a dimension is
// grouped at.
//
//	t  one top-level member             (selectivity 1/3)
//	k  the children of one top member   (mid level, 1/3)
//	g  its grandchildren                (base level, 1/3)
//	m  one mid-level member             (selective: 3/mid)
//	T, K, G  every member of the top, mid, base level (unrestricted)
func levelGroups(rng *rand.Rand, dim, codes string, mid int) axis {
	var out axis
	for _, c := range codes {
		switch c {
		case 't':
			out = append(out, topMember(dim, 1+rng.Intn(3)))
		case 'k':
			out = append(out, kids(dim, 1+rng.Intn(3)))
		case 'g':
			out = append(out, grandkids(dim, 1+rng.Intn(3)))
		case 'm':
			out = append(out, midMember(dim, 1+rng.Intn(mid)))
		case 'T':
			out = append(out, topMember(dim, 1), topMember(dim, 2), topMember(dim, 3))
		case 'K':
			out = append(out, kids(dim, 1), kids(dim, 2), kids(dim, 3))
		case 'G':
			out = append(out, grandkids(dim, 1), grandkids(dim, 2), grandkids(dim, 3))
		default:
			panic("bench: unknown level code " + string(c))
		}
	}
	return out
}

// shapeAxes expands a shape such as "tk/t/tkg" (level codes of A, B and
// C; "-" leaves a dimension out) into axes with seeded member picks.
func shapeAxes(rng *rand.Rand, shape string, mid int) []axis {
	var axes []axis
	for i, codes := range strings.Split(shape, "/") {
		if codes == "-" {
			continue
		}
		dim := string(rune('A' + i))
		axes = append(axes, levelGroups(rng, dim, codes, mid))
	}
	return axes
}

// scanShapes are non-selective mixed-level expressions in the spirit of
// the paper's Q1-Q4/Q9: every predicate keeps a third of its dimension
// or all of it, so every class is a shared scan. 2 to 12 component
// queries each. The restricted ones (lower-case codes) end up as bitmap
// filters riding one scan of A'B'C'D; the unrestricted ones (T, K) as
// hash star joins over several views; "g" reaches the base table.
var scanShapes = []string{
	"tk/t/t", "t/tk/tk", "tk/tk/tk", "tkg/tk/t", "tk/tkg/tk", "K/K/tk",
	"TK/TK/T", "T/TK/TK", "TKG/T/T", "TK/TK/TK", "Tg/T/t", "TK/T/t",
}

// probeShapes are selective mid-level expressions of the Q6-Q8 class:
// single mid-level members on at least two dimensions, which the
// optimizer answers with shared index star joins on A'B'C'D. The last
// two are the exception that keeps the third shared operator in play:
// their four queries ride one scan of A'B'C'D as bitmap filters. They
// are two so that the slowest twelfth of the pool is one kind of
// expression and the 95th percentile lies inside it, not on the step
// down to the probes. The cells of the A' x B' grid are added by
// probePool.
var probeShapes = []string{
	"m/m/m", "m/m/t", "m/t/m", "t/m/m",
	"m/m/k", "m/k/m", "k/m/m",
	"mt/m/m", "m/mt/m", "m/m/mt",
	"mt/mt/m", "m/mt/mt",
}

// fixedPool renders one expression per shape, undecorated: the pool is
// cycled, so its plans stay cached.
func fixedPool(rng *rand.Rand, shapes []string, mid int) []expr {
	pool := make([]expr, len(shapes))
	for i, s := range shapes {
		pool[i] = render(shapeAxes(rng, s, mid), dFilter(1+rng.Intn(4)))
	}
	return pool
}

// gridBlocks tiles the A' x B' plane into gridBlocks x gridBlocks cells
// (BENCH_idx.json's dense-union grid, with one C' member so that a cell
// stays on the probe side of the optimizer's scan-or-probe choice).
const gridBlocks = 12

// probePool is probeShapes plus as many cells of that grid, one cell per
// expression because MDX cannot put same-level queries with different
// members into one.
func probePool(rng *rand.Rand, mid int) []expr {
	pool := fixedPool(rng, probeShapes, mid)
	slice := func(dim string, b int) axis {
		var gs axis
		for m := b * mid / gridBlocks; m < (b+1)*mid/gridBlocks; m++ {
			gs = append(gs, midMember(dim, m+1))
		}
		return gs
	}
	for _, cell := range rng.Perm(gridBlocks * gridBlocks)[:len(probeShapes)] {
		axes := []axis{
			slice("A", cell/gridBlocks),
			slice("B", cell%gridBlocks),
			{midMember("C", 1+rng.Intn(mid))},
		}
		pool = append(pool, render(axes, dFilter(1+rng.Intn(4))))
	}
	return pool
}

// latticeShapes are unrestricted lattice marginals: two or three of A,
// B, C, each at a non-empty subset of its three levels, every member
// kept (the LowDimMarginals shape). 4 to 8 queries and 1,500 to 140,000
// result rows each. The full 27-marginal expression is left out: at
// this scale it returns 2.4 million rows and takes six seconds, most of
// it formatting member names. Shapes marked "!" group two dimensions at
// the base level; their fold tables hold over a hundred thousand groups
// and they are the ones sent under the memory cap, where they spill.
//
// One line per cost class (about 13, 35, 70-90 and 180 ms at scale
// 0.25). The third class holds the median of the 22 and the fourth the
// 95th percentile, each well inside its class, so that neither sits on
// a step between classes where a little noise would move it far: the
// 95th percentile is the 1.1th slowest of a block, and the three capped
// shapes are alike. (With the nine-query "TKG/TKG/-!", 210 ms, as one of
// the three it sat on the step down to the other two, 180 ms, and moved
// by 14 % from run to run.)
var latticeShapes = []string{
	"TK/TK/-", "TK/-/TK", "-/TK/TK",
	"TG/TK/-", "-/TG/TK", "TK/-/TG", "TKG/TK/-", "-/TKG/TK", "TK/-/TKG",
	"TK/TK/K", "K/TK/TK", "TK/K/TK", "TK/TK/TK", "TKG/T/TK", "TK/TKG/T", "TKG/TK/T", "T/TKG/TK", "TK/T/TKG", "T/TK/TKG",
	"KG/KG/-!", "-/KG/KG!", "KG/-/KG!",
}

// latticeRound renders every lattice shape once, in seeded order, each
// decorated so that its text has not been seen before (a plan-cache
// miss). seen persists across rounds.
func latticeRound(rng *rand.Rand, mid int, seen map[string]bool) []expr {
	round := make([]expr, 0, len(latticeShapes))
	for _, si := range rng.Perm(len(latticeShapes)) {
		shape, capped := strings.CutSuffix(latticeShapes[si], "!")
		axes := shapeAxes(rng, shape, mid)
		e := fresh(seen, func() expr { return decorate(rng, axes, "") })
		e.capped = capped
		round = append(round, e)
	}
	return round
}

// fresh draws until the text is new, giving up after a few tries: a
// stream may then repeat a text, as an analyst may, and the plan cache
// may hit on it. The hit ratio is reported.
func fresh(seen map[string]bool, draw func() expr) expr {
	e := draw()
	for try := 0; seen[e.text] && try < 8; try++ {
		e = draw()
	}
	seen[e.text] = true
	return e
}

// Analyst sessions (session_cached). A session opens with one detailed
// query, A'B'C' restricted to the children of one top member per
// dimension under one D' slice, and then walks roll-ups, slices and
// siblings that are all derivable from that root's result.
const (
	sessionsPerRound = 12
	sessionMinSteps  = 15
	sessionMaxSteps  = 30
)

type session struct {
	i          int // position in the block
	a, b, c, d int // the root's top members of A, B, C and its D' slice
	steps      int
}

func (s session) root() []axis {
	return []axis{
		{kids("A", s.a)},
		{kids("B", s.b)},
		{kids("C", s.c)},
	}
}

// siblingEvery is how often a step looks sideways: every siblingEvery-th
// step swaps one dimension's top member for another, which the root's
// result cannot answer. Together with the roots these steps fix the
// share of real scans by construction (12 roots and 11 siblings in a
// block of 277) instead of leaving it to the cache's eviction order.
//
// At 16 the 95th percentile of a block is a root: the siblings and the
// misses that follow them, 3 to 7 ms in half a dozen cost classes, are
// the slowest 2 %, the roots, all within 4.1-4.4 ms, the next 4 %. At 8
// the slower siblings alone were 5 % and the percentile sat on the step
// between two of their classes, 4.7 or 5.3 ms as the machine's noise
// had it.
const siblingEvery = 16

// step is the n-th follow-up: each dimension either stays at the root's
// mid level (all children, or a slice of them), rolls up to the root's
// top member, or shows both levels (two queries from that dimension).
// Which of the four a dimension does, how wide a slice is and when the
// step looks sideways follow from the session's position and n, so that
// every block holds the same mix of steps; the seed picks the members.
func (s session) step(rng *rand.Rand, mid, n int) []axis {
	fan := mid / 3
	dims := []struct {
		name string
		top  int
	}{{"A", s.a}, {"B", s.b}, {"C", s.c}}
	if n%siblingEvery == siblingEvery-1 {
		d := &dims[(n/siblingEvery+s.i)%len(dims)]
		d.top = 1 + (d.top+rng.Intn(2))%3
	}
	axes := make([]axis, 0, 3)
	for di, d := range dims {
		var gs axis
		switch kind := (n + s.i + di*(1+n/4)) % 4; kind {
		case 0: // stay
			gs = []group{kids(d.name, d.top)}
		case 1: // roll up
			gs = []group{topMember(d.name, d.top)}
		case 2: // both levels
			gs = []group{topMember(d.name, d.top), kids(d.name, d.top)}
		case 3: // slice: a few siblings under the root's top member
			first := (d.top - 1) * fan
			for _, m := range rng.Perm(fan)[:1+(n+di)%3] {
				gs = append(gs, midMember(d.name, first+m+1))
			}
		}
		axes = append(axes, gs)
	}
	return axes
}

// sessionRound interleaves sessionsPerRound sessions round-robin: all
// roots first, then one step of every live session at a time; the
// sessions' lengths step evenly from sessionMinSteps to sessionMaxSteps.
// Every answer enters the result cache, so the steps of twelve sessions
// push each other's derived results out (evictions) while the roots,
// dear to recompute, stay.
func sessionRound(rng *rand.Rand, mid int, seen map[string]bool) []expr {
	live := make([]session, sessionsPerRound)
	var round []expr
	for i := range live {
		live[i] = session{
			i: i, a: 1 + rng.Intn(3), b: 1 + rng.Intn(3), c: 1 + rng.Intn(3), d: 1 + rng.Intn(4),
			steps: sessionMinSteps + i*(sessionMaxSteps-sessionMinSteps)/(sessionsPerRound-1),
		}
		s := live[i]
		round = append(round, fresh(seen, func() expr { return decorate(rng, s.root(), dFilter(s.d)) }))
	}
	for n := 0; n < sessionMaxSteps; n++ {
		for _, s := range live {
			if n < s.steps {
				s := s
				round = append(round, fresh(seen, func() expr { return decorate(rng, s.step(rng, mid, n), dFilter(s.d)) }))
			}
		}
	}
	return round
}
