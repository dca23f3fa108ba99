package mdxopt

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mdxopt/internal/datagen"
)

// The facade's cross-option oracle. Each answer of the engine is checked
// against exec.Naive, which shares no code with the operators, under
// every combination of the options that change how a request executes:
// the pool width, a database-wide memory budget, the result cache and
// batched admission. Interactions between options — such as the
// admission deadlock a tight budget once caused with Workers > 1 — are
// what a per-feature suite misses.

const (
	diffScale = 0.01
	// diffTightBudget is small enough that the two-dimension base-level
	// marginals spill at every width.
	diffTightBudget = 64 << 10
	// diffWait bounds one configuration's requests; a wedged request
	// fails the test instead of hanging the suite.
	diffWait = 30 * time.Second
)

func diffTop(dim string, i int) string { return fmt.Sprintf("%s''.%s%d", dim, dim, i) }
func diffMid(dim string, i int) string { return fmt.Sprintf("%s'.%s%s%d", dim, dim, dim, i) }

// diffRender writes one expression with each axis's groups, axes and
// groups in random order.
func diffRender(rng *rand.Rand, axes [][]string, filter string) string {
	var parts []string
	for _, groups := range axes {
		groups = append([]string(nil), groups...)
		rng.Shuffle(len(groups), func(a, b int) { groups[a], groups[b] = groups[b], groups[a] })
		parts = append(parts, "{"+strings.Join(groups, ", ")+"}")
	}
	rng.Shuffle(len(parts), func(a, b int) { parts[a], parts[b] = parts[b], parts[a] })
	var b strings.Builder
	for i, ax := range parts {
		fmt.Fprintf(&b, "%s on %s ", ax, []string{"COLUMNS", "ROWS", "PAGES"}[i])
	}
	b.WriteString("CONTEXT ABCD")
	if filter != "" {
		fmt.Fprintf(&b, " FILTER (%s)", filter)
	}
	return b.String()
}

// diffMarginal renders an unrestricted lattice marginal, shaped like the
// benchmark's lattice_wide: two or three of A, B and C, each grouped at
// a non-empty subset of its three levels with every member kept, 4 to 8
// component queries. A wide one groups two dimensions at the base level,
// the largest fold tables of the schema.
func diffMarginal(rng *rand.Rand, wide bool) string {
	for {
		dims := []string{"A", "B", "C"}
		rng.Shuffle(3, func(a, b int) { dims[a], dims[b] = dims[b], dims[a] })
		dims = dims[:2+rng.Intn(2)]
		axes := make([][]string, len(dims))
		queries := 1
		for i, dim := range dims {
			levels := 0
			for l, suffix := range []string{"", ".CHILDREN", ".CHILDREN.CHILDREN"} {
				if rng.Intn(2) == 0 || (l == 2 && wide && i < 2) || (l == 2 && levels == 0) {
					levels++
					for top := 1; top <= 3; top++ {
						axes[i] = append(axes[i], diffTop(dim, top)+suffix)
					}
				}
			}
			queries *= levels
		}
		if queries >= 4 && queries <= 8 {
			return diffRender(rng, axes, "")
		}
	}
}

// diffSession renders an analyst's restricted slice under one D' member
// and a drill-down of it. Per dimension the slice keeps one top member,
// its children, a few of its mid-level members, or the member with its
// children; the drill-down takes one dimension one level further down.
func diffSession(rng *rand.Rand, mid int) (slice, drill string) {
	var axes, drills [][]string
	for _, dim := range []string{"A", "B", "C"} {
		ti := rng.Intn(3)
		top := diffTop(dim, 1+ti)
		switch rng.Intn(4) {
		case 0:
			axes = append(axes, []string{top})
			drills = append(drills, []string{top + ".CHILDREN"})
		case 1:
			axes = append(axes, []string{top + ".CHILDREN"})
			drills = append(drills, []string{top + ".CHILDREN.CHILDREN"})
		case 2:
			fan := mid / 3 // mid-level members under each top member
			var mids, kids []string
			for _, m := range rng.Perm(fan)[:1+rng.Intn(fan)] {
				mids = append(mids, diffMid(dim, ti*fan+m+1))
				kids = append(kids, diffMid(dim, ti*fan+m+1)+".CHILDREN")
			}
			axes = append(axes, mids)
			drills = append(drills, kids)
		case 3:
			axes = append(axes, []string{top, top + ".CHILDREN"})
			drills = append(drills, []string{top + ".CHILDREN", top + ".CHILDREN.CHILDREN"})
		}
	}
	filter := fmt.Sprintf("D'.DD%d", 1+rng.Intn(4))
	slice = diffRender(rng, axes, filter)
	d := rng.Intn(3)
	axes[d] = drills[d]
	return slice, diffRender(rng, axes, filter)
}

// TestDifferentialAgainstNaive answers random expressions — lattice
// marginals, restricted slices and their drill-downs — under every
// combination of Workers {1,2,4,8}, MemoryBudget {0, tight}, submitters
// {one, two concurrent} and ResultCacheBudget {0, 1 MiB}, and requires
// every answer to equal exec.Naive's and the broker to drain after each
// configuration.
func TestDifferentialAgainstNaive(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	seed, err := CreateSample(dir, diffScale)
	if err != nil {
		t.Fatal(err)
	}
	mid := datagen.PaperSpec(diffScale).Cards[0][1]
	rng := rand.New(rand.NewSource(20261015))

	type config struct {
		workers     int
		budget      int64
		concurrent  bool
		cacheBudget int64
		srcs        []string
	}
	var configs []config
	want := map[string]*Answer{}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, budget := range []int64{0, diffTightBudget} {
			for _, concurrent := range []bool{false, true} {
				for _, cacheBudget := range []int64{0, 1 << 20} {
					slice, drill := diffSession(rng, mid)
					c := config{workers, budget, concurrent, cacheBudget, []string{
						diffMarginal(rng, true), diffMarginal(rng, false), slice, drill,
					}}
					for _, src := range c.srcs {
						if want[src] == nil {
							want[src] = naiveAnswer(t, seed, src)
						}
					}
					configs = append(configs, c)
				}
			}
		}
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	for _, c := range configs {
		label := fmt.Sprintf("workers=%d budget=%d concurrent=%t cache=%d", c.workers, c.budget, c.concurrent, c.cacheBudget)
		db, err := OpenWith(dir, OpenOptions{
			MemoryBudget:      c.budget,
			Workers:           c.workers,
			SpillDir:          t.TempDir(),
			ResultCacheBudget: c.cacheBudget,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Concurrent: two submitters each send every expression back to
		// back, in opposite orders, so requests that queue behind busy
		// runner slots merge different compositions.
		submitters := [][]string{c.srcs}
		if c.concurrent {
			rev := make([]string, len(c.srcs))
			for i, src := range c.srcs {
				rev[len(rev)-1-i] = src
			}
			submitters = append(submitters, rev)
		}
		type answer struct {
			src string
			ans *Answer
			err error
		}
		answers := make(chan answer, len(submitters)*len(c.srcs))
		var wg sync.WaitGroup
		for _, srcs := range submitters {
			wg.Add(1)
			go func(srcs []string) {
				defer wg.Done()
				for _, src := range srcs {
					ans, err := db.Query(src)
					answers <- answer{src, ans, err}
				}
			}(srcs)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(diffWait):
			// The wedged database cannot be closed; leave it open.
			t.Fatalf("%s: requests did not complete in %s; broker %+v", label, diffWait, db.MemoryStats())
		}
		close(answers)
		var spilled int64
		for a := range answers {
			if a.err != nil {
				t.Fatalf("%s: %s: %v", label, a.src, a.err)
			}
			sameAnswer(t, label+": "+a.src, a.ans, want[a.src])
			spilled += a.ans.Stats.SpillBytes
		}
		if c.budget > 0 && spilled == 0 {
			t.Fatalf("%s: the tight budget never spilled", label)
		}
		if ms := db.MemoryStats(); ms.Used != db.ResultCacheStats().Bytes || ms.Waiting != 0 {
			t.Fatalf("%s: broker not drained: %+v (cache holds %d)", label, ms, db.ResultCacheStats().Bytes)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
