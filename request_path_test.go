package mdxopt

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"mdxopt/internal/core"
	"mdxopt/internal/datagen"
	"mdxopt/internal/exec"
	"mdxopt/internal/sched"
)

// Tests of the one request path behind the admission queue: serve plans,
// runs and demultiplexes every composition by one rule, a lone request
// being the composition of one.

// TestLoneStatsAreTheRunTotal: for a lone request the sum of its
// queries' attributed work — the rule every request's Stats follow — is
// the whole run's total, field for field, wall time included. The
// requests come from the differential test's generators (lattice
// marginals, slices and drill-downs), at widths 1 and 2, with the result
// cache off and on (each text is sent twice, so the second can be
// served from the cache) and with a budget tight enough to spill.
func TestLoneStatsAreTheRunTotal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	seed, err := CreateSample(dir, diffScale)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	mid := datagen.PaperSpec(diffScale).Cards[0][1]
	rng := rand.New(rand.NewSource(20261019))
	for _, workers := range []int{1, 2} {
		for _, budget := range []int64{0, diffTightBudget} {
			for _, cacheBudget := range []int64{0, 1 << 20} {
				label := fmt.Sprintf("workers=%d budget=%d cache=%d", workers, budget, cacheBudget)
				db, err := OpenWith(dir, OpenOptions{
					Workers:           workers,
					MemoryBudget:      budget,
					SpillDir:          t.TempDir(),
					ResultCacheBudget: cacheBudget,
				})
				if err != nil {
					t.Fatal(err)
				}
				slice, drill := diffSession(rng, mid)
				var cached int64
				for _, src := range []string{diffMarginal(rng, true), diffMarginal(rng, false), slice, drill, slice, drill} {
					rep := db.serve([]sched.Request{{Key: src, Ctx: context.Background()}}, Options{})[0]
					if rep.err != nil {
						t.Fatalf("%s: %s: %v", label, src, rep.err)
					}
					// core.Run adds every class's and cache rollup's
					// stats into its total, and nothing else.
					var total exec.Stats
					for _, cs := range rep.ex.Classes {
						total.Add(cs.Stats)
					}
					var sum exec.Stats
					for _, s := range rep.perQuery {
						sum.Add(s)
					}
					if sum != total {
						t.Fatalf("%s: %s: attributed work sums to\n%v\nthe run's total is\n%v", label, src, sum, total)
					}
					if len(rep.classes) != len(rep.ex.Classes) || rep.sharedWith != 0 {
						t.Fatalf("%s: %s: lone request lists %d of %d passes, shares with %d", label, src, len(rep.classes), len(rep.ex.Classes), rep.sharedWith)
					}
					if &rep.classes[0] != &rep.ex.Classes[0] {
						t.Fatalf("%s: %s: lone request copied the run's pass list", label, src)
					}
					ans, err := db.answer(&rep)
					if err != nil {
						t.Fatal(err)
					}
					got := statsOut(total)
					got.DAGNodes, got.WorkerPeak, got.EffectiveWorkers = ans.Stats.DAGNodes, ans.Stats.WorkerPeak, ans.Stats.EffectiveWorkers
					got.ResultCacheHits, got.ResultCacheMisses, got.ResultCacheEvictions = ans.Stats.ResultCacheHits, ans.Stats.ResultCacheMisses, ans.Stats.ResultCacheEvictions
					got.SnapshotEpoch, got.RetiredFiles = ans.Stats.SnapshotEpoch, ans.Stats.RetiredFiles
					if ans.Stats != got {
						t.Fatalf("%s: %s: answer stats %+v, run total %+v", label, src, ans.Stats, got)
					}
					cached += ans.Stats.ResultCacheHits
				}
				if cacheBudget > 0 && cached == 0 {
					t.Fatalf("%s: no request was served from the result cache", label)
				}
				// In a batch of two, each reply lists exactly the passes
				// and rollups holding a query of its own origin.
				pair := []string{diffMarginal(rng, true), slice}
				reps := db.serve([]sched.Request{{Key: pair[0], Ctx: context.Background()}, {Key: pair[1], Ctx: context.Background()}}, Options{})
				for i, rep := range reps {
					if rep.err != nil {
						t.Fatalf("%s: batch %q: %v", label, pair, rep.err)
					}
					prefix := fmt.Sprintf("s%d.", rep.queries[0].Origin)
					var want []core.ClassStat
					rollups := 0
					for _, cs := range rep.ex.Classes {
						if slices.ContainsFunc(cs.Queries, func(n string) bool { return strings.HasPrefix(n, prefix) }) {
							want = append(want, cs)
							if cs.Regime == "cache" {
								rollups++
							}
						}
					}
					if !reflect.DeepEqual(rep.classes, want) || len(rep.cached) != rollups {
						t.Fatalf("%s: batch %q: reply %d lists %d passes and %d rollups, holds %d of the run's %d", label, pair, i, len(rep.classes), len(rep.cached), len(want), len(rep.ex.Classes))
					}
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestServePlanFailureFallsBackPerSubmission: when planning a merged
// composition fails, serve plans and runs each request on its own, so
// one request that does not parse cannot sink its batch mates: they are
// answered as they would be alone, and it gets its own error.
func TestServePlanFailureFallsBackPerSubmission(t *testing.T) {
	db, err := CreateSample(filepath.Join(t.TempDir(), "db"), 0.002)
	if err != nil {
		t.Fatalf("CreateSample: %v", err)
	}
	defer db.Close()
	good := []string{
		`{A''.A1.CHILDREN} on COLUMNS CONTEXT ABCD FILTER (D'.DD1)`,
		`{B''.B2.CHILDREN} on COLUMNS CONTEXT ABCD FILTER (D'.DD1)`,
	}
	const bad = `{A''.A1.CHILDREN} on COLUMNS CONTEXT`
	_, wantErr := db.Query(bad)
	if wantErr == nil {
		t.Fatal("the unparsable request was answered")
	}
	want := map[string]*Answer{}
	for _, src := range good {
		if want[src], err = db.Query(src); err != nil {
			t.Fatal(err)
		}
	}
	srcs := []string{good[0], bad, good[1]}
	reqs := make([]sched.Request, len(srcs))
	for i, src := range srcs {
		reqs[i] = sched.Request{Key: src, Ctx: context.Background()}
	}
	reps := db.serve(reqs, Options{})
	if len(reps) != len(srcs) {
		t.Fatalf("%d replies for %d requests", len(reps), len(srcs))
	}
	for i, src := range srcs {
		ans, err := db.answer(&reps[i])
		if src == bad {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("unparsable request got %v, want its own error %v", err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if ans.BatchSize != 1 || ans.Plan != want[src].Plan || !reflect.DeepEqual(ans.Queries, want[src].Queries) {
			t.Fatalf("%s: batch of %d, plan\n%s\nwant its standalone answer, plan\n%s", src, ans.BatchSize, ans.Plan, want[src].Plan)
		}
	}
}

// TestExplainSharesThePlanCache: Explain plans as a lone request does,
// so a Query of the same text afterwards reuses the plan — one
// plan-cache hit — and reports the plan Explain showed: the very string
// rendered when the plan was cached, not a second rendering.
func TestExplainSharesThePlanCache(t *testing.T) {
	db, err := CreateSample(filepath.Join(t.TempDir(), "db"), 0.002)
	if err != nil {
		t.Fatalf("CreateSample: %v", err)
	}
	defer db.Close()
	const src = `{A''.A1.CHILDREN} on COLUMNS {B''.B1} on ROWS CONTEXT ABCD FILTER (D'.DD1)`
	plan, err := db.Explain(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hits := db.PlanCacheHits()
	ans, err := db.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.PlanCacheHits(); got != hits+1 {
		t.Fatalf("Query after Explain: plan-cache hits %d -> %d, want one hit", hits, got)
	}
	if ans.Plan != plan {
		t.Fatalf("Query ran plan\n%s\nExplain showed\n%s", ans.Plan, plan)
	}
	if unsafe.StringData(ans.Plan) != unsafe.StringData(plan) {
		t.Fatal("a plan-cache hit rendered the plan description again")
	}
}
