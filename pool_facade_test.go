package mdxopt

import (
	"reflect"
	"testing"

	"mdxopt/internal/dag"
	"mdxopt/internal/workload"
)

// TestEffectiveWorkers: a request's Workers wins when set, the database
// default (OpenOptions.Workers) otherwise — a batch runs as a request
// with Workers unset; every width clamps to [1, the pool cap].
func TestEffectiveWorkers(t *testing.T) {
	cap := dag.WorkerCap()
	cases := []struct {
		request, database, want int
	}{
		{0, 0, 1},
		{3, 0, 3},
		{3, 8, 3}, // the request overrides the database default
		{0, 4, 4}, // the database default fills an unset request
		{-1, 2, 2},
		{0, -1, 1},
		{1 << 20, 0, cap},
		{0, 1 << 20, cap},
	}
	for _, c := range cases {
		d := &DB{workers: c.database}
		if got := d.effectiveWorkers(c.request); got != c.want {
			t.Errorf("request %d, database %d: width %d, want %d", c.request, c.database, got, c.want)
		}
	}
	for w, want := range map[int]int{-1: 1, 0: 1, 1: 1, 4: 4, 1 << 20: cap} {
		if got := clampWorkers(w); got != want {
			t.Errorf("clampWorkers(%d) = %d, want %d", w, got, want)
		}
	}
}

// TestWorkersKnobEquivalence: the unified Workers option must produce
// byte-identical answers at every width, report the pool-wide peak in
// WorkerPeak, and surface the post-clamp width in EffectiveWorkers.
func TestWorkersKnobEquivalence(t *testing.T) {
	db := sample(t)
	src := workload.MDX()["Q1"]

	base, err := db.QueryWith(src, Options{Workers: 1, ColdCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.EffectiveWorkers != 1 || base.Stats.WorkerPeak != 1 {
		t.Fatalf("serial run reported EffectiveWorkers=%d WorkerPeak=%d, want 1/1",
			base.Stats.EffectiveWorkers, base.Stats.WorkerPeak)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := db.QueryWith(src, Options{Workers: workers, ColdCache: true})
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(par.Queries, base.Queries) {
			t.Fatalf("Workers=%d: answer differs from serial", workers)
		}
		if par.Stats.EffectiveWorkers != workers {
			t.Fatalf("Workers=%d: EffectiveWorkers = %d", workers, par.Stats.EffectiveWorkers)
		}
		if par.Stats.WorkerPeak < 1 || par.Stats.WorkerPeak > workers {
			t.Fatalf("Workers=%d: WorkerPeak %d outside [1, %d]",
				workers, par.Stats.WorkerPeak, workers)
		}
		if used := db.MemoryStats().Used; used != 0 {
			t.Fatalf("Workers=%d: %d bytes still reserved", workers, used)
		}
	}

	// Absurd widths clamp to the machine cap instead of spawning a
	// goroutine per page.
	clamped, err := db.QueryWith(src, Options{Workers: 1 << 20, ColdCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if clamped.Stats.EffectiveWorkers != dag.WorkerCap() {
		t.Fatalf("Workers=1<<20: EffectiveWorkers = %d, want cap %d",
			clamped.Stats.EffectiveWorkers, dag.WorkerCap())
	}
	if !reflect.DeepEqual(clamped.Queries, base.Queries) {
		t.Fatal("clamped run differs from serial")
	}
}
