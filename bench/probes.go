package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"mdxopt/internal/core"
	"mdxopt/internal/exec"
	"mdxopt/internal/plan"
	"mdxopt/internal/query"
	"mdxopt/internal/star"
	"mdxopt/internal/table"
	paper "mdxopt/internal/workload"
)

// probeLayers measures single layers through their own exported
// functions, on the database the workload just used: the numbers under
// the spans, which no expression isolates.
func (s *stager) probeLayers(rep *report) error {
	snap, release := s.sdb.Pin()
	defer release()
	view := snap.ViewByName("A'B'C'D")
	if view == nil {
		return fmt.Errorf("probe: no A'B'C'D view")
	}
	heap := view.Heap
	pages := float64(heap.DataPages())

	// table: decode a warm view page by page, then fetch a few slots of
	// every page the way the index join does.
	scan := func() error { return heap.ScanRangeBatches(0, heap.Count(), func(*table.Batch) error { return nil }) }
	if err := scan(); err != nil {
		return err
	}
	scanUS, err := bestOf(3, scan)
	if err != nil {
		return err
	}
	fetch := func() error {
		row, step := int64(-1), int64(heap.TuplesPerPage()/4)
		return heap.FetchBatches(func() int64 {
			if row += step; row >= heap.Count() {
				return -1
			}
			return row
		}, func(*table.Batch, []int32) error { return nil })
	}
	fetchUS, err := bestOf(3, fetch)
	if err != nil {
		return err
	}
	rep.set("table.scan_us_per_page", scanUS/pages)
	rep.set("table.fetch_page_us", fetchUS/pages)

	// bitmap: load single bitmaps into an emptied index cache (their
	// pages stay in the pool), then union a third of a column.
	ix := view.Indexes[0]
	if ix == nil {
		return fmt.Errorf("probe: A'B'C'D has no index on A'")
	}
	values := ix.Values()
	var loads []float64
	for _, v := range values {
		ix.DropCache()
		start := time.Now()
		if _, _, err := ix.Lookup(v); err != nil {
			return err
		}
		loads = append(loads, float64(time.Since(start).Nanoseconds())/1e3)
	}
	rep.set("bitmap.index_load_us", median(loads))
	third := values[:max(1, len(values)/3)]
	var words int64
	unionUS, err := bestOf(5, func() error {
		_, w, err := ix.OrOf(third)
		words = w
		return err
	})
	if err != nil {
		return err
	}
	rep.set("bitmap.union_words_per_s", float64(words)/(unionUS/1e6))

	// storage: the pool's hit path on one resident page, and its miss
	// path on the first pages of the view after emptying the pool (the
	// reads come from the operating system's cache, not from a device).
	file := heap.File()
	const hits = 20000
	hitUS, err := bestOf(3, func() error {
		for i := 0; i < hits; i++ {
			p, err := snap.Pool.Fetch(file, 1)
			if err != nil {
				return err
			}
			p.Unpin()
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("storage.fetch_hit_ns", hitUS*1e3/hits)
	misses := uint32(min(int64(256), heap.DataPages()))
	fetchFirst := func() error {
		for pg := uint32(1); pg <= misses; pg++ {
			p, err := snap.Pool.Fetch(file, pg)
			if err != nil {
				return err
			}
			p.Unpin()
		}
		return nil
	}
	missUS := math.Inf(1)
	for i := 0; i < 3; i++ {
		if err := snap.Pool.FlushAll(); err != nil {
			return err
		}
		us, err := bestOf(1, fetchFirst)
		if err != nil {
			return err
		}
		missUS = math.Min(missUS, us)
	}
	rep.set("storage.fetch_miss_us", missUS/float64(misses))
	rep.set("star.pin_ns", s.d.us("star.pin")*1e3)

	if err := s.paperTests(rep, snap); err != nil {
		return err
	}
	return s.maintenanceCycles(rep)
}

// bestOf runs f n times and returns the shortest wall in microseconds.
func bestOf(n int, f func() error) (float64, error) {
	best := math.Inf(1)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		best = math.Min(best, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return best, nil
}

// paperTests is Table 2 of the paper on this machine: the query sets of
// Tests 4 to 7 (internal/workload), each optimized by TPLO, ETPLG and GG
// and run cold with core.Run; the ratios are of measured wall time,
// summed over the four tests, each plan's wall the median of three
// interleaved runs.
func (s *stager) paperTests(rep *report, snap *star.Snapshot) error {
	all, err := paper.PaperQueries(snap.Schema)
	if err != nil {
		return err
	}
	tests := [][]string{{"Q1", "Q2", "Q3"}, {"Q2", "Q3", "Q5"}, {"Q6", "Q7", "Q8"}, {"Q1", "Q7", "Q9"}}
	algs := []core.Algorithm{core.TPLO, core.ETPLG, core.GG}
	walls := map[core.Algorithm]float64{}
	for _, names := range tests {
		queries := make([]*query.Query, len(names))
		for i, n := range names {
			queries[i] = all[n]
		}
		plans := map[core.Algorithm]*plan.Global{}
		for _, alg := range algs {
			g, err := core.Optimize(plan.NewEstimator(snap), queries, alg)
			if err != nil {
				return err
			}
			plans[alg] = g
		}
		runs := map[core.Algorithm][]float64{}
		for rep := 0; rep < 3; rep++ {
			for _, alg := range algs {
				if err := snap.ColdReset(); err != nil {
					return err
				}
				env := exec.NewEnv(snap)
				env.Ctx, env.Mem, env.SpillDir = context.Background(), s.broker, s.in.spill
				var st exec.Stats
				start := time.Now()
				if _, err := core.Run(env, plans[alg], queries, &st, core.ExecOptions{}); err != nil {
					return err
				}
				runs[alg] = append(runs[alg], float64(time.Since(start).Nanoseconds())/1e3)
			}
		}
		for _, alg := range algs {
			walls[alg] += median(runs[alg])
		}
	}
	rep.set("plan.run_ratio_tplo_gg", ratio(walls[core.TPLO], walls[core.GG]))
	rep.set("plan.run_ratio_etplg_gg", ratio(walls[core.ETPLG], walls[core.GG]))
	return nil
}

// maintenanceCycles runs two more maintenance cycles at the star layer,
// where the pool's write counters can be read: pages written and pool
// flushes per cycle, and bytes written per byte of loaded facts. Only
// maint_mixed does it; elsewhere the three metrics are zero. The loads
// join the maintainer's log so that the final checks expect them.
func (s *stager) maintenanceCycles(rep *report) error {
	var writes, flushes, loaded float64
	const cycles = 2
	if s.r.w.maint {
		before := s.sdb.Pool.Stats()
		for k := 0; k < cycles; k++ {
			rows := s.r.loadRows(s.in, s.in.loadRng)
			root := s.tr.begin("staged.maintenance", 0, 0)
			err := s.stage("star.load_close", root, 0, nil, func() error {
				app := s.sdb.Base().Heap.NewAppender()
				for i := range rows {
					if err := app.Append(rows[i].keys[:], []float64{rows[i].measure}); err != nil {
						return err
					}
				}
				if err := app.Close(); err != nil {
					return err
				}
				s.sdb.Publish()
				return nil
			})
			if err == nil {
				err = s.stage("star.refresh", root, 0, nil, s.sdb.Refresh)
			}
			if err == nil {
				views := s.sdb.Views[1:]
				err = s.stage("star.compact", root, 0, nil, func() error { return s.sdb.Compact(views[k%len(views)]) })
			}
			s.tr.end(root, nil)
			if err != nil {
				return err
			}
			s.in.maint.loads = append(s.in.maint.loads, rows)
			s.in.maint.loadEpochs = append(s.in.maint.loadEpochs, math.MaxUint64)
			loaded += float64(len(rows)) * float64(s.in.tupleBytes)
		}
		if err := s.sdb.Pool.FlushAll(); err != nil {
			return err
		}
		io := s.sdb.Pool.Stats().Sub(before)
		writes, flushes = float64(io.Writes), float64(io.FlushedAll)
	}
	rep.set("storage.writes_per_cycle", writes/cycles)
	rep.set("storage.flushes_per_cycle", flushes/cycles)
	rep.set("storage.write_bytes_per_fact_byte", ratio(writes*8192, loaded))
	return nil
}
