package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mdxopt"
	"mdxopt/internal/workload"
)

// The serve experiment measures the serving layer this repository adds
// on top of the paper: the same Poisson Q1–Q9 workload against a buffer
// pool far smaller than the data, sent three ways at each database
// width — by concurrent clients ("grouped": requests that arrive while
// the runner slots are busy queue and merge into shared passes), by the
// same clients with a per-request memory budget ("alone": such requests
// never merge, so each runs at once on its own, concurrently), and one
// request at a time by one client ("solo").

// serveConfig parameterizes one serve run.
type serveConfig struct {
	Scale      float64 `json:"scale"`
	Clients    int     `json:"clients"`
	PerClient  int     `json:"queries_per_client"`
	RatePerSec float64 `json:"arrival_rate_per_sec"`
	PoolFrames int     `json:"pool_frames"`
	Widths     []int   `json:"widths"`
	Reps       int     `json:"reps"`
}

// serveSide is the measured outcome of one serving mode.
type serveSide struct {
	WallMS     float64 `json:"wall_ms"` // mean per rep
	QueriesSec float64 `json:"queries_per_sec"`
	PageReads  int64   `json:"page_reads"` // attributed, mean per rep
}

// serveWidth compares the three sides at one database width. Coalesced
// and Batches count the grouped side's replays.
type serveWidth struct {
	Width     int       `json:"width"`
	Grouped   serveSide `json:"grouped"`
	Alone     serveSide `json:"alone"`
	Solo      serveSide `json:"solo"`
	Coalesced int64     `json:"coalesced_submissions"`
	Batches   int64     `json:"batches"`
}

type serveReport struct {
	Config serveConfig  `json:"config"`
	Widths []serveWidth `json:"widths"`
}

// serveReplay runs the workload once with opts: one goroutine per
// client, each sending its requests in order. pace holds every request
// back to its Poisson offset; without it a client sends back to back. It
// returns the wall time and total attributed page reads.
func serveReplay(db *mdxopt.DB, perClient [][]workload.Arrival, pace bool, opts mdxopt.Options) (time.Duration, int64, error) {
	start := time.Now()
	var pages atomic.Int64
	errs := make(chan error, len(perClient))
	var wg sync.WaitGroup
	for _, reqs := range perClient {
		wg.Add(1)
		go func(reqs []workload.Arrival) {
			defer wg.Done()
			for _, req := range reqs {
				if wait := req.At - time.Since(start); pace && wait > 0 {
					time.Sleep(wait)
				}
				a, err := db.QueryWith(req.Src, opts)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", req.Name, err)
					return
				}
				pages.Add(a.Stats.PageReads)
			}
		}(reqs)
	}
	wg.Wait()
	wall := time.Since(start)
	select {
	case err := <-errs:
		return 0, 0, err
	default:
	}
	return wall, pages.Load(), nil
}

// runServe builds (or reuses) the benchmark database, replays the
// workload on every side at every width, prints a summary, and
// optionally writes the JSON report.
func runServe(w io.Writer, dir string, scale float64, jsonPath string) error {
	cfg := serveConfig{
		Scale:      scale,
		Clients:    8,
		PerClient:  4,
		RatePerSec: 2000,
		PoolFrames: 64,
		Widths:     []int{1, 2},
		Reps:       5,
	}

	if _, err := os.Stat(dir); os.IsNotExist(err) {
		start := time.Now()
		db, err := mdxopt.CreateSample(dir, scale)
		if err != nil {
			return err
		}
		if err := db.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "built database in %s\n", time.Since(start).Round(time.Millisecond))
	}

	rng := rand.New(rand.NewSource(7))
	arrivals := workload.Arrivals(rng, cfg.Clients*cfg.PerClient, cfg.RatePerSec)
	grouped := workload.PerClient(arrivals, cfg.Clients)
	solo := [][]workload.Arrival{arrivals}
	queries := float64(len(arrivals))

	// A budget far above any request's state: it only keeps requests
	// from merging.
	alone := mdxopt.Options{MemoryBudget: 1 << 30}
	measure := func(db *mdxopt.DB, perClient [][]workload.Arrival, pace bool, opts mdxopt.Options) (serveSide, error) {
		// One warm-up rep settles the pool and the plan cache.
		if _, _, err := serveReplay(db, perClient, pace, opts); err != nil {
			return serveSide{}, err
		}
		var wall time.Duration
		var pages int64
		for rep := 0; rep < cfg.Reps; rep++ {
			wl, pg, err := serveReplay(db, perClient, pace, opts)
			if err != nil {
				return serveSide{}, err
			}
			wall += wl
			pages += pg
		}
		mean := wall / time.Duration(cfg.Reps)
		return serveSide{
			WallMS:     float64(mean.Microseconds()) / 1e3,
			QueriesSec: queries / mean.Seconds(),
			PageReads:  pages / int64(cfg.Reps),
		}, nil
	}

	rep := serveReport{Config: cfg}
	fmt.Fprintf(w, "serve: %d requests, %d clients grouped or alone vs 1 solo, scale %g, %d-frame pool\n",
		len(arrivals), cfg.Clients, cfg.Scale, cfg.PoolFrames)
	for _, width := range cfg.Widths {
		db, err := mdxopt.OpenWith(dir, mdxopt.OpenOptions{PoolFrames: cfg.PoolFrames, Workers: width})
		if err != nil {
			return err
		}
		r := serveWidth{Width: width}
		before := db.BatchStats()
		r.Grouped, err = measure(db, grouped, true, mdxopt.Options{})
		after := db.BatchStats()
		if err == nil {
			r.Alone, err = measure(db, grouped, true, alone)
		}
		if err == nil {
			r.Solo, err = measure(db, solo, false, mdxopt.Options{})
		}
		if cerr := db.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		r.Coalesced, r.Batches = after.Coalesced-before.Coalesced, after.Batches-before.Batches
		rep.Widths = append(rep.Widths, r)

		fmt.Fprintf(w, "  width %d grouped: %8.2f ms/run  %8.0f queries/s  %6d page reads (%d submissions coalesced, %d batches)\n",
			width, r.Grouped.WallMS, r.Grouped.QueriesSec, r.Grouped.PageReads, r.Coalesced, r.Batches)
		fmt.Fprintf(w, "  width %d alone  : %8.2f ms/run  %8.0f queries/s  %6d page reads\n",
			width, r.Alone.WallMS, r.Alone.QueriesSec, r.Alone.PageReads)
		fmt.Fprintf(w, "  width %d solo   : %8.2f ms/run  %8.0f queries/s  %6d page reads\n",
			width, r.Solo.WallMS, r.Solo.QueriesSec, r.Solo.PageReads)
	}

	if jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", jsonPath)
	}
	return nil
}
