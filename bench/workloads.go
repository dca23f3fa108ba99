package main

import (
	"math/rand"

	"mdxopt"
)

// workload is one of the five closed-loop workloads. All of them drive
// the public facade with generated MDX text from one client goroutine;
// maint_mixed adds a second goroutine that loads, refreshes and
// compacts.
type workload struct {
	name string
	why  string

	// smallPool sizes the buffer pool at smallPoolShare of the data
	// pages ("does not fit"); otherwise the pool holds all of it.
	smallPool bool
	// capPerFact and cachePerFact size the per-request memory cap of
	// capped expressions (Options.MemoryBudget) and the result cache
	// (OpenOptions.ResultCacheBudget) in bytes per base fact, so that
	// the pressure they create is the same at every scale. 0 leaves the
	// option off.
	//
	// The cap is per request and capped requests run at one worker
	// because, at this commit, a database-wide MemoryBudget tight
	// enough to spill wedges any request running at two workers: a
	// class whose estimate exceeds the budget waits in mem.Broker.Admit
	// for the broker to go idle, which it never does while the hoisted
	// lookups of the same request hold their reservations.
	capPerFact, cachePerFact int64
	workers                  int
	cold                     bool

	// pool, when set, generates a fixed pool that the client cycles;
	// every expression of it is verified against the oracle before the
	// clock starts. Otherwise round generates the next block of fresh
	// expressions.
	pool  func(rng *rand.Rand, mid int) []expr
	round func(rng *rand.Rand, mid int, seen map[string]bool) []expr

	// maint runs the maintainer beside the reader.
	maint bool
}

const (
	// Pool sizes as shares of the database's pages after the build:
	// "fits" leaves room for the whole directory, "does not fit" holds
	// about a seventh of it.
	fitPoolShare   = 1.15
	smallPoolShare = 0.15
)

func scanPool(rng *rand.Rand, mid int) []expr { return fixedPool(rng, scanShapes, mid) }

// maintScanShapes is the scan side of maint_mixed's reader: nine
// four-query expressions of one cost and three heavy ones.
var maintScanShapes = []string{
	"t/tk/tk", "tk/t/tk", "tk/tk/t", "t/tk/tk", "tk/t/tk", "tk/tk/t", "t/tk/tk", "tk/t/tk", "tk/tk/t",
	"tk/tk/tk", "tkg/tk/t", "TK/TK/TK",
}

// mixedPool is what maint_mixed's reader cycles: 12 scan expressions
// and 6 probe expressions. Of the 18, the median is one of the nine
// like-cost scans and the 95th percentile one of the three heavy ones.
// A pool of scans of every cost put the median on a slope, and equal
// parts of scans and probes put it on the cliff between a 0.3 ms probe
// and a 7 ms scan; it moved by a third, or threefold, from run to run.
func mixedPool(rng *rand.Rand, mid int) []expr {
	scans := fixedPool(rng, maintScanShapes, mid)
	return append(scans, probePool(rng, mid)[:len(scans)/2]...)
}

var workloads = []*workload{
	{
		name:      "scan_cold",
		why:       "non-selective mixed-level expressions on a cold, too-small pool: shared-scan hash joins, table decode and the storage miss path do the work",
		smallPool: true, workers: 1, cold: true,
		pool: scanPool,
	},
	{
		name:    "probe_warm",
		why:     "selective mid-level expressions on a warm pool that holds everything: bitmap union, routing and page-batched fetch, no physical reads",
		workers: 1,
		pool:    probePool,
	},
	{
		name:    "lattice_wide",
		why:     "fresh text every time, 4-8 unrestricted marginals per expression at 2 workers, the widest ones under a memory cap: optimizer, DAG pool, big fold tables, spill",
		workers: 2, capPerFact: 16,
		round: latticeRound,
	},
	{
		name:      "session_cached",
		why:       "analyst sessions of roll-ups and slices answered from the result cache, every text new: parse, optimize, cache probe and rollup, not scans",
		smallPool: true, workers: 1, cachePerFact: 3,
		round: sessionRound,
	},
	{
		name:      "maint_mixed",
		why:       "one reader cycling scan and probe expressions while a maintainer loads, refreshes and compacts: snapshot publish, write path, re-planning",
		smallPool: true, workers: 1, maint: true,
		pool: mixedPool,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// openOptions sizes the facade's options for a database of the given
// page and fact counts.
func (w *workload) openOptions(pages, facts int64, spillDir string) mdxopt.OpenOptions {
	share := fitPoolShare
	if w.smallPool {
		share = smallPoolShare
	}
	return mdxopt.OpenOptions{
		PoolFrames:        int(float64(pages)*share) + 64,
		ResultCacheBudget: w.cachePerFact * facts,
		Workers:           w.workers,
		SpillDir:          spillDir,
	}
}

// queryOptions are the per-request options of an expression against a
// database of the given fact count.
func (w *workload) queryOptions(e expr, facts int64) mdxopt.Options {
	o := mdxopt.Options{ColdCache: w.cold}
	if e.capped {
		o.Workers, o.MemoryBudget = 1, w.capPerFact*facts
	}
	return o
}
