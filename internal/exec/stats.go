// Package exec implements the query evaluation primitives of the paper:
// pipelined hash star joins, bitmap-index star joins, hash aggregation,
// and — the paper's §3 contribution — the three *shared* operators:
//
//   - SharedScanHash: one scan of a common base table drives many hash
//     star-join + aggregation pipelines, with each dimension lookup
//     table built once for all queries that need it (§3.1, LookupSet).
//   - SharedIndex: per-query result bitmaps are OR-ed and the base table
//     is probed once; fetched tuples are routed to each query's
//     aggregation by re-testing its bitmap (§3.2).
//   - SharedMixed: index-join plans are converted from bitmap probing to
//     scan-plus-bitmap-filter so they ride along a hash plan's scan
//     (§3.3).
//
// Every operator accounts its work in a Stats, which the cost model
// converts to simulated 1998-hardware seconds.
package exec

import (
	"context"
	"fmt"
	"os"
	"time"

	"mdxopt/internal/cost"
	"mdxopt/internal/dag"
	"mdxopt/internal/mem"
	"mdxopt/internal/query"
	"mdxopt/internal/star"
	"mdxopt/internal/storage"
)

// Stats accumulates the work performed by one or more operators. It is
// the single authoritative record of every counter the engine reports;
// each field is documented here and nowhere else.
//
// All fields are additive: Add sums them component-wise, and Attribute
// splits a shared pass's totals across its queries (non-shared work
// exactly, shared work as an equal split of the residual). Every int64
// field must also be listed in statComponents (attribution.go);
// TestStatComponentsCoverEveryField checks it by reflection.
type Stats struct {
	// IO is the physical page I/O observed at the buffer pool: sequential
	// and random reads, writes, hits, allocations, evictions, and full
	// flushes. Spill I/O does NOT appear here — spill files are written
	// through a private DiskManager, bypassing the pool, and are counted
	// in SpillBytes instead.
	IO storage.Stats

	TuplesScanned int64 // tuples decoded by sequential scans
	TupleProbes   int64 // tuple × query hash star-join probes
	TuplesAgg     int64 // qualifying tuples folded into aggregates
	TuplesFetched int64 // tuple extractions driven by bitmap probes
	HashBuildRows int64 // dimension rows inserted into join lookup tables
	BitmapWords   int64 // 64-bit words of bitmap AND/OR
	BitTests      int64 // per-tuple bitmap membership tests
	CacheRows     int64 // cached result rows re-aggregated by the zero-IO rollup operator
	// DerivedQueries counts pass members computed from a classmate's
	// merged groups instead of from tuples (shared aggregation,
	// derive.go), and DerivedRows the parent rows those rollups read —
	// their whole input, priced like CacheRows; the rows that pass the
	// member's predicates are also counted in TuplesAgg. Both are the
	// member's own work.
	DerivedQueries int64
	DerivedRows    int64
	// PackedFolds counts the subset of TuplesAgg that are folds of a key
	// that packs into one word (pack.go), as opposed to a two-word key's.
	// It marks which path did the work and adds no simulated cost of its
	// own — the folds are already priced as TuplesAgg.
	PackedFolds int64

	// PeakMemory is the sum of the high-water marks of every memory
	// reservation the work held (aggregation tables, dimension lookups,
	// bitmaps, spill buffers), in bytes. Because the components peak at
	// different times, this is an upper bound on the true simultaneous
	// footprint; the broker's own Peak (mem.Broker.Stats) is the exact
	// global high-water mark. Sum-of-peaks is used here because it is
	// deterministic and additive, so Attribute can split it per query.
	PeakMemory int64
	// SpillBytes counts aggregation record bytes written to spill
	// partition files, including records rewritten by merge overflow
	// sub-passes. Zero when everything fit in budget.
	SpillBytes int64
	// SpillPartitions counts spill partitions created (fanout per spill
	// event). Zero when everything fit in budget.
	SpillPartitions int64

	Wall time.Duration // measured wall-clock time
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.IO.Add(other.IO)
	s.TuplesScanned += other.TuplesScanned
	s.TupleProbes += other.TupleProbes
	s.TuplesAgg += other.TuplesAgg
	s.TuplesFetched += other.TuplesFetched
	s.HashBuildRows += other.HashBuildRows
	s.BitmapWords += other.BitmapWords
	s.BitTests += other.BitTests
	s.CacheRows += other.CacheRows
	s.DerivedQueries += other.DerivedQueries
	s.DerivedRows += other.DerivedRows
	s.PackedFolds += other.PackedFolds
	s.PeakMemory += other.PeakMemory
	s.SpillBytes += other.SpillBytes
	s.SpillPartitions += other.SpillPartitions
	s.Wall += other.Wall
}

// SimulatedMicros converts the counted work to simulated microseconds on
// the paper's 1998 platform under model m.
func (s Stats) SimulatedMicros(m *cost.Model) float64 {
	return float64(s.IO.SeqReads)*m.SeqPage +
		float64(s.IO.RandReads)*m.RandPage +
		float64(s.TupleProbes)*m.TupleCPU +
		float64(s.TuplesAgg)*m.AggCPU +
		float64(s.TuplesFetched)*m.FetchCPU +
		float64(s.HashBuildRows)*m.BuildCPU +
		float64(s.BitmapWords)*m.BitmapWord +
		float64(s.BitTests)*m.BitTest +
		float64(s.CacheRows+s.DerivedRows)*m.TupleCPU
}

// SimulatedSeconds is SimulatedMicros scaled to seconds.
func (s Stats) SimulatedSeconds(m *cost.Model) float64 {
	return cost.Micros(s.SimulatedMicros(m))
}

func (s Stats) String() string {
	return fmt.Sprintf("io{%s} scan=%d probe=%d agg=%d fetch=%d build=%d bmwords=%d bittest=%d cacherows=%d derived=%d/%dr packed=%d peakmem=%d spill=%d/%dp wall=%s",
		s.IO, s.TuplesScanned, s.TupleProbes, s.TuplesAgg, s.TuplesFetched,
		s.HashBuildRows, s.BitmapWords, s.BitTests, s.CacheRows, s.DerivedQueries, s.DerivedRows, s.PackedFolds,
		s.PeakMemory, s.SpillBytes, s.SpillPartitions, s.Wall)
}

// Env carries what operators need: a catalog snapshot (dimension
// tables, views, indexes, buffer pool) and execution options. The
// snapshot is immutable, so every pass of one Env evaluates against the
// same catalog state no matter what mutations publish meanwhile.
type Env struct {
	DB *star.Snapshot
	// ShareLookups enables sharing identical dimension lookup tables
	// between the queries of one shared-scan operator (§3.1's second
	// sharing opportunity); off, each root of a pass builds its own. On
	// by default; the ablation benchmark turns it off.
	ShareLookups bool
	// Pool, when non-nil, is the worker pool a pass fans out on: its
	// width is the pass's worker count, and its scan and probe morsels
	// and finalization tasks draw slots from it — the same pool the
	// task-graph scheduler starts nodes on. Extra workers beyond the
	// pass's own goroutine run only while they hold a pool slot, so total
	// executor concurrency never exceeds the pool width. nil runs every
	// pass serially.
	Pool *dag.Pool
	// MorselPages overrides the pages per scan morsel (default
	// defaultMorselPages). Smaller morsels steal more finely; tests use
	// tiny morsels to force contention on the shared cursor.
	MorselPages int
	// Ctx, when non-nil, is checked periodically during scans and
	// probes; cancellation aborts the operator with the context's error.
	Ctx context.Context
	// QueryCtx, when non-nil, supplies a per-query context (it may
	// return nil for queries without one). A done per-query context
	// detaches that query's pipelines from a shared pass — the pass
	// continues for the other queries, and only when every pipeline of
	// the pass has detached does the pass itself stop early. Detached
	// queries' results carry the context's error and must be discarded.
	// Merged admission batches use this so one caller's cancellation
	// never aborts a scan other callers are sharing.
	QueryCtx func(*query.Query) context.Context
	// Mem, when non-nil, is the memory broker governing operator state:
	// every aggregation table, dimension lookup, bitmap, and spill buffer
	// holds a reservation against it. Aggregation tables degrade to a
	// partitioned disk spill when the broker refuses to grow them (see
	// spill.go); lookups, bitmaps, and spill buffers are required state
	// and use overdraft grants. A nil Mem runs ungoverned (reservations
	// are no-ops).
	Mem *mem.Broker
	// SpillDir is the directory for aggregation spill temp files; empty
	// means os.TempDir(). Files are removed when the pass finishes.
	SpillDir string
	// SpillFanout overrides the spill partition count (default 16).
	// Merge memory per partition is roughly the final group footprint
	// divided by the fanout.
	SpillFanout int
	// Lookups, when non-nil, is the plan's dimension lookup set, shared
	// across its passes: the task-graph executor hoists lookup builds
	// out of the class passes, and a pass adds any its roots still lack.
	// nil gives each pass a set of its own. Ignored without ShareLookups.
	Lookups *LookupSet
	// IOFiles, when non-nil, restricts measure's I/O accounting to the
	// listed files' own counters instead of the pool-global delta. The
	// task-graph executor sets it on every node: concurrent nodes touch
	// disjoint file sets, so pool-global deltas would double-count each
	// other's reads and count other goroutines' reads of unrelated files.
	// A non-nil empty slice measures no I/O at all (cache rollup nodes).
	IOFiles []*storage.File
}

// NewEnv returns an Env with default options, capturing a snapshot of
// db — a fresh freeze of a live *star.Database, or the given
// *star.Snapshot itself (pinned snapshots come from star.Database.Pin).
func NewEnv(db star.Catalog) *Env {
	return &Env{DB: db.Snapshot(), ShareLookups: true}
}

// checkEvery is how many tuples an operator processes between
// cancellation checks.
const checkEvery = 4096

// spillDir resolves the directory for spill temp files.
func (e *Env) spillDir() string {
	if e.SpillDir != "" {
		return e.SpillDir
	}
	return os.TempDir()
}

// spillFanout resolves the spill partition count.
func (e *Env) spillFanout() int {
	if e.SpillFanout > 0 {
		return e.SpillFanout
	}
	return defaultSpillFanout
}

// canceled returns the context's error if the Env's context is done.
func (e *Env) canceled() error {
	if e.Ctx == nil {
		return nil
	}
	select {
	case <-e.Ctx.Done():
		return e.Ctx.Err()
	default:
		return nil
	}
}

// measure runs f, recording wall time and the I/O delta into stats —
// pool-global by default, or the sum of Env.IOFiles' per-file counters
// when that is set (see the field's doc).
func (e *Env) measure(stats *Stats, f func() error) error {
	before := e.ioSnapshot()
	start := time.Now()
	err := f()
	stats.Wall += time.Since(start)
	stats.IO.Add(e.ioSnapshot().Sub(before))
	return err
}

// ioSnapshot reads the I/O counters measure brackets work with.
func (e *Env) ioSnapshot() storage.Stats {
	if e.IOFiles == nil {
		return e.DB.Pool.Stats()
	}
	var total storage.Stats
	for _, f := range e.IOFiles {
		total.Add(f.IOStats())
	}
	return total
}
