// Package mdxopt is a ROLAP engine with simultaneous multi-query
// optimization, reproducing Zhao, Deshpande, Naughton & Shukla,
// "Simultaneous Optimization and Evaluation of Multiple Dimensional
// Queries" (SIGMOD 1998).
//
// An mdxopt database is a star schema stored in paged heap files:
// dimension tables with hierarchies, a base fact table, materialized
// group-by views, and bitmap join indexes. A single MDX expression may
// denote several related group-by queries; the engine optimizes them *as
// a set* — choosing which materialized group-by each query reads and
// merging queries that share a base table into one shared-scan or
// shared-probe pass (the paper's §3 operators) — using the paper's TPLO,
// ETPLG and GG algorithms or an exhaustive optimum.
//
// Quick start:
//
//	db, err := mdxopt.CreateSample(dir, 0.01) // paper's test database at 1% scale
//	...
//	ans, err := db.Query(`{A''.A1.CHILDREN} on COLUMNS {B''.B1} on ROWS
//	    {C''.C1} on PAGES CONTEXT ABCD FILTER (D'.DD1)`)
//	for _, qr := range ans.Queries {
//	    fmt.Println(qr.GroupBy, len(qr.Rows), "groups")
//	}
package mdxopt

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"mdxopt/internal/core"
	"mdxopt/internal/cost"
	"mdxopt/internal/datagen"
	"mdxopt/internal/exec"
	"mdxopt/internal/mdx"
	"mdxopt/internal/mem"
	"mdxopt/internal/plan"
	"mdxopt/internal/query"
	"mdxopt/internal/rescache"
	"mdxopt/internal/sched"
	"mdxopt/internal/star"
	"mdxopt/internal/storage"
)

// Algorithm selects the multi-query optimization strategy.
type Algorithm string

// The available algorithms. See the package documentation of
// internal/core for their semantics.
const (
	TPLO    Algorithm = "TPLO"    // per-query local optima, merge coincidences
	ETPLG   Algorithm = "ETPLG"   // greedy base-table sharing
	GG      Algorithm = "GG"      // greedy with class re-basing (recommended)
	GGI     Algorithm = "GGI"     // GG + hill climbing from both greedy starts
	Optimal Algorithm = "Optimal" // exhaustive (≤ 10 queries)
)

// LevelSpec describes one hierarchy level of a dimension, finest first.
type LevelSpec struct {
	Name    string
	Members []string
	// Parent[i] is the parent code (index into the next coarser level's
	// Members) of member i. Must be nil for the top level.
	Parent []int32
}

// DimensionSpec describes a dimension: levels ordered base to top.
type DimensionSpec struct {
	Name   string
	Levels []LevelSpec
}

// SchemaSpec describes a star schema.
type SchemaSpec struct {
	Dims    []DimensionSpec
	Measure string
}

// DB is an open mdxopt database.
//
// Queries (Query, QueryWith, QueryContext, Explain) may be issued
// concurrently from multiple goroutines, and they never block on
// maintenance: each request pins the latest published catalog snapshot
// (an immutable epoch-numbered copy of the schema, view set, and index
// set) and evaluates entirely against it. Mutations — Materialize,
// MaterializeMulti, BuildBitmapIndex, Refresh, Compact, and a Loader's
// Close — are serialized against each other, build their replacement
// heap and index files off to the side, and atomically publish a
// successor snapshot when they are consistent; replaced files are
// retired and reclaimed only after the last request pinned to an older
// epoch drains (Close force-drains). Every answer reports the epoch it
// ran against in Stats.SnapshotEpoch, and results are byte-identical
// per pinned epoch. The remaining caller obligations: a Loader's
// Add/AddCodes calls must not run concurrently with mutations or other
// loaders (loaded facts become visible to queries atomically at Close),
// and Options.ColdCache queries must not race mutations (the pool flush
// they perform is incompatible with concurrent maintenance I/O).
type DB struct {
	db *star.Database

	// mem is the process-wide memory broker governing operator state
	// (OpenOptions.MemoryBudget). Always non-nil; with no budget it
	// tracks usage without enforcing one.
	mem *mem.Broker
	// spillDir is where budget-exceeded aggregation state spills
	// (OpenOptions.SpillDir; empty = the system temp directory).
	spillDir string
	// workers is the default unified pool width for plans this database
	// executes (OpenOptions.Workers; 0 and 1 = serial).
	workers int

	// rescache is the semantic result cache
	// (OpenOptions.ResultCacheBudget); nil when disabled — every
	// rescache method is nil-safe.
	rescache *rescache.Cache

	// Plan cache: optimized global plans keyed by request composition —
	// the sorted MDX sources of the requests planned together (one for
	// a request that ran alone) — and planning options. An entry is valid only
	// for the catalog snapshot epoch and result-cache epoch it was built
	// against — a plan may embed cache entries and view choices that a
	// mutation or cache insert invalidates — so hits require both epochs
	// to match the request's. Guarded by mu.
	mu        sync.Mutex
	planCache map[string]*cachedPlan
	planHits  int64
	cacheTick uint64

	// queue admits every request by group commit (internal/sched), with
	// one runner slot per unit of the database width.
	queue *sched.Queue[Options, reply]
}

type cachedPlan struct {
	epoch   uint64 // catalog snapshot epoch the plan was built against
	rcEpoch uint64 // result-cache epoch the plan was built against
	lastUse uint64 // cacheTick of the last hit, for LRU eviction
	// perPos holds each request's query set in the key's sorted order;
	// the global plan references exactly these objects.
	perPos [][]*query.Query
	global *plan.Global
	desc   string // global.Describe(), what Explain and Answer.Plan read
}

// maxCachedPlans bounds the plan cache; at capacity the
// least-recently-used entry is evicted to admit the new one, so a hot
// working set of expressions survives an occasional one-off query.
const maxCachedPlans = 256

// evictOldest removes the plan cache's least-recently-used entry.
// Callers hold d.mu.
func (d *DB) evictOldest() {
	var victim string
	var min uint64
	first := true
	for k, c := range d.planCache {
		if first || c.lastUse < min {
			victim, min, first = k, c.lastUse, false
		}
	}
	if !first {
		delete(d.planCache, victim)
	}
}

// invalidate discards cached plans and cached results after a database
// mutation. Epoch-keyed validity would age the entries out lazily; the
// eager drop just frees their memory at once.
func (d *DB) invalidate() {
	d.mu.Lock()
	d.planCache = nil
	d.mu.Unlock()
	d.rescache.Invalidate()
}

// PlanCacheHits reports how many times a plan was reused from the plan
// cache (the parse/optimize phase skipped): by a request that ran alone,
// or by a batch whose exact mix of expressions had been optimized before.
func (d *DB) PlanCacheHits() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.planHits
}

// Options configures query planning and execution.
type Options struct {
	// Algorithm defaults to GG.
	Algorithm Algorithm
	// PaperPlanSpace confines the optimizer to the paper's plan space
	// (no §3.3 filter conversion as a first-class choice). Off by
	// default: the full model finds strictly better plans.
	PaperPlanSpace bool
	// ColdCache flushes the buffer pool and index caches before
	// executing, as the paper does between measurements.
	ColdCache bool
	// Workers is the unified worker-pool width for this request: one
	// bound on every executor goroutine at once — concurrently running
	// plan passes (class scans, cache rollups, shared lookup builds) AND
	// the page-aligned scan morsels a running pass fans out, all drawing
	// slots from one pool. 0 falls back to the database default
	// (OpenOptions.Workers); 1 runs fully serially. When parallel, each
	// pass's start is gated on the memory broker with the optimizer's
	// footprint estimate — priced per worker, since scan fan-out
	// multiplies resident aggregation state — so at tight budgets
	// execution degrades toward serial instead of overcommitting.
	// Results and deterministic work counters are identical at every
	// width. Widths beyond the GOMAXPROCS-derived cap are clamped;
	// Stats.EffectiveWorkers reports the width actually used. A request
	// merges into a batch only with requests of equivalent Options (0
	// and the database default are the same width), so a batch runs at
	// its members' common width.
	Workers int
	// MemoryBudget caps this request's operator state below the
	// database-wide budget (OpenOptions.MemoryBudget): the request runs
	// under a child of the process broker limited to this many bytes,
	// spilling aggregation state that exceeds it. 0 imposes no
	// per-request cap. A request with a cap never merges with
	// concurrent requests, and so never queues for a runner slot: it
	// runs at once, alone, as does a ColdCache one.
	MemoryBudget int64
}

// Create makes a new database directory with the given schema. Facts are
// loaded with Loader; call Close when done to persist metadata.
func Create(dir string, spec SchemaSpec) (*DB, error) {
	dims := make([]*star.Dimension, len(spec.Dims))
	for i, ds := range spec.Dims {
		levels := make([]star.LevelSpec, len(ds.Levels))
		for l, ls := range ds.Levels {
			levels[l] = star.LevelSpec{Name: ls.Name, Members: ls.Members, Parent: ls.Parent}
		}
		d, err := star.NewDimension(ds.Name, levels)
		if err != nil {
			return nil, err
		}
		dims[i] = d
	}
	schema, err := star.NewSchema(dims, spec.Measure)
	if err != nil {
		return nil, err
	}
	db, err := star.Create(dir, schema, 2048)
	if err != nil {
		return nil, err
	}
	return newDB(db, OpenOptions{}), nil
}

// CreateSample builds the paper's synthetic test database (4 dimensions
// with 3-level hierarchies, materialized group-bys, bitmap join indexes
// on A'B'C'D) at the given scale; scale 1.0 is the paper's 2 M-row
// configuration.
func CreateSample(dir string, scale float64) (*DB, error) {
	db, err := datagen.Build(dir, datagen.PaperSpec(scale))
	if err != nil {
		return nil, err
	}
	return newDB(db, OpenOptions{}), nil
}

// Open opens an existing database directory.
func Open(dir string) (*DB, error) {
	return OpenWith(dir, OpenOptions{})
}

// OpenOptions configures Open.
type OpenOptions struct {
	// PoolFrames sizes the buffer pool (frames of 8 KiB; default 2048).
	// Small pools model datasets much larger than memory: repeated scans
	// pay physical page reads instead of hitting the pool, which is the
	// regime where sharing one pass across requests matters most.
	PoolFrames int

	// MemoryBudget bounds the bytes of operator state — dimension
	// lookup tables, result bitmaps, aggregation hash tables — live
	// across all concurrently executing queries. When a query's
	// aggregation state would exceed the budget it degrades to a
	// partitioned disk spill with identical results; a parallel run
	// (Workers > 1) additionally defers each plan pass's start while
	// the broker is saturated. 0 (default) tracks usage without
	// enforcing a budget.
	MemoryBudget int64

	// SpillDir is the directory for aggregation spill temp files
	// (removed when their pass finishes). Empty means the system temp
	// directory.
	SpillDir string

	// Workers is the database-default unified worker-pool width for
	// executed plans: one bound covering concurrently running plan
	// passes and the scan morsels they fan out. Default 1 (serial, the
	// legacy order); Options.Workers overrides per request. Widths
	// beyond the GOMAXPROCS-derived cap are clamped. The clamped width
	// also sets how many requests (or merged batches) run at once —
	// enough to fill GOMAXPROCS, at least one; more concurrent requests
	// queue and merge (see QueryContext).
	Workers int

	// ResultCacheBudget bounds the semantic result cache in bytes:
	// finished aggregation results are kept and later queries answerable
	// from a cached result (same or finer group-by, subsuming
	// predicates) compile to a zero-IO rollup instead of a star join.
	// The cache's memory is reserved from MemoryBudget's broker and
	// entries are evicted by cost-weighted LRU under pressure; any
	// mutation invalidates all entries. 0 (default) disables the cache.
	ResultCacheBudget int64
}

// poolShards splits the buffer pool's frame directory into this many
// lock shards so concurrent fetches of different pages don't contend on
// one mutex. Eviction still behaves globally: the pool only reports
// "full" when every frame of every shard is pinned.
const poolShards = 8

// OpenWith opens an existing database directory with explicit options.
func OpenWith(dir string, opts OpenOptions) (*DB, error) {
	frames := opts.PoolFrames
	if frames <= 0 {
		frames = 2048
	}
	db, err := star.OpenWith(dir, storage.PoolOpts{Frames: frames, Shards: poolShards})
	if err != nil {
		return nil, err
	}
	return newDB(db, opts), nil
}

// newDB wraps an open star database with the facade's state.
func newDB(db *star.Database, opts OpenOptions) *DB {
	d := &DB{db: db, mem: mem.New(opts.MemoryBudget), spillDir: opts.SpillDir, workers: opts.Workers}
	if opts.ResultCacheBudget > 0 {
		d.rescache = rescache.New(opts.ResultCacheBudget, d.mem)
	}
	d.queue = sched.NewQueue(admissionSlots(d.effectiveWorkers(0)), d.serve)
	return d
}

// admissionSlots is how many runner slots the admission queue has at a
// database width: as many batches as it takes to fill GOMAXPROCS at that
// width, at least one. More slots would only split the requests that
// queue behind them into smaller batches sharing fewer passes.
func admissionSlots(width int) int { return max(1, runtime.GOMAXPROCS(0)/width) }

// Close stops admitting requests — queued ones fail and later ones are
// refused — waits for every request already running, persists metadata
// and closes all files.
func (d *DB) Close() error {
	d.queue.Stop()
	return d.db.Close()
}

// Dimensions returns the dimension names in schema order.
func (d *DB) Dimensions() []string {
	out := make([]string, d.db.Schema.NumDims())
	for i, dim := range d.db.Schema.Dims {
		out[i] = dim.Name
	}
	return out
}

// Measure returns the measure column's name.
func (d *DB) Measure() string { return d.db.Schema.Measure }

// Facts returns the number of rows in the base fact table.
func (d *DB) Facts() int64 { return d.db.Base().Rows() }

// Views lists the stored group-bys (the base table first) with their
// row counts.
func (d *DB) Views() []ViewInfo {
	out := make([]ViewInfo, len(d.db.Views))
	for i, v := range d.db.Views {
		levels := make([]string, len(v.Levels))
		for j, l := range v.Levels {
			levels[j] = d.db.Schema.Dims[j].LevelName(l)
		}
		out[i] = ViewInfo{Name: v.Name, Levels: levels, Rows: v.Rows(), Pages: v.Pages()}
	}
	return out
}

// ViewInfo describes one stored group-by.
type ViewInfo struct {
	Name   string
	Levels []string // level name per dimension ("ALL" = aggregated out)
	Rows   int64
	Pages  int64
}

// levelVector converts per-dimension level names to a level vector.
func (d *DB) levelVector(levelNames []string) ([]int, error) {
	schema := d.db.Schema
	if len(levelNames) != schema.NumDims() {
		return nil, fmt.Errorf("mdxopt: %d level names for %d dimensions", len(levelNames), schema.NumDims())
	}
	levels := make([]int, len(levelNames))
	for i, name := range levelNames {
		l := schema.Dims[i].LevelIndex(name)
		if l < 0 {
			return nil, fmt.Errorf("mdxopt: dimension %s has no level %q", schema.Dims[i].Name, name)
		}
		levels[i] = l
	}
	return levels, nil
}

// Materialize computes and stores the group-by identified by one level
// name per dimension (use "ALL" to aggregate a dimension out). The view
// stores SUM per group (the paper's layout); MaterializeMulti also
// stores COUNT, MIN and MAX so every aggregate can be answered from it.
func (d *DB) Materialize(levelNames ...string) error {
	levels, err := d.levelVector(levelNames)
	if err != nil {
		return err
	}
	if _, err := d.db.Materialize(levels); err != nil {
		return err
	}
	d.invalidate()
	return nil
}

// MaterializeMulti is Materialize with the multi-aggregate layout,
// enabling COUNT/MIN/MAX/AVG queries (the MDX AGGREGATE clause) to use
// the view instead of the base table.
func (d *DB) MaterializeMulti(levelNames ...string) error {
	levels, err := d.levelVector(levelNames)
	if err != nil {
		return err
	}
	if _, err := d.db.MaterializeMulti(levels); err != nil {
		return err
	}
	d.invalidate()
	return nil
}

// BuildBitmapIndex builds a bitmap join index on the named dimension of
// the stored group-by identified by level names.
func (d *DB) BuildBitmapIndex(dim string, levelNames ...string) error {
	levels, err := d.levelVector(levelNames)
	if err != nil {
		return err
	}
	v := d.db.ViewByLevels(levels)
	if v == nil {
		return fmt.Errorf("mdxopt: group-by %v is not materialized", levelNames)
	}
	di := d.db.Schema.DimIndex(dim)
	if di < 0 {
		return fmt.Errorf("mdxopt: no dimension %q", dim)
	}
	if err := d.db.BuildIndex(v, di); err != nil {
		return err
	}
	d.invalidate()
	return nil
}

// StaleViews returns the names of materialized group-bys that lag the
// base fact table (facts were loaded after they were computed). Stale
// views are ignored by the optimizer until Refresh.
func (d *DB) StaleViews() []string {
	var out []string
	for _, v := range d.db.StaleViews() {
		out = append(out, v.Name)
	}
	return out
}

// Refresh folds newly loaded facts into every materialized group-by and
// rebuilds affected bitmap join indexes. Refreshed views may hold
// several rows per group (results stay exact); Compact merges them.
func (d *DB) Refresh() error {
	err := d.db.Refresh()
	d.invalidate()
	return err
}

// Compact fully re-aggregates the group-by identified by level names,
// merging the duplicate group rows left behind by Refresh.
func (d *DB) Compact(levelNames ...string) error {
	levels, err := d.levelVector(levelNames)
	if err != nil {
		return err
	}
	v := d.db.ViewByLevels(levels)
	if v == nil {
		return fmt.Errorf("mdxopt: group-by %v is not materialized", levelNames)
	}
	if err := d.db.Compact(v); err != nil {
		return err
	}
	d.invalidate()
	return nil
}

// Loader appends facts to the base table. Close it before querying.
type Loader struct {
	db  *DB
	app interface {
		Append(keys []int32, measures []float64) error
		Close() error
	}
	keys []int32
}

// Load returns a Loader for the base fact table.
func (d *DB) Load() *Loader {
	return &Loader{
		db:   d,
		app:  d.db.Base().Heap.NewAppender(),
		keys: make([]int32, d.db.Schema.NumDims()),
	}
}

// Add appends one fact given base-level member names in dimension order.
func (l *Loader) Add(members []string, measure float64) error {
	schema := l.db.db.Schema
	if len(members) != schema.NumDims() {
		return fmt.Errorf("mdxopt: %d members for %d dimensions", len(members), schema.NumDims())
	}
	for i, name := range members {
		code, ok := schema.Dims[i].MemberCode(0, name)
		if !ok {
			return fmt.Errorf("mdxopt: dimension %s has no base member %q", schema.Dims[i].Name, name)
		}
		l.keys[i] = code
	}
	return l.app.Append(l.keys, []float64{measure})
}

// AddCodes appends one fact given base-level member codes, one per
// dimension in schema order; a code outside its dimension's base level
// is refused.
func (l *Loader) AddCodes(codes []int32, measure float64) error {
	schema := l.db.db.Schema
	if len(codes) != schema.NumDims() {
		return fmt.Errorf("mdxopt: %d codes for %d dimensions", len(codes), schema.NumDims())
	}
	for i, code := range codes {
		if card := schema.Dims[i].Card(0); code < 0 || code >= card {
			return fmt.Errorf("mdxopt: dimension %s has no base member code %d (%d members)", schema.Dims[i].Name, code, card)
		}
	}
	return l.app.Append(codes, []float64{measure})
}

// Close flushes the loader, publishes a snapshot with the enlarged base
// table and invalidates cached plans (materialized views are now stale
// and plan choices may change). Snapshots pinned before Close keep
// seeing the old row count.
func (l *Loader) Close() error {
	err := l.app.Close()
	l.db.db.Publish()
	l.db.invalidate()
	return err
}

// ResultRow is one group of a query result, with member names at the
// query's group-by levels. Members is nil for a query that groups by no
// dimension (a grand total).
type ResultRow struct {
	Members []string
	Value   float64
}

// QueryResult is the evaluated output of one component query. The
// Members of its Rows are sub-slices of one backing array, each with its
// capacity clipped to its length: assigning to a row's members stays in
// that row, append reallocates, and holding one row keeps the query's
// whole member array alive.
type QueryResult struct {
	Name      string   // q1, q2, ... in variant order
	GroupBy   string   // paper notation, e.g. A'B''C''D'
	Aggregate string   // SUM, COUNT, MIN, MAX or AVG
	Columns   []string // dimension names contributing members, in order
	Rows      []ResultRow
}

// Stats summarizes the work an Answer took.
type Stats struct {
	PageReads     int64
	TuplesScanned int64
	TuplesFetched int64
	// BitTests counts per-tuple bitmap membership tests on the index
	// star-join paths (probe routing and scan-side bitmap filters). The
	// count is the same whether the engine routed word-at-a-time or
	// tuple-at-a-time — it is the logical tests, not the instructions.
	BitTests         int64
	SimulatedSeconds float64 // on the paper's 1998 hardware model
	WallNanos        int64

	// PeakMemoryBytes is the tracked operator-state high-water mark of
	// this request's passes: the sum of each reservation's peak
	// (lookup tables, bitmaps, aggregation state), an upper bound on
	// the true simultaneous peak. Accounted even without a budget.
	PeakMemoryBytes int64
	// SpillBytes is how many bytes of aggregation state were written
	// to spill partitions because the memory budget denied growth; 0
	// means the request ran entirely in memory.
	SpillBytes int64
	// SpillPartitions counts spill partition files written.
	SpillPartitions int64

	// PackedFolds counts the aggregated tuples that are folds of a key
	// that packs into one word (a subset of the tuples aggregated); 0
	// means every query in the request has a two-word group-by key
	// (wider than 64 bits).
	PackedFolds int64

	// DerivedQueries counts this request's component queries that a
	// shared pass computed from a classmate's finished groups instead
	// of from tuples (the plan shows them as "q3 <= q1 [rollup]");
	// DerivedRows is how many parent groups those rollups read.
	DerivedQueries int64
	DerivedRows    int64

	// DAGNodes is how many tasks the plan ran: lookup builds + class
	// passes + cache rollups. WorkerPeak is the unified worker pool's
	// concurrency peak — task workers plus the scan-morsel workers they
	// fanned out (1 under the serial executor).
	// EffectiveWorkers is the pool width the request actually ran at:
	// the requested Workers clamped to the GOMAXPROCS-derived cap.
	DAGNodes         int
	WorkerPeak       int
	EffectiveWorkers int

	// ResultCacheHits counts this request's queries served from the
	// semantic result cache by a zero-IO rollup; ResultCacheMisses the
	// ones that ran against stored views while the cache was enabled
	// (both zero with the cache off). ResultCacheEvictions counts cache
	// entries evicted to admit this request's results.
	ResultCacheHits      int64
	ResultCacheMisses    int64
	ResultCacheEvictions int64

	// SnapshotEpoch is the catalog snapshot epoch this request ran
	// against. Two answers with the same epoch saw byte-identical
	// catalog state; a larger epoch means at least one mutation
	// published in between. RetiredFiles is how many replaced heap and
	// index files were awaiting reclamation (still pinned by some
	// in-flight epoch) when the answer was assembled — a liveness gauge
	// for the epoch-based reclaimer, not an error indicator.
	SnapshotEpoch uint64
	RetiredFiles  int
}

// ClassStats is the work one plan class's shared pass performed.
type ClassStats struct {
	View             string   // base view of the class
	Regime           string   // "scan" or "probe"
	Queries          []string // component query names in the class
	PageReads        int64
	TuplesScanned    int64
	TuplesFetched    int64
	SimulatedSeconds float64
}

// Answer is the result of evaluating one MDX expression. The rows of
// each of its Queries share backing arrays (see QueryResult).
type Answer struct {
	Queries []QueryResult
	Plan    string // the global plan in the paper's notation
	Classes []ClassStats
	Stats   Stats

	// BatchSize is how many requests the plan merged: 1 when the
	// request ran alone. Above 1, Plan describes the whole merged batch,
	// Classes holds only the passes this request participated in (batch
	// mates' queries appear origin-qualified, e.g. "s2.q1"), and Stats
	// is this request's attributed share of the work: its non-shared
	// operators exactly, plus an equal split of each shared pass.
	BatchSize int
	// SharedWith counts the *other* requests whose queries shared at
	// least one pass with this one's; 0 means every pass was private.
	SharedWith int
}

// Query parses, optimizes (with GG over the full cost model) and
// executes an MDX expression. Use QueryWith for control.
func (d *DB) Query(src string) (*Answer, error) {
	return d.QueryWith(src, Options{})
}

// QueryWith is Query with explicit options.
func (d *DB) QueryWith(src string, opts Options) (*Answer, error) {
	return d.QueryContext(context.Background(), src, opts)
}

// QueryContext is QueryWith with cancellation: scans check ctx
// periodically and abort with its error when it is done. Every request
// goes through the admission queue: on an idle database it runs at once
// on the calling goroutine; while every runner slot is busy it waits,
// and the next free slot runs it merged with everything else queued
// with equivalent Options (see Answer.BatchSize). A ColdCache request or
// one with a MemoryBudget never merges, so it never waits either: it
// runs at once, alone. A canceled request that is still queued returns
// at once; one already running in a batch detaches only its own
// pipelines — a shared pass keeps running for the other requests. A
// full queue fails with ErrBusy.
func (d *DB) QueryContext(ctx context.Context, src string, opts Options) (*Answer, error) {
	// Options that plan and run alike merge: spell out the defaults.
	opts.Algorithm, opts.Workers = algorithm(opts), d.effectiveWorkers(opts.Workers)
	rep, err := d.queue.Submit(ctx, src, opts, opts.ColdCache || opts.MemoryBudget > 0)
	if err != nil {
		return nil, err
	}
	return d.answer(rep)
}

// reply is what serve hands one request back: its queries — the plan
// cache's objects, read-only — with their results and attributed work,
// the passes and cache rollups it took part in, and the facts of the
// whole run, copied into every request's reply. err, when set, voids
// the rest.
type reply struct {
	err        error
	queries    []*query.Query
	results    []*exec.Result
	perQuery   []exec.Stats
	classes    []core.ClassStat
	cached     []*plan.CachePlan
	sharedWith int
	// The run's facts.
	plan      string // the global plan in the paper's notation
	batchSize int
	ex        *core.Execution
	epoch     uint64 // the snapshot epoch the run pinned
}

// serve is the one request path, the admission queue's Run callback.
// Every composition — a lone request, or a batch merged at a runner slot
// — pins the published snapshot (mutations proceed concurrently and the
// whole composition sees one consistent catalog) and is planned, run
// and demultiplexed by serveOn.
func (d *DB) serve(reqs []sched.Request, opts Options) []reply {
	snap, release := d.db.Pin()
	defer release()
	env := exec.NewEnv(snap)
	env.Mem = d.mem
	if opts.MemoryBudget > 0 {
		env.Mem = d.mem.Child(opts.MemoryBudget)
	}
	env.SpillDir = d.spillDir
	return d.serveOn(env, reqs, opts)
}

// serveOn plans a composition of requests as one query set through the
// plan cache, runs the plan once with core.Run on env, and returns one
// reply per request, in order. A lone request runs under its own
// context as env.Ctx, so canceling it aborts the run; several run under
// per-query contexts (env.QueryCtx), so a canceled caller detaches
// without aborting a pass others share. At width > 1 each plan task's
// start is gated on the memory broker with its estimated footprint. If
// planning several requests fails, each is planned and run on its own,
// so one infeasible request cannot sink its batch mates.
//
// Every request is demultiplexed by one rule, a lone request being the
// composition of one: its Stats are the sum of its queries' attributed
// work, its passes and cache rollups are those holding a query of its
// origin, and it shares with the other origins found in them.
func (d *DB) serveOn(env *exec.Env, reqs []sched.Request, opts Options) []reply {
	reps := make([]reply, len(reqs))
	fail := func(err error) []reply {
		for i := range reps {
			reps[i].err = err
		}
		return reps
	}
	perReq, g, desc, err := d.plan(env.DB, reqs, opts)
	if err == nil && opts.ColdCache {
		// After planning, so the run itself starts cold.
		err = env.DB.ColdReset()
	}
	switch {
	case err != nil && len(reqs) > 1:
		for i := range reqs {
			reps[i] = d.serveOn(env, reqs[i:i+1], opts)[0]
		}
		return reps
	case err != nil:
		return fail(err)
	}

	queries := perReq[0]
	if len(reqs) == 1 {
		env.Ctx = reqs[0].Ctx
	} else {
		queries = slices.Concat(perReq...)
		ctxOf := make(map[*query.Query]context.Context, len(queries))
		for i, qs := range perReq {
			for _, q := range qs {
				ctxOf[q] = reqs[i].Ctx
			}
		}
		env.QueryCtx = func(q *query.Query) context.Context { return ctxOf[q] }
		defer func() { env.QueryCtx = nil }()
	}
	var total exec.Stats
	ex, err := core.Run(env, g, queries, &total, d.execOptions(env.DB, d.effectiveWorkers(opts.Workers), env.Mem))
	if err != nil {
		return fail(err)
	}

	// seen[o] is the last request (1-based) that counted origin o; a
	// lone request's origin is 0, a batch's are 1..len(reqs), and the
	// admission queue merges at most sched.MaxBatch.
	var seen [sched.MaxBatch + 1]int
	offset := 0
	for i, qs := range perReq {
		r := &reps[i]
		n := len(qs)
		*r = reply{queries: qs, results: ex.Results[offset : offset+n], perQuery: ex.PerQuery[offset : offset+n],
			plan: desc, batchSize: len(reqs), ex: ex, epoch: env.DB.Epoch}
		offset += n
		if err := resultErr(r.results); err != nil {
			*r = reply{err: err}
			continue
		}
		origin := qs[0].Origin
		holds := func(c *plan.Class) bool {
			return slices.ContainsFunc(c.Plans, func(p *plan.Local) bool { return p.Query.Origin == origin })
		}
		seen[origin] = i + 1
		all := true
		for _, c := range g.Classes {
			if !holds(c) {
				all = false
				continue
			}
			for _, p := range c.Plans {
				if o := p.Query.Origin; seen[o] != i+1 {
					seen[o] = i + 1
					r.sharedWith++
				}
			}
		}
		for _, cp := range g.Cached {
			all = all && cp.Query.Origin == origin
		}
		if all {
			// Every pass and rollup holds this request (always so for a
			// lone one): the run's lists are its own, read-only.
			r.classes, r.cached = ex.Classes, g.Cached
			continue
		}
		// ex.Classes covers g.Classes followed by one entry per cache
		// rollup, in g.Cached order.
		for ci, c := range g.Classes {
			if holds(c) {
				r.classes = append(r.classes, ex.Classes[ci])
			}
		}
		for ci, cp := range g.Cached {
			if cp.Query.Origin == origin {
				r.classes = append(r.classes, ex.Classes[len(g.Classes)+ci])
				r.cached = append(r.cached, cp)
			}
		}
	}
	return reps
}

// resultErr returns the first error among a request's results: a
// detached query's context error.
func resultErr(rs []*exec.Result) error {
	for _, r := range rs {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// parse parses and translates one MDX expression.
func parse(schema *star.Schema, src string) ([]*query.Query, error) {
	queries, err := mdx.ParseAndTranslate(schema, src)
	if err != nil {
		return nil, err
	}
	if len(queries) == 0 {
		return nil, errors.New("mdxopt: expression denotes no queries")
	}
	return queries, nil
}

// plan optimizes a composition of requests as one query set against the
// pinned snapshot and returns each request's query objects with the
// global plan, consulting the plan cache. The cache key is the
// composition — the requests' sorted sources — plus the planning
// options, so a recurring mix of concurrent requests replans nothing,
// and a lone request's key is its source. A cached entry is reused only
// when it was built against the same catalog snapshot epoch and
// result-cache epoch. On a miss the sources are parsed; in a composition
// of several, each request's queries get its sorted position as their
// Origin before optimizing. The entry's query objects are read-only from
// then on, so concurrent runs of one entry may share them. The plan's
// description (plan.Global.Describe) is rendered once, with the entry.
func (d *DB) plan(snap *star.Snapshot, reqs []sched.Request, opts Options) ([][]*query.Query, *plan.Global, string, error) {
	// order[p] is the request at sorted position p; nil for one request.
	var order []int
	key := reqs[0].Key
	if len(reqs) > 1 {
		order = make([]int, len(reqs))
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return strings.Compare(reqs[a].Key, reqs[b].Key) })
		keys := make([]string, len(order))
		for p, i := range order {
			keys[p] = reqs[i].Key
		}
		key = strings.Join(keys, "\x1f")
	}
	key += "|" + string(algorithm(opts)) + "|" + strconv.FormatBool(opts.PaperPlanSpace)

	rcEpoch := d.rescache.Epoch()
	d.mu.Lock()
	if c, ok := d.planCache[key]; ok {
		if c.epoch == snap.Epoch && c.rcEpoch == rcEpoch && len(c.perPos) == len(reqs) {
			d.planHits++
			d.cacheTick++
			c.lastUse = d.cacheTick
			d.mu.Unlock()
			return inRequestOrder(c.perPos, order), c.global, c.desc, nil
		}
		delete(d.planCache, key)
	}
	d.mu.Unlock()

	// Optimize the merged set in composition order so equal batches
	// yield identical plans regardless of arrival order.
	perPos := make([][]*query.Query, len(reqs))
	for p := range perPos {
		r := reqs[p]
		if order != nil {
			r = reqs[order[p]]
		}
		qs, err := parse(snap.Schema, r.Key)
		if err != nil {
			return nil, nil, "", err
		}
		if len(reqs) > 1 {
			for _, q := range qs {
				q.Origin = p + 1
			}
		}
		perPos[p] = qs
	}
	merged := perPos[0]
	if len(perPos) > 1 {
		merged = slices.Concat(perPos...)
	}
	g, err := d.optimize(snap, merged, opts)
	if err != nil {
		return nil, nil, "", err
	}
	desc := g.Describe()
	d.mu.Lock()
	if d.planCache == nil {
		d.planCache = make(map[string]*cachedPlan)
	}
	if len(d.planCache) >= maxCachedPlans {
		d.evictOldest()
	}
	d.cacheTick++
	d.planCache[key] = &cachedPlan{epoch: snap.Epoch, rcEpoch: rcEpoch, lastUse: d.cacheTick, perPos: perPos, global: g, desc: desc}
	d.mu.Unlock()
	return inRequestOrder(perPos, order), g, desc, nil
}

// inRequestOrder maps query sets held in sorted composition order back
// to request order; order nil means one request.
func inRequestOrder(perPos [][]*query.Query, order []int) [][]*query.Query {
	if order == nil {
		return perPos
	}
	out := make([][]*query.Query, len(order))
	for p, i := range order {
		out[i] = perPos[p]
	}
	return out
}

// algorithm resolves the optimization algorithm opts asks for.
func algorithm(opts Options) Algorithm {
	if opts.Algorithm == "" {
		return GG
	}
	return opts.Algorithm
}

// Explain parses and optimizes an MDX expression, returning the global
// plan without executing it. It plans as a lone request does, through
// the plan cache, so a Query of the same text reuses the plan.
func (d *DB) Explain(src string, opts Options) (string, error) {
	snap, release := d.db.Pin()
	defer release()
	_, _, desc, err := d.plan(snap, []sched.Request{{Key: src}}, opts)
	return desc, err
}

func (d *DB) optimize(snap *star.Snapshot, queries []*query.Query, opts Options) (*plan.Global, error) {
	var est *plan.Estimator
	if opts.PaperPlanSpace {
		est = plan.NewPaperEstimator(snap)
	} else {
		est = plan.NewEstimator(snap)
	}
	est.Cache = d.rescache
	est.Gen = snap.Epoch
	return core.Optimize(est, queries, core.Algorithm(algorithm(opts)))
}

// answer assembles one request's Answer from its reply, on the
// caller's goroutine. The cache rollups that served it refresh their
// entries' recency before its results are admitted to the result cache,
// so the admission's evictions spare the entries this request just used.
func (d *DB) answer(rep *reply) (*Answer, error) {
	if rep.err != nil {
		return nil, rep.err
	}
	d.noteCacheUse(rep.cached, len(rep.queries))
	// The epoch is the one the run pinned, so cache entries are marked
	// exactly.
	evicted := d.putResults(rep.queries, rep.results, rep.perQuery, rep.epoch)
	var st exec.Stats
	for _, s := range rep.perQuery {
		st.Add(s)
	}
	ans := &Answer{
		Queries:    make([]QueryResult, len(rep.queries)),
		Plan:       rep.plan,
		Classes:    make([]ClassStats, len(rep.classes)),
		Stats:      statsOut(st),
		BatchSize:  rep.batchSize,
		SharedWith: rep.sharedWith,
	}
	for i, q := range rep.queries {
		ans.Queries[i] = d.formatResult(q, rep.results[i])
	}
	for i, cs := range rep.classes {
		ans.Classes[i] = classStatsOut(cs)
	}
	ans.Stats.DAGNodes = rep.ex.DAGNodes
	ans.Stats.WorkerPeak = rep.ex.WorkerPeak
	ans.Stats.EffectiveWorkers = rep.ex.EffectiveWorkers
	ans.Stats.SnapshotEpoch = rep.epoch
	ans.Stats.RetiredFiles = d.db.MaintainStats().RetiredFiles
	d.cacheCounters(&ans.Stats, rep.results, evicted)
	return ans, nil
}

// effectiveWorkers resolves one request's unified pool width: the
// Workers option when set, otherwise the database default, clamped.
func (d *DB) effectiveWorkers(workers int) int {
	if workers <= 0 {
		workers = d.workers
	}
	return clampWorkers(workers)
}

// clampWorkers clamps a pool width to [1, exec.WorkerCap()].
func clampWorkers(w int) int { return min(max(w, 1), exec.WorkerCap()) }

// execOptions shapes the executor's configuration for one
// request running at the given resolved pool width: when actually
// parallel, per-pass memory admission against broker with the
// optimizer's footprint estimates, priced per worker (scan fan-out
// multiplies resident aggregation tables).
func (d *DB) execOptions(snap *star.Snapshot, workers int, broker *mem.Broker) core.ExecOptions {
	if workers <= 1 {
		return core.ExecOptions{}
	}
	est := plan.NewEstimator(snap)
	est.Workers = workers
	return core.ExecOptions{
		Workers: workers,
		Est:     est,
		Gate: func(ctx context.Context, cost int64) (func(), error) {
			return broker.Admit(ctx, cost)
		},
	}
}

// noteCacheUse records one request's cache outcome: the recency of each
// entry a rollup served it from is refreshed and the hit/miss counters
// advance.
func (d *DB) noteCacheUse(cached []*plan.CachePlan, totalQueries int) {
	if d.rescache == nil {
		return
	}
	for _, cp := range cached {
		d.rescache.Touch(cp.Entry)
	}
	d.rescache.RecordHits(int64(len(cached)))
	d.rescache.RecordMisses(int64(totalQueries - len(cached)))
}

// putResults admits finished results into the result cache (including
// rollup-served ones — rolling a cached entry up seeds the coarser
// group-by as its own entry) and returns how many entries were evicted
// to make room. epoch must be the snapshot epoch the results were
// computed at, or older: a stale-marked entry never answers a probe, so
// the epoch pinned before execution is always safe.
func (d *DB) putResults(queries []*query.Query, results []*exec.Result, perQ []exec.Stats, epoch uint64) int64 {
	if d.rescache == nil {
		return 0
	}
	model := cost.Default()
	var evicted int64
	for i, r := range results {
		if r == nil || r.Err != nil {
			continue
		}
		rows := make([]rescache.Row, len(r.Groups))
		for j, grp := range r.Groups {
			rows[j] = rescache.Row{Keys: grp.Keys, Value: grp.Value}
		}
		evicted += d.rescache.Put(queries[i], epoch, rows, perQ[i].SimulatedMicros(model))
	}
	return evicted
}

// cacheCounters fills an Answer's result-cache fields from its results.
func (d *DB) cacheCounters(st *Stats, results []*exec.Result, evicted int64) {
	st.ResultCacheEvictions = evicted
	if d.rescache == nil {
		return
	}
	for _, r := range results {
		if r.Cached {
			st.ResultCacheHits++
		} else {
			st.ResultCacheMisses++
		}
	}
}

// statsOut converts execution stats to the public shape.
func statsOut(st exec.Stats) Stats {
	return Stats{
		PageReads:        st.IO.Reads(),
		TuplesScanned:    st.TuplesScanned,
		TuplesFetched:    st.TuplesFetched,
		BitTests:         st.BitTests,
		SimulatedSeconds: st.SimulatedSeconds(cost.Default()),
		WallNanos:        int64(st.Wall),
		PeakMemoryBytes:  st.PeakMemory,
		SpillBytes:       st.SpillBytes,
		SpillPartitions:  st.SpillPartitions,
		PackedFolds:      st.PackedFolds,
		DerivedQueries:   st.DerivedQueries,
		DerivedRows:      st.DerivedRows,
	}
}

// classStatsOut converts one class's execution breakdown to the public
// shape.
func classStatsOut(cs core.ClassStat) ClassStats {
	return ClassStats{
		View:             cs.View,
		Regime:           cs.Regime,
		Queries:          cs.Queries,
		PageReads:        cs.Stats.IO.Reads(),
		TuplesScanned:    cs.Stats.TuplesScanned,
		TuplesFetched:    cs.Stats.TuplesFetched,
		SimulatedSeconds: cs.Stats.SimulatedSeconds(cost.Default()),
	}
}

// formatResult renders one query's groups with member names. The rows
// and their Members are presized: one []ResultRow and one []string slab
// per query, whatever the group count.
func (d *DB) formatResult(q *query.Query, r *exec.Result) QueryResult {
	schema := d.db.Schema
	qr := QueryResult{Name: q.Name, GroupBy: q.GroupByName(), Aggregate: q.Agg.String()}
	var dims []int
	for i, l := range q.Levels {
		if l != schema.Dims[i].AllLevel() {
			dims = append(dims, i)
			qr.Columns = append(qr.Columns, schema.Dims[i].Name)
		}
	}
	nm := len(dims)
	if len(r.Groups) == 0 {
		return qr
	}
	qr.Rows = make([]ResultRow, len(r.Groups))
	slab := make([]string, len(r.Groups)*nm)
	for gi, g := range r.Groups {
		qr.Rows[gi].Value = g.Value
		if nm == 0 {
			continue // grand total: Members stays nil
		}
		members := slab[gi*nm : (gi+1)*nm : (gi+1)*nm]
		for j, i := range dims {
			members[j] = schema.Dims[i].MemberName(q.Levels[i], g.Keys[i])
		}
		qr.Rows[gi].Members = members
	}
	return qr
}

// Batched serving.
//
// Every request is admitted to a group-commit queue whose runner slots
// fill GOMAXPROCS at the database width (OpenOptions.Workers). While the
// slots are busy, concurrent requests queue up, and the next slot to
// free optimizes everything queued with equivalent Options as one query set —
// the paper's multi-query optimization applied across independent
// callers instead of within one MDX expression. Requests whose queries
// land in the same plan class share a single scan or probe pass; each
// caller gets its own results, an attributed share of the work, and
// Answer.SharedWith reporting how many other requests it shared a pass
// with. On an idle database a request runs at once, alone.

// ErrBusy is returned by a request that finds the admission queue full —
// backpressure; retry after a pause. Only requests that arrive while
// every runner slot is busy queue, so an idle database never returns it.
var ErrBusy = sched.ErrQueueFull

// BatchStats snapshots the admission queue's counters: batches executed
// (a request run alone counting as one), requests admitted, requests
// that ran in a batch with company, and requests refused with ErrBusy.
type BatchStats = sched.Metrics

// BatchStats reports admission activity since Open.
func (d *DB) BatchStats() BatchStats { return d.queue.Metrics() }

// MemoryStats snapshots the database-wide memory broker.
type MemoryStats struct {
	Limit       int64         // configured budget in bytes (0 = track only)
	Used        int64         // bytes currently reserved by operator state
	Peak        int64         // high-water mark of Used since Open
	Overdraft   int64         // bytes granted past the budget for required state
	Denied      int64         // refusable grants denied (each triggered a spill)
	Admitted    int64         // admission claims granted (one per plan pass started at width > 1)
	Deferred    int64         // admission claims that had to wait for memory
	DeferredFor time.Duration // total time admission claims spent waiting for memory
	Waiting     int           // admission claims currently queued
}

// MemoryStats reports the memory broker's accounting since Open. Used
// returns to zero whenever no query is executing.
func (d *DB) MemoryStats() MemoryStats {
	s := d.mem.Stats()
	return MemoryStats{
		Limit:       s.Limit,
		Used:        s.Used,
		Peak:        s.Peak,
		Overdraft:   s.Overdraft,
		Denied:      s.Denied,
		Admitted:    s.Admitted,
		Deferred:    s.Deferred,
		DeferredFor: s.DeferredFor,
		Waiting:     s.Waiting,
	}
}

// ResultCacheStats snapshots the semantic result cache. All zeros when
// the cache is disabled (OpenOptions.ResultCacheBudget unset).
type ResultCacheStats struct {
	Budget    int64 // configured byte budget (0 = disabled)
	Bytes     int64 // bytes currently cached
	Entries   int   // results currently cached
	Hits      int64 // queries served by zero-IO rollup from a cached result
	Misses    int64 // queries that ran against stored views with the cache on
	Evictions int64 // entries evicted by cost-weighted LRU for space
	Inserts   int64 // results admitted
	Rejected  int64 // results refused (oversize, or eviction could not make room)
}

// MaintenanceStats snapshots the catalog's snapshot lifecycle: how many
// epochs have been published, what readers are pinning, and how the
// epoch-based file reclaimer is keeping up.
type MaintenanceStats struct {
	// SnapshotEpoch is the latest published epoch; queries starting now
	// run against it.
	SnapshotEpoch uint64
	// Publishes counts snapshots published since Open (every mutation
	// publishes exactly one successor).
	Publishes int64
	// LastPublishMicros is how long the most recent publish held the
	// catalog's internal lock — the window invisible to queries, since
	// readers pin before and after it, never during.
	LastPublishMicros int64
	// PinnedEpochs is how many distinct epochs in-flight requests are
	// currently pinning; Pins the outstanding pin count.
	PinnedEpochs int
	Pins         int
	// RetiredFiles is how many replaced heap/index files await
	// reclamation (protected by some pinned epoch); ReclaimedFiles how
	// many have been unlinked since Open.
	RetiredFiles   int
	ReclaimedFiles int64
}

// MaintenanceStats reports the snapshot lifecycle's counters since Open.
func (d *DB) MaintenanceStats() MaintenanceStats {
	s := d.db.MaintainStats()
	return MaintenanceStats{
		SnapshotEpoch:     s.Epoch,
		Publishes:         s.Publishes,
		LastPublishMicros: s.LastPublishNanos / 1000,
		PinnedEpochs:      s.PinnedEpochs,
		Pins:              s.Pins,
		RetiredFiles:      s.RetiredFiles,
		ReclaimedFiles:    s.ReclaimedFiles,
	}
}

// ResultCacheStats reports the result cache's accounting since Open.
func (d *DB) ResultCacheStats() ResultCacheStats {
	s := d.rescache.Stats()
	return ResultCacheStats{
		Budget:    s.Budget,
		Bytes:     s.Bytes,
		Entries:   s.Entries,
		Hits:      s.Hits,
		Misses:    s.Misses,
		Evictions: s.Evictions,
		Inserts:   s.Inserts,
		Rejected:  s.Rejected,
	}
}
