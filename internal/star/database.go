package star

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdxopt/internal/bitmap"
	"mdxopt/internal/storage"
	"mdxopt/internal/table"
)

// View is a stored group-by: the base fact table (all levels 0) or a
// materialized aggregate of it. Column i holds member codes of dimension
// i at Levels[i].
type View struct {
	Name    string
	Levels  []int
	Heap    *table.HeapFile
	Indexes map[int]*bitmap.Index // dimension position -> bitmap join index

	file       string         // heap file name relative to the database dir
	indexFiles map[int]string // index file names relative to the database dir

	// refreshedRows counts the base-table rows folded into this view
	// (see maintain.go). Unused for the base view itself.
	refreshedRows int64
}

// Rows returns the view's row count.
func (v *View) Rows() int64 { return v.Heap.Count() }

// Pages returns the view's data page count.
func (v *View) Pages() int64 { return v.Heap.DataPages() }

// HasIndex reports whether dimension dim has a bitmap join index on this
// view.
func (v *View) HasIndex(dim int) bool { return v.Indexes[dim] != nil }

func (v *View) String() string {
	return fmt.Sprintf("View(%s, %d rows, %d pages)", v.Name, v.Rows(), v.Pages())
}

// Database is an on-disk star database: dimension tables, the base fact
// table, materialized group-by views, and bitmap join indexes, all served
// through one buffer pool.
//
// The exported fields are the *live*, mutable catalog; mutations
// serialize on an internal lock and publish immutable Snapshots of it
// (see snapshot.go). Concurrent readers never touch the live fields:
// they pin a published snapshot instead.
type Database struct {
	Dir       string
	Pool      *storage.Pool
	Schema    *Schema
	DimTables []*table.HeapFile
	Views     []*View // Views[0] is the base fact table
	// Stats holds base-table member frequencies (may be nil); see
	// stats.go. RefreshStats computes them, Save persists them.
	Stats *Stats

	// mutMu serializes mutations against each other. Readers do not
	// take it: they pin published snapshots.
	mutMu sync.Mutex
	// epochs tracks the published epoch, reader pins, and retired files
	// awaiting reclamation.
	epochs *storage.EpochTable
	// published is the latest published snapshot; stored under the
	// epoch table's lock by publishLocked so Pin never observes an
	// epoch without its snapshot.
	published atomic.Pointer[Snapshot]
	// pendingRetire accumulates files replaced by the mutation in
	// progress; they are handed to the epoch table at the next publish.
	pendingRetire []storage.RetiredFile
	// fileSeq numbers replacement files (see nextFileName) so a rebuilt
	// index or compacted heap never reuses a path the pool still serves
	// to older snapshots.
	fileSeq          uint64
	lastPublishNanos atomic.Int64
}

const metaFile = "meta.json"

// snapshotAt freezes the live catalog into an immutable Snapshot at the
// given epoch. Cheap: it clones view structs and map headers, not data.
func (db *Database) snapshotAt(epoch uint64) *Snapshot {
	views := make([]*View, len(db.Views))
	for i, v := range db.Views {
		views[i] = v.freeze()
	}
	dims := make([]*table.HeapFile, len(db.DimTables))
	for i, h := range db.DimTables {
		dims[i] = h.Freeze()
	}
	return &Snapshot{
		Epoch:     epoch,
		Dir:       db.Dir,
		Pool:      db.Pool,
		Schema:    db.Schema,
		DimTables: dims,
		Views:     views,
		Stats:     db.Stats,
	}
}

// publishLocked publishes the live state as the successor snapshot and
// hands the mutation's retired files to the epoch table. Callers hold
// mutMu.
func (db *Database) publishLocked() {
	start := time.Now()
	retire := db.pendingRetire
	db.pendingRetire = nil
	db.epochs.Publish(retire, func(epoch uint64) {
		db.published.Store(db.snapshotAt(epoch))
	})
	db.lastPublishNanos.Store(time.Since(start).Nanoseconds())
}

// retireLocked queues a replaced file for reclamation at the next
// publish. Callers hold mutMu.
func (db *Database) retireLocked(path string) {
	db.pendingRetire = append(db.pendingRetire, storage.RetiredFile{Pool: db.Pool, Path: path})
}

// Publish publishes the current live state as a new snapshot. The
// catalog-mutating methods publish on their own; Publish is for callers
// that extended heaps directly through appenders (fact loaders) and
// want the appended rows visible to new readers.
func (db *Database) Publish() {
	db.mutMu.Lock()
	defer db.mutMu.Unlock()
	db.publishLocked()
}

// Snapshot freezes the current live state into a fresh, unpinned
// snapshot, satisfying Catalog. It is meant for single-threaded
// embedders (tests, benchmarks, experiments); the concurrent serving
// path uses Pin, which reference-counts the published snapshot against
// file reclamation.
func (db *Database) Snapshot() *Snapshot {
	return db.snapshotAt(db.epochs.Current())
}

// Pin returns the latest *published* snapshot with its epoch pinned:
// files it references cannot be reclaimed until the release function
// runs. The pin is taken before the snapshot pointer is loaded, so a
// concurrent publish can hand the reader a newer snapshot than the
// pinned epoch — never an older one — and files either snapshot
// references are protected either way.
func (db *Database) Pin() (*Snapshot, func()) {
	_, unpin := db.epochs.Pin()
	return db.published.Load(), unpin
}

// MaintainStats reports the snapshot lifecycle's counters.
type MaintainStats struct {
	Epoch            uint64 // latest published epoch
	Publishes        int64  // snapshots published since open
	LastPublishNanos int64  // wall time of the most recent publish
	PinnedEpochs     int    // distinct epochs currently pinned by readers
	Pins             int    // outstanding reader pins
	RetiredFiles     int    // replaced files awaiting reclamation
	ReclaimedFiles   int64  // replaced files unlinked since open
}

// MaintainStats snapshots the epoch table's counters.
func (db *Database) MaintainStats() MaintainStats {
	s := db.epochs.Stats()
	return MaintainStats{
		Epoch:            s.Current,
		Publishes:        s.Publishes,
		LastPublishNanos: db.lastPublishNanos.Load(),
		PinnedEpochs:     len(s.PinnedEpochs),
		Pins:             s.Pins,
		RetiredFiles:     s.Retired,
		ReclaimedFiles:   s.Reclaimed,
	}
}

// nextFileName generates a fresh versioned file name ("base.gN.ext")
// for a replacement heap or index file. Replacements never reuse a live
// path: the buffer pool registers files by path, and older snapshots
// keep reading the retired file until reclamation.
func (db *Database) nextFileName(base, ext string) string {
	for {
		db.fileSeq++
		name := fmt.Sprintf("%s.g%d%s", base, db.fileSeq, ext)
		path := filepath.Join(db.Dir, name)
		if _, ok := db.Pool.Registered(path); ok {
			continue
		}
		if _, err := os.Stat(path); err == nil {
			continue
		}
		return name
	}
}

// noteFileSeq advances fileSeq past the generation number embedded in a
// manifest file name, so names generated after reopening never collide
// with ones from earlier incarnations.
func (db *Database) noteFileSeq(name string) {
	rest := name
	for {
		i := strings.Index(rest, ".g")
		if i < 0 {
			return
		}
		rest = rest[i+2:]
		j := 0
		for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
			j++
		}
		if j == 0 {
			continue
		}
		if n, err := strconv.ParseUint(rest[:j], 10, 64); err == nil && n > db.fileSeq {
			db.fileSeq = n
		}
	}
}

// metadata serialization types
type dimJSON struct {
	Name   string      `json:"name"`
	Levels []LevelSpec `json:"levels"`
}

type viewJSON struct {
	Name   string `json:"name"`
	Levels []int  `json:"levels"`
	File   string `json:"file"`
	// RefreshedRows is a pointer so manifests written before view
	// maintenance existed (field absent) load as fresh rather than
	// fully stale.
	RefreshedRows *int64            `json:"refreshed_rows,omitempty"`
	MultiAgg      bool              `json:"multi_agg,omitempty"`
	Indexes       map[string]string `json:"indexes,omitempty"` // dim position -> file
}

type metaJSON struct {
	Measure   string     `json:"measure"`
	Dims      []dimJSON  `json:"dims"`
	DimTables []string   `json:"dim_tables"`
	Views     []viewJSON `json:"views"`
	// Base-level member counts per dimension; upper levels are derived
	// on load. Omitted when statistics were never computed.
	StatsBase [][]int64 `json:"stats_base,omitempty"`
	StatsRows int64     `json:"stats_rows,omitempty"`
}

// Create initializes a new database directory with dimension tables and
// an empty base fact table. The caller appends facts via BaseAppender and
// must call Save when done.
func Create(dir string, schema *Schema, poolFrames int) (*Database, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("star: create %s: %w", dir, err)
	}
	if _, err := os.Stat(filepath.Join(dir, metaFile)); err == nil {
		return nil, fmt.Errorf("star: database already exists in %s", dir)
	}
	db := &Database{
		Dir:    dir,
		Pool:   storage.NewPool(poolFrames),
		Schema: schema,
		epochs: storage.NewEpochTable(),
	}
	// Dimension tables: one row per base member carrying its codes at
	// every level.
	for i, d := range schema.Dims {
		name := "dim_" + d.Name + ".heap"
		h, err := table.Create(db.Pool, filepath.Join(dir, name), schema.DimTableSchema(i))
		if err != nil {
			return nil, err
		}
		app := h.NewAppender()
		keys := make([]int32, d.NumLevels())
		for c := int32(0); c < d.Card(0); c++ {
			for l := 0; l < d.NumLevels(); l++ {
				keys[l] = d.RollUp(c, 0, l)
			}
			if err := app.Append(keys, nil); err != nil {
				return nil, err
			}
		}
		if err := app.Close(); err != nil {
			return nil, err
		}
		db.DimTables = append(db.DimTables, h)
	}
	// Base fact table at all-base levels.
	levels := make([]int, schema.NumDims())
	base, err := db.newView(levels, false)
	if err != nil {
		return nil, err
	}
	db.Views = append(db.Views, base)
	db.publishLocked()
	return db, nil
}

// newView creates an empty stored view for the given level vector, with
// the multi-aggregate layout when multi is set.
func (db *Database) newView(levels []int, multi bool) (*View, error) {
	if err := db.Schema.ValidLevels(levels); err != nil {
		return nil, err
	}
	name := db.Schema.GroupByName(levels)
	file := "view_" + sanitizeName(name) + ".heap"
	schema := db.Schema.ViewSchema()
	if multi {
		schema = db.Schema.MultiViewSchema()
	}
	h, err := table.Create(db.Pool, filepath.Join(db.Dir, file), schema)
	if err != nil {
		return nil, err
	}
	lv := make([]int, len(levels))
	copy(lv, levels)
	return &View{
		Name:       name,
		Levels:     lv,
		Heap:       h,
		Indexes:    map[int]*bitmap.Index{},
		file:       file,
		indexFiles: map[int]string{},
	}, nil
}

// sanitizeName makes a group-by name safe as a file name (primes and
// parens removed).
func sanitizeName(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch r {
		case '\'':
			out = append(out, 'p')
		case '(', ')', ':':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// Base returns the base fact table view.
func (db *Database) Base() *View { return db.Views[0] }

// ViewByName returns the named view, or nil.
func (db *Database) ViewByName(name string) *View {
	for _, v := range db.Views {
		if v.Name == name {
			return v
		}
	}
	return nil
}

// ViewByLevels returns the view with exactly the given level vector, or
// nil.
func (db *Database) ViewByLevels(levels []int) *View {
	for _, v := range db.Views {
		if equalLevels(v.Levels, levels) {
			return v
		}
	}
	return nil
}

func equalLevels(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Materialize computes and stores the group-by with the given level
// vector by aggregating the finest existing view that can answer it (the
// base table at worst). The view stores the paper's sum-only layout;
// MaterializeMulti stores the multi-aggregate layout instead. Returns
// the new view.
func (db *Database) Materialize(levels []int) (*View, error) {
	db.mutMu.Lock()
	defer db.mutMu.Unlock()
	v, err := db.materialize(levels, false)
	if err != nil {
		return nil, err
	}
	db.publishLocked()
	return v, nil
}

// MaterializeMulti is Materialize with the multi-aggregate layout (sum,
// count, min, max per group), which lets COUNT/MIN/MAX/AVG queries be
// answered from the view.
func (db *Database) MaterializeMulti(levels []int) (*View, error) {
	db.mutMu.Lock()
	defer db.mutMu.Unlock()
	v, err := db.materialize(levels, true)
	if err != nil {
		return nil, err
	}
	db.publishLocked()
	return v, nil
}

func (db *Database) materialize(levels []int, multi bool) (*View, error) {
	if err := db.Schema.ValidLevels(levels); err != nil {
		return nil, err
	}
	if v := db.ViewByLevels(levels); v != nil {
		return nil, fmt.Errorf("star: view %s already materialized", v.Name)
	}
	src := db.cheapestSource(levels, multi)
	if src == nil {
		return nil, errors.New("star: no source view can answer the requested group-by")
	}
	out, err := db.newView(levels, multi)
	if err != nil {
		return nil, err
	}

	agg, err := db.aggregate(src, levels, 0)
	if err != nil {
		return nil, err
	}
	if err := appendGroups(out.Heap, agg, out.MultiAgg(), true); err != nil {
		return nil, err
	}
	out.refreshedRows = db.Base().Rows()
	db.Views = append(db.Views, out)
	return out, nil
}

// cheapestSource returns the smallest existing *fresh* view that can
// derive the target levels; when multi is set, only sources carrying
// full aggregate information qualify (the base table or another
// multi-aggregate view).
func (db *Database) cheapestSource(levels []int, multi bool) *View {
	var best *View
	for _, v := range db.Views {
		if !Derives(v.Levels, levels) || !db.Fresh(v) {
			continue
		}
		if multi && !v.IsBase() && !v.MultiAgg() {
			continue
		}
		if best == nil || v.Rows() < best.Rows() {
			best = v
		}
	}
	return best
}

// Derives reports whether a view with levels src can answer a group-by
// with levels dst: src must be at the same or a finer level in every
// dimension.
func Derives(src, dst []int) bool {
	if len(src) != len(dst) {
		return false
	}
	for i := range src {
		if src[i] > dst[i] {
			return false
		}
	}
	return true
}

// BuildIndex builds and persists a bitmap join index on dimension dim
// of view v.
func (db *Database) BuildIndex(v *View, dim int) error {
	db.mutMu.Lock()
	defer db.mutMu.Unlock()
	if err := db.buildIndexLocked(v, dim); err != nil {
		return err
	}
	db.publishLocked()
	return nil
}

func (db *Database) buildIndexLocked(v *View, dim int) error {
	if dim < 0 || dim >= db.Schema.NumDims() {
		return fmt.Errorf("star: dimension %d out of range", dim)
	}
	if v.Indexes[dim] != nil {
		return fmt.Errorf("star: %s already has an index on %s", v.Name, db.Schema.Dims[dim].Name)
	}
	// The canonical name serves first builds; rebuilds version the name
	// because older snapshots still read the retired file at the old
	// path (the pool registers files by path).
	base := "idx_" + sanitizeName(v.Name) + "_" + strconv.Itoa(dim)
	file := base + ".bmx"
	path := filepath.Join(db.Dir, file)
	_, registered := db.Pool.Registered(path)
	if _, err := os.Stat(path); err == nil || registered {
		file = db.nextFileName(base, ".bmx")
		path = filepath.Join(db.Dir, file)
	}
	if err := bitmap.BuildAndCreate(db.Pool, path, v.Heap, dim); err != nil {
		return err
	}
	ix, err := bitmap.Open(db.Pool, path)
	if err != nil {
		return err
	}
	v.Indexes[dim] = ix
	v.indexFiles[dim] = file
	return nil
}

// Save writes table metadata and the database manifest, then flushes the
// buffer pool so everything is durable. The current live state is
// published first (covering rows appended directly through appenders),
// and retired files no longer pinned by any reader are reclaimed. Save
// must not race in-flight queries: their pinned pages would fail the
// flush.
func (db *Database) Save() error {
	db.mutMu.Lock()
	defer db.mutMu.Unlock()
	db.publishLocked()
	for _, h := range db.DimTables {
		if err := h.Close(); err != nil {
			return err
		}
	}
	meta := metaJSON{Measure: db.Schema.Measure}
	if db.Stats != nil {
		meta.StatsRows = db.Stats.Rows
		for i := range db.Schema.Dims {
			meta.StatsBase = append(meta.StatsBase, db.Stats.Counts[i][0])
		}
	}
	for _, d := range db.Schema.Dims {
		meta.Dims = append(meta.Dims, dimJSON{Name: d.Name, Levels: d.Levels})
	}
	for _, d := range db.Schema.Dims {
		meta.DimTables = append(meta.DimTables, "dim_"+d.Name+".heap")
	}
	for _, v := range db.Views {
		if err := v.Heap.Close(); err != nil {
			return err
		}
		rr := v.refreshedRows
		vj := viewJSON{Name: v.Name, Levels: v.Levels, File: v.file, RefreshedRows: &rr, MultiAgg: v.MultiAgg()}
		if len(v.indexFiles) > 0 {
			vj.Indexes = map[string]string{}
			for dim, f := range v.indexFiles {
				vj.Indexes[strconv.Itoa(dim)] = f
			}
		}
		meta.Views = append(meta.Views, vj)
	}
	blob, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(db.Dir, metaFile), blob, 0o644); err != nil {
		return err
	}
	if err := db.epochs.Reclaim(); err != nil {
		return err
	}
	return db.Pool.FlushAll()
}

// Open loads a database saved by Save, with a single-shard buffer pool
// of poolFrames frames.
func Open(dir string, poolFrames int) (*Database, error) {
	return OpenWith(dir, storage.PoolOpts{Frames: poolFrames})
}

// OpenWith loads a database saved by Save with explicit buffer-pool
// options (lock shard count in addition to capacity).
func OpenWith(dir string, pool storage.PoolOpts) (*Database, error) {
	blob, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return nil, fmt.Errorf("star: open database %s: %w", dir, err)
	}
	var meta metaJSON
	if err := json.Unmarshal(blob, &meta); err != nil {
		return nil, fmt.Errorf("star: corrupt manifest in %s: %w", dir, err)
	}
	dims := make([]*Dimension, len(meta.Dims))
	for i, dj := range meta.Dims {
		d, err := NewDimension(dj.Name, dj.Levels)
		if err != nil {
			return nil, fmt.Errorf("star: manifest dimension %s: %w", dj.Name, err)
		}
		dims[i] = d
	}
	schema, err := NewSchema(dims, meta.Measure)
	if err != nil {
		return nil, err
	}
	db := &Database{Dir: dir, Pool: storage.NewPoolWith(pool), Schema: schema, epochs: storage.NewEpochTable()}
	for i, file := range meta.DimTables {
		h, err := table.Open(db.Pool, filepath.Join(dir, file), schema.DimTableSchema(i))
		if err != nil {
			return nil, err
		}
		db.DimTables = append(db.DimTables, h)
	}
	for _, vj := range meta.Views {
		viewSchema := schema.ViewSchema()
		if vj.MultiAgg {
			viewSchema = schema.MultiViewSchema()
		}
		h, err := table.Open(db.Pool, filepath.Join(dir, vj.File), viewSchema)
		if err != nil {
			return nil, err
		}
		v := &View{
			Name:       vj.Name,
			Levels:     vj.Levels,
			Heap:       h,
			Indexes:    map[int]*bitmap.Index{},
			file:       vj.File,
			indexFiles: map[int]string{},
		}
		if vj.RefreshedRows != nil {
			v.refreshedRows = *vj.RefreshedRows
		} else if len(db.Views) > 0 {
			// Pre-maintenance manifest: assume the view was current when
			// the database was written.
			v.refreshedRows = db.Views[0].Rows()
		}
		for dimStr, f := range vj.Indexes {
			dim, err := strconv.Atoi(dimStr)
			if err != nil {
				return nil, fmt.Errorf("star: manifest index key %q: %w", dimStr, err)
			}
			ix, err := bitmap.Open(db.Pool, filepath.Join(dir, f))
			if err != nil {
				return nil, err
			}
			v.Indexes[dim] = ix
			v.indexFiles[dim] = f
		}
		db.Views = append(db.Views, v)
	}
	if len(db.Views) == 0 {
		return nil, fmt.Errorf("star: database %s has no views", dir)
	}
	if meta.StatsBase != nil {
		st, err := statsFromBase(schema, meta.StatsBase, meta.StatsRows)
		if err != nil {
			return nil, err
		}
		db.Stats = st
	}
	for _, vj := range meta.Views {
		db.noteFileSeq(vj.File)
		for _, f := range vj.Indexes {
			db.noteFileSeq(f)
		}
	}
	db.publishLocked()
	return db, nil
}

// ColdReset drops all cached pages and in-memory index bitmaps,
// reproducing the paper's cold-cache discipline between measurements.
func (db *Database) ColdReset() error {
	for _, v := range db.Views {
		for _, ix := range v.Indexes {
			ix.DropCache()
		}
	}
	return db.Pool.FlushAll()
}

// Close saves and closes all files, force-draining any files still
// awaiting reclamation (no reader can be live). The database is
// unusable afterwards.
func (db *Database) Close() error {
	if err := db.Save(); err != nil {
		return err
	}
	if err := db.epochs.ForceDrain(); err != nil {
		return err
	}
	return db.Pool.CloseFiles()
}
