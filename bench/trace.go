package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"mdxopt"
	"mdxopt/internal/star"
	"mdxopt/internal/storage"
)

// Tracing lives in this directory, around the calls into each layer;
// the engine itself records nothing. A span has a name (layer.stage), a
// start and an end in nanoseconds since the trace began, the span that
// caused it, and the id of the expression it worked for. Counts read at
// the same boundary ride along. Spans stay in memory until the run ends.
// A span's self time is its duration minus its children's.

type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // 0: a root
	Expr   int              `json:"expr"`   // expressions are numbered from 1 in the order sent
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, expr int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Expr: expr, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// end closes a span and returns how long it was open.
func (t *tracer) end(id int, counts map[string]int64) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.Counts = counts
	return time.Duration(s.End - s.Start)
}

// closed records a span whose start and duration were measured by the
// caller.
func (t *tracer) closed(name string, expr int, start time.Time, d time.Duration, counts map[string]int64) {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Expr: expr, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(start.Sub(t.t0) + d), Counts: counts})
}

func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), append(blob, '\n'), 0o644)
}

// samples collects durations by stage name.
type samples map[string][]float64

func (s samples) add(name string, d time.Duration) {
	s[name] = append(s[name], float64(d.Nanoseconds())/1e3)
}

// us is the median of a stage in microseconds (0 when it never ran).
func (s samples) us(name string) float64 { return median(s[name]) }

// Shares of --seconds the traced pass gives to its parts. They add up
// to less than one: the probes of single layers take the rest.
const (
	traceUntracedShare = 0.3  // the facade, no hook: the base of the overhead ratio
	traceFacadeShare   = 0.3  // the facade with a root span and counts per expression
	traceStagedShare   = 0.25 // the staged replay, which stops early when this runs out
	// stagedPrefix is the share of the traced phase's expressions that
	// is replayed stage by stage.
	stagedPrefix = 0.5
)

// facadeObs is what the traced facade phase saw per expression.
type facadeObs struct {
	lat        map[string][]float64 // text -> latencies in microseconds
	order      []expr               // as sent
	classes    int
	probes     int
	dagNodes   int64
	workerPeak int
	effWorkers int
	spilled    int
	retiredMax int
	maxLat     time.Duration
}

// traced runs the traced pass and fills the report with the per-layer
// metrics. It returns the phase whose samples the final checks settle.
func (r *run) traced(in *instance, rep *report, out string) (*phase, error) {
	tr := newTracer()

	base := r.measure(in, r.seconds*traceUntracedShare, nil)

	obs := &facadeObs{lat: map[string][]float64{}}
	ph := r.measure(in, r.seconds*traceFacadeShare, func(e expr, ans *mdxopt.Answer, start time.Time, lat time.Duration) {
		obs.order = append(obs.order, e)
		obs.lat[e.text] = append(obs.lat[e.text], float64(lat.Nanoseconds())/1e3)
		st := &ans.Stats
		tr.closed("facade.query", len(obs.order), start, lat, map[string]int64{
			"queries": int64(len(ans.Queries)), "classes": int64(len(ans.Classes)), "page_reads": st.PageReads,
			"tuples_scanned": st.TuplesScanned, "tuples_fetched": st.TuplesFetched, "bit_tests": st.BitTests,
			"peak_memory_bytes": st.PeakMemoryBytes, "spill_bytes": st.SpillBytes, "dag_nodes": int64(st.DAGNodes),
			"worker_peak": int64(st.WorkerPeak), "cache_hits": st.ResultCacheHits, "cache_misses": st.ResultCacheMisses,
			"snapshot_epoch": int64(st.SnapshotEpoch),
		})
		for _, c := range ans.Classes {
			if c.Regime == "cache" {
				continue
			}
			obs.classes++
			if c.Regime == "probe" {
				obs.probes++
			}
		}
		obs.dagNodes += int64(st.DAGNodes)
		obs.workerPeak = max(obs.workerPeak, st.WorkerPeak)
		obs.effWorkers = max(obs.effWorkers, st.EffectiveWorkers)
		obs.retiredMax = max(obs.retiredMax, st.RetiredFiles)
		obs.maxLat = max(obs.maxLat, lat)
		if st.SpillBytes > 0 {
			obs.spilled++
		}
	})
	n := float64(len(ph.lat))

	// What only the open facade can say.
	mem := in.db.MemoryStats()
	rc := in.db.ResultCacheStats()
	mnt := in.db.MaintenanceStats()
	overhead := ratio(median(millis(ph.lat)), median(millis(base.lat)))

	// The staged replay and the single-layer probes need the layers'
	// own handles: close the facade and open the directory at the star
	// layer with the same pool.
	if err := in.db.Close(); err != nil {
		return nil, err
	}
	sdb, err := star.OpenWith(in.dir, storage.PoolOpts{Frames: in.opts.PoolFrames, Shards: 8})
	if err != nil {
		return nil, err
	}
	sg := newStager(r, in, sdb, tr)
	staged, err := sg.replayPrefix(obs, r.seconds*traceStagedShare)
	if err == nil {
		err = sg.probeLayers(rep)
	}
	if cerr := sdb.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	// finish() closes the facade handle; give it a live one again.
	if in.db, err = mdxopt.OpenWith(in.dir, in.opts); err != nil {
		return nil, err
	}

	d := sg.d
	set := rep.set
	perExpr := func(v int64) float64 { return float64(v) / float64(max(1, sg.exprs)) }
	set("mdx.parse_translate_us", d.us("mdx.parse_translate"))
	set("mdx.queries_per_expr", float64(ph.queries)/n)
	set("core.optimize_tplo_us", d.us("core.optimize_tplo"))
	set("core.optimize_etplg_us", d.us("core.optimize_etplg"))
	set("core.optimize_gg_us", d.us("core.optimize_gg"))
	set("plan.classes_per_expr", float64(obs.classes)/n)
	set("plan.probe_class_ratio", ratio(float64(obs.probes), float64(obs.classes)))
	set("plan.est_cost_gg", median(sg.estGG))
	set("plan.est_cost_ratio_tplo_gg", ratio(sum(sg.estTPLO), sum(sg.estGG)))
	set("facade.plan_cache_hit_ratio", float64(ph.planHits)/n)
	set("facade.assemble_us", median(staged.assemble))
	set("facade.layer_sum_ratio", median(staged.layerSum))
	set("facade.trace_overhead_ratio", overhead)
	set("facade.expr_max_ms", ms(obs.maxLat))
	set("star.load_close_ms", median(millis(in.maint.loadClose)))
	set("star.refresh_ms", median(millis(in.maint.refresh)))
	set("star.compact_ms", median(millis(in.maint.compact)))
	set("star.cycle_p50_ms", median(millis(in.maint.cycles)))
	set("star.publish_p50_us", median(millis(in.maint.publish))*1e3)
	set("star.publishes", float64(mnt.Publishes))
	set("star.retired_files_max", float64(max(obs.retiredMax, in.maint.retiredMax)))
	set("star.reclaimed_files", float64(mnt.ReclaimedFiles))
	set("exec.lookup_build_us", d.us("exec.lookup_build"))
	set("exec.shared_scan_us", d.us("exec.shared_scan"))
	set("exec.scan_tuples_per_s", ratio(float64(sg.scan.TuplesScanned), (sum(d["exec.shared_scan"])+sum(d["exec.shared_mixed"]))/1e6))
	set("exec.tuples_agg_per_expr", perExpr(sg.total.TuplesAgg))
	set("exec.packed_fold_ratio", ratio(float64(sg.total.PackedFolds), float64(sg.total.TuplesAgg)))
	set("exec.shared_index_us", d.us("exec.shared_index"))
	set("exec.shared_mixed_us", d.us("exec.shared_mixed"))
	set("exec.fetched_tuples_per_s", ratio(float64(sg.index.TuplesFetched), sum(d["exec.shared_index"])/1e6))
	set("exec.bit_tests_per_expr", perExpr(sg.total.BitTests))
	set("exec.bitmap_words_per_expr", perExpr(sg.total.BitmapWords))
	set("exec.rollup_cached_us", d.us("exec.rollup_cached"))
	set("exec.cache_rows_per_expr", perExpr(sg.total.CacheRows))
	set("exec.spill_bytes_per_expr", perExpr(sg.total.SpillBytes))
	set("exec.spill_expr_ratio", float64(obs.spilled)/n)
	set("dag.nodes_per_expr", float64(obs.dagNodes)/n)
	set("dag.worker_peak", float64(obs.workerPeak))
	set("dag.effective_workers", float64(obs.effWorkers))
	set("dag.speedup_w2", ratio(sum(sg.wallW1), sum(sg.wallW2)))
	set("mem.peak_mb", float64(mem.Peak)/(1<<20))
	set("mem.denied", float64(mem.Denied))
	set("mem.deferred", float64(mem.Deferred))
	set("mem.overdraft_bytes", float64(mem.Overdraft))
	set("mem.used_after_phase", float64(mem.Used-rc.Bytes))
	set("rescache.hit_ratio", ratio(float64(rc.Hits), float64(rc.Hits+rc.Misses)))
	set("rescache.evictions", float64(rc.Evictions))
	set("rescache.bytes_mb", float64(rc.Bytes)/(1<<20))
	set("rescache.probe_us", d.us("rescache.probe"))
	set("rescache.put_us", d.us("rescache.put"))
	io := sg.io
	set("storage.pool_hit_ratio", ratio(float64(io.Hits), float64(io.Hits+io.Reads())))
	set("storage.seq_reads_per_expr", perExpr(io.SeqReads))
	set("storage.rand_reads_per_expr", perExpr(io.RandReads))
	set("storage.evictions_per_expr", perExpr(io.Evictions))
	set("storage.flushes_per_expr", perExpr(io.FlushedAll))
	set("storage.pages_read_per_expr", float64(ph.pageReads)/n)
	set("datagen.build_s", in.built.Seconds())
	set("datagen.rows_per_s", float64(in.facts)/in.built.Seconds())

	if out != "" {
		if err := tr.write(out, r.w.name); err != nil {
			return nil, err
		}
	}
	// The checks after the phase settle every answer of both facade
	// phases and of the staged replay.
	ph.samples = append(append(base.samples, ph.samples...), staged.samples...)
	ph.lat = append(base.lat, ph.lat...)
	ph.sent = append(base.sent, ph.sent...)
	ph.rounds = append(base.rounds, ph.rounds...)
	ph.queries += base.queries
	ph.wall += base.wall
	return ph, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
