// Command bench is the repository's end-to-end benchmark: five
// closed-loop MDX workloads through the public facade on real file I/O,
// every answer checked, with a per-layer breakdown from a traced pass.
// See README.md in this directory and BENCHMARK.json at the repository
// root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// What a run is sized by; only the smoke test uses other values, through
// the run struct. Scale 0.25 is 500,000 facts in about 7,400 8-KiB pages
// (58 MB). The driver makes 114 runs in 3,420 s, two builds included:
// with three set-ups a run takes 15-23 s here at scale 0.25 (17.5 s on
// average) and 24-37 s at scale 0.5 (29.5 s), which does not fit.
const (
	defaultScale  = 0.25
	defaultSetups = 3 // the driver's contract: set up several times in a run, report the median
	maxProcs      = 2
	workDir       = ".bench_build/run" // the databases are built here and removed afterwards
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1998, "seed of the data and of every generator")
		seconds = flag.Float64("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 = traced pass, reporting the per-layer metrics")
		out     = flag.String("out", "", "directory for the report, the generated stream and the trace (default: none)")
		record  = flag.String("record", "", "file to append this run's metrics to, one JSON object per line, for -compare")
		descr   = flag.Bool("describe", false, "print BENCHMARK.json as declared in metrics.go and workloads.go, and stop")
		compare = flag.Bool("compare", false, "compare two -record files: bench -compare base.jsonl new.jsonl")
	)
	flag.Parse()
	runtime.GOMAXPROCS(maxProcs)

	if *descr {
		blob, err := describe()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(blob)
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two record files"))
		}
		regressed, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	w := findWorkload(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q; have %s", *name, strings.Join(workloadNames(), ", ")))
	}
	r := &run{w: w, seed: *seed, seconds: *seconds, scale: defaultScale, setups: defaultSetups,
		work: filepath.Join(workDir, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))}
	rep, err := r.execute(*trace != 0, *out)
	os.RemoveAll(r.work)
	if err != nil {
		fatal(err)
	}
	rep.print(os.Stdout)
	if *out != "" {
		if err := rep.write(*out); err != nil {
			fatal(err)
		}
	}
	if *record != "" {
		if err := rep.appendTo(*record); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// report is everything one run has to say: the envelope that makes it
// reproducible, the metrics, and the failure count.
type report struct {
	Envelope  envelope          `json:"envelope"`
	Traced    bool              `json:"traced"`
	Metrics   map[string]metric `json:"metrics"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failure   string            `json:"first_failure,omitempty"`
	// Claim is what this run claims to have improved: nothing. The
	// benchmark only measures.
	Claim *string `json:"claim"`
}

// declared lists the metrics this kind of run must report.
func (rep *report) declared() []metricDef {
	if rep.Traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

type envelope struct {
	Workload    string    `json:"workload"`
	Why         string    `json:"why"`
	Commit      string    `json:"commit"`
	GoVersion   string    `json:"go_version"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	NumCPU      int       `json:"nproc"`
	Scale       float64   `json:"scale"`
	Seed        int64     `json:"seed"`
	Seconds     float64   `json:"seconds"`
	Setups      int       `json:"setups"`
	PoolFrames  int       `json:"pool_frames"`
	MemBudget   int64     `json:"request_memory_cap_bytes"`
	CacheBudget int64     `json:"result_cache_budget_bytes"`
	Workers     int       `json:"workers"`
	FactRows    int64     `json:"fact_rows"`
	TotalPages  int64     `json:"total_pages"`
	DirBytes    int64     `json:"dir_bytes_after_close"`
	Expressions int       `json:"expressions"`
	Queries     int64     `json:"component_queries"`
	Rounds      int       `json:"rounds"`
	Samples     int       `json:"latency_samples"`
	PhaseWallS  float64   `json:"phase_wall_s"`
	BlockRates  []float64 `json:"block_expr_per_s"` // per block, in order: where a slow stretch of the machine fell
	MaintCycles int       `json:"maint_cycles"`
}

// set reports a declared metric; its unit comes from the declaration.
func (rep *report) set(name string, value float64) {
	def := findMetric(name)
	if def == nil {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	rep.Metrics[name] = metric{Value: value, Unit: def.Unit}
}

func (rep *report) result() result {
	return result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.Metrics}
}

func (rep *report) print(w *os.File) {
	e := rep.Envelope
	fmt.Fprintf(w, "%s seed=%d scale=%g facts=%d pages=%d pool=%d frames workers=%d GOMAXPROCS=%d %s commit=%s\n",
		e.Workload, e.Seed, e.Scale, e.FactRows, e.TotalPages, e.PoolFrames, e.Workers, e.GOMAXPROCS, e.GoVersion, e.Commit)
	fmt.Fprintf(w, "%d expressions (%d component queries) in %d blocks over %.2f s; %d checks, %d failed\n",
		e.Expressions, e.Queries, e.Rounds, e.PhaseWallS, rep.Attempted, rep.Failed)
	if rep.Failure != "" {
		fmt.Fprintf(w, "first failure: %s\n", rep.Failure)
	}
	for _, def := range rep.declared() {
		m := rep.Metrics[def.Name]
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", def.Name, m.Value, m.Unit)
	}
}

func (rep *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	kind := "e2e"
	if rep.Traced {
		kind = "layers"
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("report-%s-%s.json", rep.Envelope.Workload, kind)), append(blob, '\n'), 0o644)
}

// appendTo adds the run to a record file for -compare.
func (rep *report) appendTo(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// commit names the source the benchmark ran against: the git commit
// when the checkout is a repository, else "unknown" (the driver's
// checkouts are not).
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if rest, ok := strings.CutPrefix(ref, "ref: "); ok {
		blob, err := os.ReadFile(filepath.Join(".git", rest))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(blob))
	}
	return ref
}

// execute sets the database up r.setups times, measures on the last,
// checks, and builds the report.
func (r *run) execute(traced bool, out string) (*report, error) {
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		return nil, err
	}
	var in *instance
	var setupTimes []float64
	for rep := 0; rep < r.setups; rep++ {
		if in != nil {
			if err := in.discard(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		var err error
		if in, took, err = r.setUp(rep, rep == r.setups-1); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, took.Seconds())
	}

	rep := &report{Traced: traced, Metrics: map[string]metric{}}
	rep.Envelope = envelope{
		Workload: r.w.name, Why: r.w.why, Commit: commit(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Scale: r.scale, Seed: r.seed, Seconds: r.seconds, Setups: r.setups,
		PoolFrames: in.opts.PoolFrames, MemBudget: r.w.capPerFact * in.facts, CacheBudget: in.opts.ResultCacheBudget,
		Workers: in.opts.Workers, FactRows: in.facts, TotalPages: in.pages,
	}

	var ph *phase
	var err error
	if traced {
		ph, err = r.traced(in, rep, out)
	} else {
		ph = r.measure(in, r.seconds, nil)
		r.endToEnd(in, ph, rep, median(setupTimes))
	}
	if err != nil {
		in.db.Close()
		return nil, err
	}
	dirSize, err := r.finish(in, ph.samples)
	if err != nil {
		return nil, err
	}
	if !traced {
		rep.set("space_amp", float64(dirSize)/float64(in.facts*in.tupleBytes))
	}
	if out != "" {
		if err := dumpStream(out, r.w.name, ph); err != nil {
			return nil, err
		}
	}
	e := &rep.Envelope
	e.DirBytes = dirSize
	e.Expressions, e.Queries, e.Rounds = len(ph.lat), ph.queries, len(ph.rounds)
	e.PhaseWallS = ph.wall.Seconds()
	for _, rd := range ph.rounds {
		e.BlockRates = append(e.BlockRates, rd.rate())
	}
	e.MaintCycles = len(in.maint.cycles)
	rep.Attempted, rep.Failed, rep.Failure = r.chk.attempted, r.chk.failed, r.chk.firstFailure
	for _, def := range rep.declared() {
		if _, ok := rep.Metrics[def.Name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", def.Name)
		}
	}
	return rep, nil
}

// endToEnd computes the metrics a user of the engine would see, from
// the untraced phase only.
func (r *run) endToEnd(in *instance, ph *phase, rep *report, setupS float64) {
	rep.set("setup_s", setupS)
	var exprs int
	var mallocs, bytes uint64
	for _, rd := range ph.rounds {
		exprs += rd.exprs
		mallocs += rd.mallocs
		bytes += rd.bytes
	}
	// Every block counts: throughput is the median block rate, the
	// percentiles are over every expression of the phase. A stall the
	// engine causes now and then (a collection, an eviction burst, a
	// spill, a reclaim) is part of what its user waits for.
	rates := make([]float64, len(ph.rounds))
	for i, rd := range ph.rounds {
		rates[i] = rd.rate()
	}
	lat := append([]time.Duration(nil), ph.lat...)
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	rep.Envelope.Samples = len(lat)
	rep.set("expr_per_s", median(rates))
	rep.set("expr_p50_ms", ms(percentile(lat, 0.50)))
	rep.set("expr_p95_ms", ms(percentile(lat, 0.95)))
	rep.set("allocs_per_expr", float64(mallocs)/float64(exprs))
	rep.set("alloc_kb_per_expr", float64(bytes)/1024/float64(exprs))
	rep.set("op_mem_peak_mb", float64(in.db.MemoryStats().Peak)/(1<<20))
}

// dumpStream writes the expressions the phase sent, in order, so that a
// run can be replayed without the generator.
func dumpStream(dir, workload string, ph *phase) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	for _, text := range ph.sent {
		b.WriteString(text)
		b.WriteByte('\n')
	}
	return os.WriteFile(filepath.Join(dir, workload+".mdx"), []byte(b.String()), 0o644)
}
