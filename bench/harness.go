package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"mdxopt"
	"mdxopt/internal/datagen"
	"mdxopt/internal/star"
)

// run is one invocation: one workload, one seed, one measured phase.
type run struct {
	w       *workload
	seed    int64
	seconds float64
	scale   float64
	setups  int    // how many times the database is set up (the last one is measured)
	work    string // directory the databases are built in
	chk     checks
}

// Sub-seeds: every generator gets its own stream so that adding a draw
// to one does not shift another.
func (r *run) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(r.seed*7919 + stream))
}

const (
	rngPool = iota
	rngRounds
	rngLoads
	rngWarm
)

// instance is one set-up database, open through the facade.
type instance struct {
	dir, spill   string
	spec         datagen.Spec
	mid          int   // members at A', B', C'
	pages, facts int64 // after the build
	tupleBytes   int64
	built        time.Duration
	opts         mdxopt.OpenOptions
	db           *mdxopt.DB

	pool []expr            // the fixed pool, if the workload has one
	refs map[string]uint64 // expression key -> digest every answer must have
	base *oracle           // the oracle of the freshly built database (its memo outlives the handle)

	maint   maintLog   // what maint_mixed's maintainer has done so far, over all phases
	loadRng *rand.Rand // the generator of its loads

	// next yields the next block of the stream; it carries on where the
	// previous phase stopped, so that a later phase sends new texts.
	next func() []expr
}

// setUp builds the sample database from the seed, opens it through the
// facade and runs the untimed warm pass. It returns the time a user
// would wait for that: build + open + warm, not the oracle's work in
// between, which is the benchmark's own.
func (r *run) setUp(rep int, verify bool) (*instance, time.Duration, error) {
	in := &instance{
		dir:   filepath.Join(r.work, fmt.Sprintf("db%d", rep)),
		spill: filepath.Join(r.work, fmt.Sprintf("spill%d", rep)),
		refs:  map[string]uint64{},
	}
	if err := os.MkdirAll(in.spill, 0o755); err != nil {
		return nil, 0, err
	}
	in.spec = datagen.PaperSpec(r.scale)
	in.spec.Seed = r.seed
	in.mid = in.spec.Cards[0][1]

	start := time.Now()
	sdb, err := datagen.Build(in.dir, in.spec)
	if err != nil {
		return nil, 0, err
	}
	in.built = time.Since(start)

	in.facts = sdb.Base().Rows()
	in.tupleBytes = int64(sdb.Schema.RowWidthBytes())
	if r.w.pool != nil {
		in.pool = r.w.pool(r.rng(rngPool), in.mid)
	}
	if verify {
		in.base = newOracle(sdb)
		for _, e := range in.pool {
			d, err := in.base.digest(e.text)
			if err != nil {
				sdb.Close()
				return nil, 0, fmt.Errorf("oracle: %s: %w", e.text, err)
			}
			in.refs[e.key] = d
		}
	}

	resume := time.Now()
	if err := sdb.Close(); err != nil {
		return nil, 0, err
	}
	bytes, err := dirBytes(in.dir)
	if err != nil {
		return nil, 0, err
	}
	in.pages = bytes / 8192
	in.opts = r.w.openOptions(in.pages, in.facts, in.spill)
	in.db, err = mdxopt.OpenWith(in.dir, in.opts)
	if err != nil {
		return nil, 0, err
	}
	if err := r.warm(in); err != nil {
		in.db.Close()
		return nil, 0, err
	}
	return in, in.built + time.Since(resume), nil
}

// warm is the untimed pass: the fixed pool once (plans cached, and the
// pool filled where it can hold the data), or one block of the fresh
// stream drawn from a generator of its own.
func (r *run) warm(in *instance) error {
	exprs := in.pool
	if exprs == nil {
		exprs = r.w.round(r.rng(rngWarm), in.mid, map[string]bool{})
	}
	for _, e := range exprs {
		if _, err := in.db.QueryWith(e.text, r.w.queryOptions(e, in.facts)); err != nil {
			return fmt.Errorf("warm: %s: %w", e.text, err)
		}
	}
	return nil
}

// discard closes and removes a set-up that is not measured.
func (in *instance) discard() error {
	err := in.db.Close()
	os.RemoveAll(in.dir)
	os.RemoveAll(in.spill)
	return err
}

// roundStat is one block of the timed phase: one pass over the fixed
// pool or one generated block.
type roundStat struct {
	first   int // index of its first expression in phase.lat
	exprs   int
	wall    time.Duration
	mallocs uint64
	bytes   uint64
}

func (rd roundStat) rate() float64 { return float64(rd.exprs) / rd.wall.Seconds() }

// sample is an answered expression kept for the oracle.
type sample struct {
	e      expr
	digest uint64
	epoch  uint64
}

// phase is what the timed phase observed.
type phase struct {
	lat       []time.Duration
	sent      []string // the texts, in order
	rounds    []roundStat
	wall      time.Duration
	pageReads int64
	queries   int64
	planHits  int64
	samples   []sample
}

// oracleSampleEvery is the share of fresh-stream answers the oracle
// re-computes after the phase (1 in 16), capped at oracleSampleMax.
const (
	oracleSampleEvery = 16
	oracleSampleMax   = 12
)

// client is the closed-loop reader: it sends the next expression when
// the previous answer has been checked.
type client struct {
	r   *run
	in  *instance
	ph  *phase
	n   int
	obs func(e expr, ans *mdxopt.Answer, start time.Time, lat time.Duration) // trace hook
}

func (c *client) do(e expr) {
	start := time.Now()
	ans, err := c.in.db.QueryWith(e.text, c.r.w.queryOptions(e, c.in.facts))
	lat := time.Since(start)
	c.ph.lat = append(c.ph.lat, lat)
	c.ph.sent = append(c.ph.sent, e.text)
	c.n++
	if err != nil {
		c.r.chk.ok(false, "%s: %v", e.text, err)
		return
	}
	c.ph.pageReads += ans.Stats.PageReads
	c.ph.queries += int64(len(ans.Queries))
	c.r.settle(c.in, e, digestAnswer(ans), ans.Stats.SnapshotEpoch, c.n, &c.ph.samples)
	if c.obs != nil {
		c.obs(e, ans, start, lat)
	}
}

// settle checks the digest of the n-th answer of a phase, or keeps it
// for the checks after the phase. An expression's first answer pins the
// digest every later one must repeat (a fixed pool's were pinned by the
// oracle before the clock started); one fresh-stream answer in
// oracleSampleEvery is kept for the oracle. On maint_mixed the
// reference depends on how many loads the snapshot held, which is
// settled afterwards for every answer.
func (r *run) settle(in *instance, e expr, digest, epoch uint64, n int, keep *[]sample) {
	if r.w.maint {
		*keep = append(*keep, sample{e: e, digest: digest, epoch: epoch})
		return
	}
	want, pinned := in.refs[e.key]
	if !pinned {
		in.refs[e.key] = digest
		want = digest
	}
	r.chk.ok(digest == want, "%s: digest %x, want %x", e.text, digest, want)
	if in.pool == nil && n%oracleSampleEvery == 0 && len(*keep) < oracleSampleMax {
		*keep = append(*keep, sample{e: e, digest: digest})
	}
}

// playRound sends one block and records its wall time and the heap
// allocations the process made meanwhile.
func (c *client) playRound(exprs []expr) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, e := range exprs {
		c.do(e)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	c.ph.rounds = append(c.ph.rounds, roundStat{first: len(c.ph.lat) - len(exprs), exprs: len(exprs), wall: wall,
		mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc})
}

// measure runs the timed phase: whole blocks until the time is up (the
// block in flight finishes). On maint_mixed both sides do a fixed amount
// of work instead, sized by seconds: the reader its blocks, the
// maintainer its cycles, and the phase ends when both are done.
func (r *run) measure(in *instance, seconds float64, obs func(expr, *mdxopt.Answer, time.Time, time.Duration)) *phase {
	ph := &phase{lat: make([]time.Duration, 0, 1<<16), sent: make([]string, 0, 1<<16)}
	c := &client{r: r, in: in, ph: ph, obs: obs}
	hits0 := in.db.PlanCacheHits()
	if in.next == nil {
		in.next = func() []expr { return in.pool }
		if in.pool == nil {
			rng, seen := r.rng(rngRounds), map[string]bool{}
			in.next = func() []expr { return r.w.round(rng, in.mid, seen) }
		}
	}
	next := in.next
	start := time.Now()
	if r.w.maint {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.maintain(in, seconds)
		}()
		for b := max(2, int(seconds*maintReaderBlocksPerSecond+0.5)); b > 0; b-- {
			c.playRound(next())
		}
		wg.Wait()
	} else {
		limit := time.Duration(seconds * float64(time.Second))
		for time.Since(start) < limit {
			block := next()
			if in.opts.ResultCacheBudget > 0 {
				// A block of sessions is a day that starts after the
				// nightly refresh, on an empty result cache: Refresh has
				// nothing to fold here and is the facade's way to drop
				// every cached result. Carried from block to block, the
				// cache never settled within a run: costly small results
				// pile up under its cost-per-byte priority and push the
				// sessions' roots out, the rate fell from 1,050 to 600
				// expressions/s over ten seconds, and how fast it fell
				// changed with the seed (750-960/s between seeds, 1 %
				// between runs of one seed). Untimed, like the generator.
				err := in.db.Refresh()
				r.chk.ok(err == nil, "refresh before a block: %v", err)
				block[0].newDay = true
			}
			c.playRound(block)
		}
	}
	ph.wall = time.Since(start)
	ph.planHits = in.db.PlanCacheHits() - hits0
	return ph
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	i := int(p*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// finish drains and closes the measured database, runs the checks that
// need it closed (leaks, oracle samples, reopen) and returns the bytes
// its directory holds.
func (r *run) finish(in *instance, samples []sample) (dirSize int64, err error) {
	mem := in.db.MemoryStats()
	// The result cache holds its entries' bytes reserved for as long as
	// it lives; everything else must have been released.
	r.chk.ok(mem.Used <= in.db.ResultCacheStats().Bytes, "broker holds %d bytes with no query running", mem.Used)
	r.chk.ok(mem.Overdraft == 0 || in.opts.MemoryBudget == 0, "broker overdraft %d bytes", mem.Overdraft)
	if err := in.db.Close(); err != nil {
		return 0, err
	}
	leaked, err := leakedFiles(in.dir, in.spill)
	if err != nil {
		return 0, err
	}
	r.chk.ok(len(leaked) == 0, "leaked files after Close: %v", leaked)
	if dirSize, err = dirBytes(in.dir); err != nil {
		return 0, err
	}

	// The oracle on the final contents of the directory.
	sdb, err := star.Open(in.dir, 2048)
	if err != nil {
		return 0, err
	}
	final := newOracle(sdb)
	recheck, wants := in.pool, []uint64(nil)
	if r.w.maint {
		wants, err = r.checkMaint(in, samples, final)
	} else {
		for _, s := range samples {
			var want uint64
			if want, err = final.digest(s.e.text); err != nil {
				break
			}
			r.chk.ok(s.digest == want, "%s: digest %x, oracle %x", s.e.text, s.digest, want)
			recheck = append(recheck, s.e)
		}
		for _, e := range recheck {
			wants = append(wants, in.refs[e.key])
		}
	}
	if err != nil {
		sdb.Close()
		return 0, err
	}
	if err := sdb.Close(); err != nil {
		return 0, err
	}

	// Reopen: what was answered before Close is answered again after.
	db, err := mdxopt.OpenWith(in.dir, in.opts)
	if err != nil {
		return 0, err
	}
	for i, e := range recheck {
		ans, err := db.QueryWith(e.text, r.w.queryOptions(e, in.facts))
		r.chk.ok(err == nil && digestAnswer(ans) == wants[i], "after reopen: %s: wrong answer or error %v", e.text, err)
	}
	return dirSize, db.Close()
}
