package main

import (
	"math/rand"
	"sort"
	"time"
)

// The two sides of maint_mixed. Their amounts of work are counts, not
// times: with the maintainer's cycles and the reader's blocks fixed by
// --seconds, the bytes written, the snapshots published, the final size
// of the directory and the allocations per expression repeat from run
// to run, and only how the two share the two cores varies.
const (
	// maintReaderBlocksPerSecond converts --seconds into reader blocks;
	// beside the maintainer the reader gets through about three blocks
	// of 18 expressions a second on the box this was sized on.
	maintReaderBlocksPerSecond = 3.0
	// maintCyclesPerSecond converts --seconds into cycles; one cycle
	// takes about 0.6 s beside the reader on the
	// two-core box this was sized on.
	maintCyclesPerSecond = 1.6
	// maintLoadShare is the rows of one load as a share of the base
	// table (20,000 rows at scale 0.5).
	maintLoadShare = 0.02
	// maintOverrun stops the maintainer early when cycles run this many
	// times slower than sized, so that a slow machine cannot run into
	// the driver's time limit. The run then reports fewer cycles.
	maintOverrun = 2.5
)

// maintLog is what the maintainer did, read by the checks after it has
// stopped.
type maintLog struct {
	loads      [][]fact // the rows of each completed load
	loadEpochs []uint64 // the snapshot epoch that made each load visible
	cycles     []time.Duration
	loadClose  []time.Duration
	refresh    []time.Duration
	compact    []time.Duration
	publish    []time.Duration // the catalog lock hold of each publish
	retiredMax int             // most replaced files seen awaiting reclamation
	err        error
}

// loadRows draws the rows of the next load: uniform base-level codes,
// whole-dollar measures so that sums stay exact in any order.
func (r *run) loadRows(in *instance, rng *rand.Rand) []fact {
	rows := make([]fact, int(float64(in.facts)*maintLoadShare))
	for i := range rows {
		f := &rows[i]
		for d, c := range in.spec.Cards {
			f.keys[d] = rng.Int31n(int32(c[0]))
		}
		f.measure = float64(rng.Intn(10000))
	}
	return rows
}

// maintain runs cycles of {load rows, close the loader, refresh every
// view, compact one view round-robin} through the facade.
func (r *run) maintain(in *instance, seconds float64) {
	log := &in.maint
	cycles := int(seconds*maintCyclesPerSecond + 0.5)
	if cycles < 2 {
		cycles = 2
	}
	if in.loadRng == nil {
		in.loadRng = r.rng(rngLoads)
	}
	pending := make([][]fact, cycles)
	for k := range pending {
		pending[k] = r.loadRows(in, in.loadRng)
	}
	views := in.db.Views()[1:]
	published := func() {
		st := in.db.MaintenanceStats()
		log.publish = append(log.publish, time.Duration(st.LastPublishMicros)*time.Microsecond)
		if st.RetiredFiles > log.retiredMax {
			log.retiredMax = st.RetiredFiles
		}
	}
	deadline := time.Now().Add(time.Duration(seconds * maintOverrun * float64(time.Second)))
	for k := 0; k < cycles && time.Now().Before(deadline); k++ {
		start := time.Now()
		ld := in.db.Load()
		for i := range pending[k] {
			f := &pending[k][i]
			if log.err = ld.AddCodes(f.keys[:], f.measure); log.err != nil {
				return
			}
		}
		if log.err = ld.Close(); log.err != nil {
			return
		}
		loaded := time.Now()
		log.loads = append(log.loads, pending[k])
		log.loadEpochs = append(log.loadEpochs, in.db.MaintenanceStats().SnapshotEpoch)
		published()
		if log.err = in.db.Refresh(); log.err != nil {
			return
		}
		refreshed := time.Now()
		published()
		if log.err = in.db.Compact(views[len(log.cycles)%len(views)].Levels...); log.err != nil {
			return
		}
		end := time.Now()
		published()
		log.loadClose = append(log.loadClose, loaded.Sub(start))
		log.refresh = append(log.refresh, refreshed.Sub(loaded))
		log.compact = append(log.compact, end.Sub(refreshed))
		log.cycles = append(log.cycles, end.Sub(start))
	}
}

// checkMaint settles the reader's answers: each must equal the oracle's
// answer on the built database plus the loads its snapshot held. It
// also ties that arithmetic to the oracle on the final directory, and
// returns the digests the pool must have after a reopen.
func (r *run) checkMaint(in *instance, samples []sample, final *oracle) ([]uint64, error) {
	log := &in.maint
	r.chk.ok(log.err == nil, "maintainer: %v", log.err)
	loadsAt := func(epoch uint64) int {
		return sort.Search(len(log.loadEpochs), func(i int) bool { return log.loadEpochs[i] > epoch })
	}
	need := map[string][]bool{}
	for _, e := range in.pool {
		need[e.key] = make([]bool, len(log.loads)+1)
		need[e.key][len(log.loads)] = true
	}
	for _, s := range samples {
		need[s.e.key][loadsAt(s.epoch)] = true
	}
	refs := map[string][]uint64{}
	wants := make([]uint64, len(in.pool))
	for i, e := range in.pool {
		d, err := in.base.digestsAfterLoads(e.text, log.loads, need[e.key])
		if err != nil {
			return nil, err
		}
		refs[e.key] = d
		wants[i] = d[len(log.loads)]
	}
	for _, s := range samples {
		k := loadsAt(s.epoch)
		r.chk.ok(s.digest == refs[s.e.key][k], "%s at %d loads: digest %x, want %x", s.e.text, k, s.digest, refs[s.e.key][k])
	}
	// A few full oracle passes over the final base table.
	for i := 0; i < len(in.pool); i += len(in.pool) / 4 {
		d, err := final.digest(in.pool[i].text)
		if err != nil {
			return nil, err
		}
		r.chk.ok(d == wants[i], "%s: oracle on the final table %x, oracle plus loads %x", in.pool[i].text, d, wants[i])
	}
	return wants, nil
}
