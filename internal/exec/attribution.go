package exec

// Per-query stats attribution for shared passes.
//
// A shared operator evaluates several queries — possibly from several
// independent submissions — in one pass over a base view, so the pass's
// Stats mix work that belongs to everyone (the sequential scan, page
// I/O, lookup builds) with work that belongs to exactly one query (its
// probes, aggregations, fetch routing). Each pipeline counts its own
// non-shared work as it goes; Attribute combines both views into one
// Stats per query: non-shared components exactly, shared components as
// an equal (proportional) split of the pass residual.

// statComponents enumerates every additive component of a Stats as
// int64 cells, in a fixed order. Wall (a time.Duration) rides along as
// its underlying int64.
func statComponents(s *Stats) []*int64 {
	return []*int64{
		&s.IO.SeqReads, &s.IO.RandReads, &s.IO.Writes, &s.IO.Hits,
		&s.IO.Allocs, &s.IO.Evictions, &s.IO.FlushedAll,
		&s.TuplesScanned, &s.TupleProbes, &s.TuplesAgg, &s.TuplesFetched,
		&s.HashBuildRows, &s.BitmapWords, &s.BitTests, &s.CacheRows,
		&s.DerivedQueries, &s.DerivedRows, &s.PackedFolds, &s.PeakMemory, &s.SpillBytes, &s.SpillPartitions,
		(*int64)(&s.Wall),
	}
}

// Attribute splits one shared pass's stats across its queries. own[i]
// is query i's non-shared work as counted by its pipeline; pass is the
// whole pass. Each output is own[i] plus an equal share of every
// component's residual pass - Σown (the shared scan, page I/O, lookup
// builds, wall time — and, on the index path, the union bitmap work).
// The attributions sum back to pass exactly: remainders go to the
// earliest queries.
func Attribute(pass Stats, own []Stats) []Stats {
	n := len(own)
	out := make([]Stats, n)
	if n == 0 {
		return out
	}
	copy(out, own)
	passC := statComponents(&pass)
	sums := make([]int64, len(passC))
	for i := range own {
		oc := statComponents(&own[i])
		for c := range sums {
			sums[c] += *oc[c]
		}
	}
	for i := range out {
		oc := statComponents(&out[i])
		for c := range passC {
			residual := *passC[c] - sums[c]
			if residual <= 0 {
				continue
			}
			share := residual / int64(n)
			if int64(i) < residual%int64(n) {
				share++
			}
			*oc[c] += share
		}
	}
	return out
}
