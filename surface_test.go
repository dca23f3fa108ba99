package mdxopt

import (
	"reflect"
	"slices"
	"testing"

	"mdxopt/internal/exec"
	"mdxopt/internal/storage"
)

// TestExportedSurface pins the exported fields of the configuration and
// stats structs, in declaration order. Every field is an option the
// tests and the benchmark must cover, so adding one — a new knob, or an
// alias of an existing one — has to be a deliberate edit here.
func TestExportedSurface(t *testing.T) {
	for _, c := range []struct {
		v    any
		want []string
	}{
		{Options{}, []string{"Algorithm", "PaperPlanSpace", "ColdCache", "Workers", "Batching", "MemoryBudget"}},
		{OpenOptions{}, []string{"PoolFrames", "MemoryBudget", "SpillDir", "Workers", "ResultCacheBudget"}},
		{BatchConfig{}, []string{"Window", "MaxBatch", "MaxQueue"}},
		{exec.Env{}, []string{"DB", "ShareLookups", "Pool", "MorselPages", "Ctx", "QueryCtx", "Mem", "SpillDir", "SpillFanout", "Lookups", "IOFiles"}},
		{Stats{}, []string{"PageReads", "TuplesScanned", "TuplesFetched", "BitTests", "SimulatedSeconds", "WallNanos",
			"PeakMemoryBytes", "SpillBytes", "SpillPartitions", "PackedFolds", "DerivedQueries", "DerivedRows",
			"DAGNodes", "WorkerPeak", "EffectiveWorkers", "ResultCacheHits", "ResultCacheMisses", "ResultCacheEvictions",
			"SnapshotEpoch", "RetiredFiles"}},
		{storage.PoolOpts{}, []string{"Frames", "Shards"}},
		{storage.Stats{}, []string{"SeqReads", "RandReads", "Writes", "Hits", "Allocs", "Evictions", "FlushedAll"}},
	} {
		typ := reflect.TypeOf(c.v)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s exports %v, want %v", typ, got, c.want)
		}
	}
}
