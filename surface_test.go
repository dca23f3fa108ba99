package mdxopt

import (
	"reflect"
	"slices"
	"testing"

	"mdxopt/internal/datagen"
	"mdxopt/internal/exec"
	"mdxopt/internal/storage"
)

// TestExportedSurface pins the exported fields of the configuration and
// stats structs, in declaration order, and the facade's method set, in
// name order. Every field is an option the tests and the benchmark must
// cover, so adding one — a new knob, an alias of an existing one, a
// generator flag or a facade method — has to be a deliberate edit here.
func TestExportedSurface(t *testing.T) {
	for _, c := range []struct {
		v    any
		want []string
	}{
		{Options{}, []string{"Algorithm", "PaperPlanSpace", "ColdCache", "Workers", "MemoryBudget"}},
		{OpenOptions{}, []string{"PoolFrames", "MemoryBudget", "SpillDir", "Workers", "ResultCacheBudget"}},
		{exec.Env{}, []string{"DB", "ShareLookups", "Pool", "MorselPages", "Ctx", "QueryCtx", "Mem", "SpillDir", "SpillFanout", "Lookups", "IOFiles"}},
		{Stats{}, []string{"PageReads", "TuplesScanned", "TuplesFetched", "BitTests", "SimulatedSeconds", "WallNanos",
			"PeakMemoryBytes", "SpillBytes", "SpillPartitions", "PackedFolds", "DerivedQueries", "DerivedRows",
			"DAGNodes", "WorkerPeak", "EffectiveWorkers", "ResultCacheHits", "ResultCacheMisses", "ResultCacheEvictions",
			"SnapshotEpoch", "RetiredFiles"}},
		{storage.PoolOpts{}, []string{"Frames", "Shards"}},
		{storage.Stats{}, []string{"SeqReads", "RandReads", "Writes", "Hits", "Allocs", "Evictions", "FlushedAll"}},
		{datagen.Spec{}, []string{"Rows", "Entities", "Seed", "Cards", "DimNames", "Measure", "Views", "IndexView", "IndexDims",
			"PoolFrames", "Zipf"}},
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

	typ := reflect.TypeOf((*DB)(nil))
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	want := []string{"BatchStats", "BuildBitmapIndex", "Close", "Compact", "Dimensions",
		"Explain", "Facts", "Load", "MaintenanceStats", "Materialize", "MaterializeMulti",
		"Measure", "MemoryStats", "PlanCacheHits", "Query", "QueryContext", "QueryWith", "Refresh",
		"ResultCacheStats", "StaleViews", "Views"}
	if !slices.Equal(got, want) {
		t.Errorf("%s exports %d methods %v, want %d %v", typ, len(got), got, len(want), want)
	}
}
