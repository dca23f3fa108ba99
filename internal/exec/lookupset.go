package exec

import (
	"sync"

	"mdxopt/internal/mem"
	"mdxopt/internal/query"
)

// LookupSet is a collection of dimension lookups built once and shared
// across the class passes of one executed plan. The per-pass lookupCache
// shares identical lookups between the queries of *one* shared operator
// (§3.1); the set extends that sharing across operators: the task-graph
// executor hoists every distinct lookup a plan needs into per-dimension
// build nodes, runs them first, and every class pass then probes the
// finished set through Env.Lookups.
//
// Build calls may run concurrently (one build node per dimension);
// lookups are immutable once registered, so reads after the builds
// finish are lock-cheap but still serialized for the fallback path,
// where a pass builds a lookup the planner missed.
type LookupSet struct {
	mu      sync.Mutex
	entries map[lookupKey]*dimLookup
	res     *mem.Reservation
}

// NewLookupSet returns an empty set whose memory is reserved against b
// (nil b runs ungoverned). Close the set when the plan finishes.
func NewLookupSet(b *mem.Broker) *LookupSet {
	return &LookupSet{
		entries: map[lookupKey]*dimLookup{},
		res:     b.Reserve("shared-lookups"),
	}
}

// LookupBuild names one lookup to construct: the dimension, the view
// column's level, and the query whose target level and predicate define
// the lookup's output side.
type LookupBuild struct {
	Query     *query.Query
	Dim       int
	ViewLevel int
}

// BuildLookups constructs every listed lookup into set, measuring the
// dimension-table scan I/O, hash-build rows, wall time, and reserved
// bytes into stats. Already-present lookups are skipped, so concurrent
// builders and the fallback path compose safely.
func (e *Env) BuildLookups(set *LookupSet, builds []LookupBuild, stats *Stats) error {
	return e.measure(stats, func() error {
		for _, b := range builds {
			if err := e.canceled(); err != nil {
				return err
			}
			grown, err := set.build(e, stats, b.Query, b.Dim, b.ViewLevel)
			if err != nil {
				return err
			}
			stats.PeakMemory += grown
		}
		return nil
	})
}

// build constructs and registers the lookup for dimension dim of q
// against a view column at viewLevel, returning the bytes it reserved
// (0 when an identical lookup was already present). Lookup memory is
// required state, so it is an overdraft grant held until Close.
func (s *LookupSet) build(env *Env, stats *Stats, q *query.Query, dim, viewLevel int) (int64, error) {
	key := lookupKey{dim: dim, viewLevel: viewLevel, sig: q.DimSignature(dim)}
	s.mu.Lock()
	_, ok := s.entries[key]
	s.mu.Unlock()
	if ok {
		return 0, nil
	}
	lk, err := buildLookup(env, stats, q, dim, viewLevel)
	if err != nil {
		return 0, err
	}
	bytes := int64(len(lk.out)) * lookupBytesPerRow
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; ok {
		// Lost a race with a concurrent builder of the same lookup; the
		// duplicate scan's work is already in stats, but no extra memory
		// is held.
		return 0, nil
	}
	s.entries[key] = lk
	s.res.MustGrow(bytes)
	return bytes, nil
}

// get returns the shared lookup for key, or nil.
func (s *LookupSet) get(key lookupKey) *dimLookup {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[key]
}

// Len returns the number of distinct lookups held.
func (s *LookupSet) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Held returns the bytes the set currently reserves.
func (s *LookupSet) Held() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.res.Held()
}

// Close releases the set's memory reservation. Idempotent; call only
// after every pass using the set has finished.
func (s *LookupSet) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.res.Release()
}
