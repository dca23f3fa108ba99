package exec

import (
	"sync"

	"mdxopt/internal/mem"
	"mdxopt/internal/query"
	"mdxopt/internal/star"
)

// LookupSet is a collection of dimension lookups, each built once and
// shared by every pipeline that reads it — §3.1's table sharing. It is
// the one place a pipeline gets its lookups from. The task-graph
// executor hoists every distinct lookup a plan needs into
// per-dimension build nodes and hands the finished set to each class
// pass through Env.Lookups; a pass adds to the set it is given whatever
// its roots still lack, and a pass run on its own builds into a set of
// its own (sharedPass).
//
// Build calls may run concurrently (one build node per dimension, or
// passes of one plan adding what they lack); lookups are immutable once
// registered.
type LookupSet struct {
	mu      sync.Mutex
	entries map[string]*dimLookup // by appendLookupKey
	res     *mem.Reservation
}

// NewLookupSet returns an empty set whose memory is reserved against b
// (nil b runs ungoverned). Close the set when the plan finishes.
func NewLookupSet(b *mem.Broker) *LookupSet {
	return &LookupSet{
		entries: map[string]*dimLookup{},
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
// builders compose safely.
func (e *Env) BuildLookups(set *LookupSet, builds []LookupBuild, stats *Stats) error {
	return e.measure(stats, func() error {
		for _, b := range builds {
			if err := e.canceled(); err != nil {
				return err
			}
			if _, err := set.build(e, stats, b.Query, b.Dim, b.ViewLevel); err != nil {
				return err
			}
		}
		return nil
	})
}

// build returns the lookup for dimension dim of q against a view column
// at viewLevel, constructing and registering it unless an identical one
// is present, and counting the rows and bytes a construction takes into
// stats. Lookup memory is required state, so it is an overdraft grant
// held until Close. A hit allocates nothing: the key is built in a
// stack buffer and copied to the heap only to register a new lookup.
func (s *LookupSet) build(env *Env, stats *Stats, q *query.Query, dim, viewLevel int) (*dimLookup, error) {
	var buf [64]byte
	b := appendLookupKey(buf[:0], q, dim, viewLevel)
	s.mu.Lock()
	lk, ok := s.entries[string(b)]
	s.mu.Unlock()
	if ok {
		return lk, nil
	}
	key := string(b)
	lk, err := buildLookup(env, stats, q, dim, viewLevel)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if won, ok := s.entries[key]; ok {
		// Lost a race with a concurrent builder of the same lookup; the
		// duplicate scan's work is already in stats, but no extra memory
		// is held.
		return won, nil
	}
	s.entries[key] = lk
	bytes := int64(len(lk.out)) * lookupBytesPerRow
	s.res.MustGrow(bytes)
	stats.PeakMemory += bytes
	return lk, nil
}

// lookups returns q's lookups against view, one per dimension, building
// into s those it does not hold yet and counting that work into stats as
// BuildLookups does; the wall time and I/O are the calling pass's to
// measure.
func (s *LookupSet) lookups(env *Env, stats *Stats, q *query.Query, view *star.View) ([]*dimLookup, error) {
	lks := make([]*dimLookup, len(view.Levels))
	for dim, level := range view.Levels {
		lk, err := s.build(env, stats, q, dim, level)
		if err != nil {
			return nil, err
		}
		lks[dim] = lk
	}
	return lks, nil
}

// Len returns the number of distinct lookups held.
func (s *LookupSet) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Close releases the set's memory reservation. Idempotent; call only
// after every pass using the set has finished.
func (s *LookupSet) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.res.Release()
}
