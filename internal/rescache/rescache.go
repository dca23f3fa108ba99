// Package rescache is an in-memory semantic cache of finished
// aggregation results. Where the plan cache memoizes *how* to answer an
// expression, this cache keeps the answers themselves: each entry is one
// query's result rows keyed by the query's semantics (group-by levels,
// predicate signature, aggregate) and the database generation it was
// computed at. A later query — not necessarily the same one — can be
// served by rolling a cached entry up the dimension lattice whenever the
// entry's group-by derives the query's and the entry's predicates
// subsume it, which costs CPU over a few thousand rows instead of page
// I/O over a base view (see exec.RollupCached).
//
// The cache's memory is reserved through the mem.Broker the rest of the
// engine's operator state lives under, bounded additionally by its own
// budget. When either bound denies growth, entries are evicted by
// cost-weighted LRU (GreedyDual-Size: each entry carries a priority
// L + cost/bytes refreshed on use; the minimum is evicted and its
// priority inflates L, so recency, recompute cost and footprint all
// weigh in). The cache never spills — a dropped entry just means the
// query re-executes. Mutations invalidate everything via the same
// generation counter that guards the plan cache.
//
// AVG results are never cached: AVG is not decomposable from final
// values alone (rolling up would need the underlying counts), so only
// SUM/COUNT/MIN/MAX entries — whose finals merge exactly by +/min/max —
// are admitted.
package rescache

import (
	"sync"

	"mdxopt/internal/mem"
	"mdxopt/internal/query"
)

// Row is one cached result group: member codes at the entry's levels
// (one per dimension, aggregated-out dimensions hold code 0) and the
// final aggregate value.
type Row struct {
	Keys  []int32
	Value float64
}

// Entry is one cached result. All fields are immutable after insertion;
// eviction only drops the cache's reference, so an executing rollup (or
// a cached plan) holding the entry keeps reading valid data.
type Entry struct {
	// Name is the entry's group-by in the paper's notation, for plan
	// display ("cache (q1 <= A'B''C''D'' ...)").
	Name   string
	Levels []int
	Preds  []query.Predicate
	Agg    query.Agg
	// Gen is the database generation the result was computed at; the
	// entry answers nothing once the database mutates past it.
	Gen  uint64
	Rows []Row
	// Bytes is the entry's accounted footprint.
	Bytes int64

	key  string  // semantic signature (query.Signature)
	cost float64 // estimated recompute cost, for eviction weighting
	pri  float64 // GreedyDual-Size priority; guarded by the cache mutex
}

// Answers reports whether the entry can compute q at generation gen:
// the generation matches, the aggregate is not AVG (the rows are final
// values, without the counts a rollup would need) and q is derivable
// from the entry's group-by, predicates and aggregate
// (query.DerivableFrom — the rule the shared operators apply between
// classmates).
func (e *Entry) Answers(q *query.Query, gen uint64) bool {
	return e.Gen == gen && q.Agg != query.Avg && q.DerivableFrom(e.Levels, e.Preds, e.Agg)
}

// Stats is a snapshot of the cache's accounting.
type Stats struct {
	Budget    int64 // configured byte budget
	Bytes     int64 // bytes currently held
	Entries   int   // entries currently held
	Hits      int64 // queries served by rollup from an entry
	Misses    int64 // queries that executed despite the cache being on
	Evictions int64 // entries evicted for space
	Inserts   int64 // entries admitted
	Rejected  int64 // results not admitted (oversize, or eviction could not make room)
}

// Cache is the semantic result cache. A nil *Cache is valid and
// permanently empty — every method no-ops — so callers can leave it
// unconfigured. All methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	res     *mem.Reservation
	entries map[string]*Entry
	bytes   int64
	inflate float64 // GreedyDual's L: the last evicted priority
	epoch   uint64

	hits, misses, evictions, inserts, rejected int64
}

// New builds a cache with the given byte budget, reserving its memory
// from broker (which may be nil for an untracked cache).
func New(budget int64, broker *mem.Broker) *Cache {
	return &Cache{
		budget:  budget,
		res:     broker.Reserve("rescache"),
		entries: make(map[string]*Entry),
	}
}

// Epoch identifies the cache's contents: it advances on every insert,
// eviction and invalidation. The plan caches store the epoch their
// plans were built against, so a plan that pre- or post-dates a content
// change is rebuilt rather than reused — otherwise a plan built before
// a result was cached would keep re-scanning forever.
func (c *Cache) Epoch() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Probe returns the entry that answers q at generation gen with the
// fewest rows (the cheapest rollup), or nil. It is read-only: recency
// is bumped by Touch when a plan actually executes the rollup, and the
// hit/miss counters belong to execution, not planning.
func (c *Cache) Probe(q *query.Query, gen uint64) *Entry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *Entry
	for _, e := range c.entries {
		if !e.Answers(q, gen) {
			continue
		}
		if best == nil || len(e.Rows) < len(best.Rows) ||
			(len(e.Rows) == len(best.Rows) && e.key < best.key) {
			best = e
		}
	}
	return best
}

// entryOverhead and rowOverhead approximate an entry's bookkeeping
// beyond the raw key and value bytes (struct, slice headers, map
// bucket share).
const (
	entryOverhead = 160
	rowOverhead   = 32
)

// EntryBytes is the accounted footprint of a result with rows groups
// over nd dimensions.
func EntryBytes(rows, nd int) int64 {
	return entryOverhead + int64(rows)*int64(rowOverhead+4*nd)
}

// Put admits one finished result computed at generation gen. rows must
// be final values at q's levels in result order; costMicros is the
// estimated cost of recomputing the result (its eviction weight). It
// returns how many entries were evicted to make room. Results are
// silently rejected when the cache is nil or unbudgeted, the aggregate
// is AVG, the entry alone exceeds the budget, an equal-semantics entry
// already exists, or eviction cannot free enough admitted-by-the-broker
// space.
func (c *Cache) Put(q *query.Query, gen uint64, rows []Row, costMicros float64) (evicted int64) {
	if c == nil || c.budget <= 0 || q.Agg == query.Avg {
		return 0
	}
	bytes := EntryBytes(len(rows), len(q.Schema.Dims))
	c.mu.Lock()
	defer c.mu.Unlock()
	if bytes > c.budget {
		c.rejected++
		return 0
	}
	key := q.Signature()
	if old, ok := c.entries[key]; ok {
		if old.Gen >= gen {
			// Same semantics at the same (or a newer) generation: the
			// resident entry is at least as fresh, so refresh recency and
			// keep it (at equal generations the rows are identical).
			old.pri = c.inflate + old.cost/float64(old.Bytes)
			return 0
		}
		// The resident entry predates gen (defensive — mutations
		// invalidate wholesale): release it before inserting.
		delete(c.entries, key)
		c.bytes -= old.Bytes
		c.res.Shrink(old.Bytes)
		c.epoch++
	}
	for c.bytes+bytes > c.budget {
		if !c.evictOne() {
			c.rejected++
			return evicted
		}
		evicted++
	}
	for !c.res.TryGrow(bytes) {
		if !c.evictOne() {
			c.rejected++
			return evicted
		}
		evicted++
	}
	e := &Entry{
		Name:   q.GroupByName(),
		Levels: append([]int(nil), q.Levels...),
		Preds:  append([]query.Predicate(nil), q.Preds...),
		Agg:    q.Agg,
		Gen:    gen,
		Rows:   rows,
		Bytes:  bytes,
		key:    key,
		cost:   costMicros,
	}
	e.pri = c.inflate + e.cost/float64(e.Bytes)
	c.entries[key] = e
	c.bytes += bytes
	c.inserts++
	c.epoch++
	return evicted
}

// evictOne removes the minimum-priority entry (cost-weighted LRU) and
// inflates the GreedyDual floor to its priority. Reports false when the
// cache is already empty.
func (c *Cache) evictOne() bool {
	var victim *Entry
	for _, e := range c.entries {
		if victim == nil || e.pri < victim.pri ||
			(e.pri == victim.pri && e.key < victim.key) {
			victim = e
		}
	}
	if victim == nil {
		return false
	}
	delete(c.entries, victim.key)
	c.bytes -= victim.Bytes
	c.res.Shrink(victim.Bytes)
	if victim.pri > c.inflate {
		c.inflate = victim.pri
	}
	c.evictions++
	c.epoch++
	return true
}

// Touch refreshes an entry's eviction priority after a plan executed a
// rollup from it. Touching an already-evicted entry is harmless.
func (c *Cache) Touch(e *Entry) {
	if c == nil || e == nil {
		return
	}
	c.mu.Lock()
	e.pri = c.inflate + e.cost/float64(e.Bytes)
	c.mu.Unlock()
}

// RecordHits counts n queries served from the cache.
func (c *Cache) RecordHits(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.mu.Lock()
	c.hits += n
	c.mu.Unlock()
}

// RecordMisses counts n queries that executed without the cache.
func (c *Cache) RecordMisses(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.mu.Lock()
	c.misses += n
	c.mu.Unlock()
}

// Invalidate drops every entry after a database mutation and returns
// the reserved memory to the broker.
func (c *Cache) Invalidate() {
	if c == nil {
		return
	}
	c.mu.Lock()
	if len(c.entries) > 0 {
		c.entries = make(map[string]*Entry)
		c.res.Shrink(c.bytes)
		c.bytes = 0
		c.epoch++
	}
	c.mu.Unlock()
}

// Stats snapshots the cache's accounting. A nil cache reports zeros.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Budget:    c.budget,
		Bytes:     c.bytes,
		Entries:   len(c.entries),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Inserts:   c.inserts,
		Rejected:  c.rejected,
	}
}
