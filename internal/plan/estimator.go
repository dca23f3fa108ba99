package plan

import (
	"fmt"
	"math"

	"mdxopt/internal/cost"
	"mdxopt/internal/query"
	"mdxopt/internal/rescache"
	"mdxopt/internal/star"
)

// Estimator prices plans with the §5.1 cost model. All estimates are in
// simulated microseconds (see internal/cost).
type Estimator struct {
	DB    *star.Snapshot
	Model *cost.Model
	// FilterConversion allows scan-regime class members with usable
	// indexes to run as bitmap filters over the shared scan (§3.3's
	// conversion) even when a standalone plan would choose the hash
	// join. On by default; paper mode disables it because the paper
	// applies the conversion only when merging an index *local plan*
	// into a scan, never as a first-class plan choice.
	FilterConversion bool
	// UseStats estimates selectivities from measured base-table member
	// frequencies (star.Database.Stats) instead of the uniform
	// assumption, when statistics are available. On by default; the
	// skew ablation disables it.
	UseStats bool
	// VectorIndex prices the vectorized index-probe data path (exec's
	// route.go): bitmap routing is one word AND per 64 tuples instead of
	// a scalar test per tuple, so the scan-regime filter term and the
	// probe-regime re-test term are charged per bitmap word rather than
	// per tuple. On for the full model; paper mode keeps the per-tuple
	// pricing so Tests 4–7 reproduce the paper's plan choices.
	VectorIndex bool
	// CostEvals counts cost-model evaluations (StandaloneCost and
	// ClassCost calls) — the "number of global plans searched" currency
	// of the paper's §8 time/space trade-off discussion.
	CostEvals int64
	// Workers is the effective worker-pool width execution will run
	// under (core.ExecOptions.Workers after clamping). The memory model
	// multiplies scan-side aggregation-table footprints by the
	// per-worker copies (see foldTableCopies), so admission keeps the
	// broker's peak within budget when shared scans fan out into
	// morsels. Zero or one prices the serial pass. Cost estimates are
	// unaffected — the pool changes wall-clock, not work.
	Workers int
	// Cache, when non-nil, is the semantic result cache the optimizers
	// consult before costing star-join plans: a query answerable from a
	// cached entry gains a zero-IO rollup candidate (CacheCandidate)
	// priced against the shared scans, so sharing still wins when it is
	// cheaper for the batch as a whole. Gen is the database generation
	// entries must match.
	Cache *rescache.Cache
	Gen   uint64
}

// NewEstimator returns the full-model estimator with the §3.3 filter
// conversion enabled. Its plan space is a strict superset of the
// paper's and finds plans the paper's optimizer cannot.
func NewEstimator(db star.Catalog) *Estimator {
	return &Estimator{DB: db.Snapshot(), Model: cost.Default(), FilterConversion: true, UseStats: true, VectorIndex: true}
}

// NewPaperEstimator returns an estimator confined to the paper's plan
// space: random-probe pricing and no standalone filter conversion. The
// Table 2 experiments (Tests 4–7) use it to reproduce the paper's
// algorithm comparison; the extension benchmarks compare it against the
// full model.
func NewPaperEstimator(db star.Catalog) *Estimator {
	return &Estimator{DB: db.Snapshot(), Model: cost.Default(), UseStats: true}
}

// Feasible reports whether method m can evaluate q from view v: the view
// must support the query (derive its group-by, be fresh, and carry the
// aggregate information the query needs), and an index star join
// additionally needs a bitmap join index on at least one restricted
// dimension.
func (e *Estimator) Feasible(q *query.Query, v *star.View, m Method) bool {
	if !q.SupportedBy(e.DB, v) {
		return false
	}
	if m == IndexSJ {
		return e.hasUsableIndex(q, v)
	}
	return true
}

func (e *Estimator) hasUsableIndex(q *query.Query, v *star.View) bool {
	for _, dim := range q.RestrictedDims() {
		if v.HasIndex(dim) {
			return true
		}
	}
	return false
}

// dimSel estimates dimension dim's predicate selectivity, from measured
// member frequencies when available and enabled, otherwise uniformly.
func (e *Estimator) dimSel(q *query.Query, dim int) float64 {
	p := q.Preds[dim]
	if !p.IsRestricted() {
		return 1
	}
	if e.UseStats && e.DB.Stats != nil {
		return e.DB.Stats.Frac(e.DB.Schema.Dims[dim], dim, q.Levels[dim], p.Members)
	}
	return q.DimSelectivity(dim)
}

// selRows estimates the number of view rows satisfying all of q's
// predicates.
func (e *Estimator) selRows(q *query.Query, v *star.View) float64 {
	s := 1.0
	for dim := range q.Preds {
		s *= e.dimSel(q, dim)
	}
	return float64(v.Rows()) * s
}

// indexedSelRows estimates the rows selected by the result bitmap alone:
// the product of selectivities over the *indexed* restricted dimensions
// (residual predicates are applied after the fetch).
func (e *Estimator) indexedSelRows(q *query.Query, v *star.View) float64 {
	s := 1.0
	for _, dim := range q.RestrictedDims() {
		if v.HasIndex(dim) {
			s *= e.dimSel(q, dim)
		}
	}
	return float64(v.Rows()) * s
}

// buildCost prices the dimension lookup builds for one query: scanning
// each dimension table and inserting its rows.
func (e *Estimator) buildCost(q *query.Query) float64 {
	m := e.Model
	var c float64
	for dim := range q.Schema.Dims {
		h := e.DB.DimTables[dim]
		c += m.ScanIO(h.DataPages()) + m.BuildCPU*float64(h.Count())
	}
	return c
}

// bitmapCost prices building q's result bitmap on v: reading the
// per-member bitmaps of each indexed restricted dimension and the
// OR/AND word operations.
func (e *Estimator) bitmapCost(q *query.Query, v *star.View) float64 {
	m := e.Model
	words := float64((v.Rows() + 63) / 64)
	var c float64
	indexedDims := 0
	for _, dim := range q.RestrictedDims() {
		ix := v.Indexes[dim]
		if ix == nil {
			continue
		}
		indexedDims++
		nBitmaps := float64(len(q.ViewPredicate(dim, v.Levels[dim])))
		pages := nBitmaps * float64(ix.PagesPerBitmap())
		// One seek per dimension's index, then sequential bitmap pages.
		c += m.RandPage + m.SeqPage*pages + m.BitmapWord*nBitmaps*words
	}
	if indexedDims > 1 {
		c += m.BitmapWord * words * float64(indexedDims-1) // ANDs
	}
	return c
}

// probeIO prices fetching k selected rows from v: views are stored
// unclustered, so the touched pages (Yao's estimate) are random reads.
func (e *Estimator) probeIO(v *star.View, k float64) float64 {
	return e.Model.RandPage * cost.YaoPages(v.Rows(), v.Pages(), int64(k))
}

// StandaloneCost estimates the cost of evaluating q alone from v with m.
// It returns +Inf when infeasible.
func (e *Estimator) StandaloneCost(q *query.Query, v *star.View, m Method) float64 {
	e.CostEvals++
	if !e.Feasible(q, v, m) {
		return math.Inf(1)
	}
	mod := e.Model
	c := e.buildCost(q)
	switch m {
	case HashSJ:
		c += mod.ScanIO(v.Pages())
		c += mod.TupleCPU * float64(v.Rows())
		c += mod.AggCPU * e.selRows(q, v)
	case IndexSJ:
		c += e.bitmapCost(q, v)
		k := e.indexedSelRows(q, v)
		c += e.probeIO(v, k)
		c += mod.FetchCPU * k
		c += mod.AggCPU * e.selRows(q, v)
	}
	return c
}

// BestMethod returns the cheaper feasible method for q on v and its
// standalone cost; ok is false when neither method is feasible.
func (e *Estimator) BestMethod(q *query.Query, v *star.View) (Method, float64, bool) {
	hc := e.StandaloneCost(q, v, HashSJ)
	ic := e.StandaloneCost(q, v, IndexSJ)
	if math.IsInf(hc, 1) && math.IsInf(ic, 1) {
		return HashSJ, hc, false
	}
	if ic < hc {
		return IndexSJ, ic, true
	}
	return HashSJ, hc, true
}

// BestLocal returns the cheapest local plan for q over the given views.
func (e *Estimator) BestLocal(q *query.Query, views []*star.View) (*Local, float64, error) {
	var best *Local
	bestCost := math.Inf(1)
	for _, v := range views {
		m, c, ok := e.BestMethod(q, v)
		if !ok {
			continue
		}
		if c < bestCost {
			best = &Local{Query: q, View: v, Method: m}
			bestCost = c
		}
	}
	if best == nil {
		return nil, 0, fmt.Errorf("plan: no view can answer %s", q)
	}
	return best, bestCost, nil
}

// ClassCost prices a class under the shared-operator execution model and
// assigns each member plan the method that minimizes the class total.
// The two execution regimes of §3 are compared:
//
//	scan regime (SharedScanHash / SharedMixed): one sequential scan of
//	the base view is shared; hash members pay per-tuple probe CPU, index
//	members pay bitmap construction plus per-tuple filter tests, and
//	their probe I/O is absorbed by the scan (§3.3).
//
//	probe regime (SharedIndex): feasible when every member that takes
//	tuples is index-feasible; the union bitmap is probed once (§3.2).
//
// In both, a member derivable from a classmate is priced as a rollup of
// that classmate's groups instead (shared aggregation).
//
// The returned cost is +Inf when some member cannot run on the class's
// view at all. Methods on the plans are updated in place.
func (e *Estimator) ClassCost(c *Class) float64 {
	e.CostEvals++
	if len(c.Plans) == 0 {
		return 0
	}
	mod := e.Model
	v := c.View
	for _, p := range c.Plans {
		if !p.Query.SupportedBy(e.DB, v) {
			return math.Inf(1)
		}
	}
	words := float64((v.Rows() + 63) / 64)

	// Shared aggregation: a member derived from a classmate (the forest
	// the operators build, query.Forest) takes no tuples in either
	// regime — it costs one rollup-and-fold per group of its parent, no
	// lookups, no bitmap.
	parents := query.Forest(c.Queries())
	derived := func(i int) float64 {
		return (mod.TupleCPU + mod.AggCPU) * e.groupEstimate(c.Plans[parents[i]].Query, v)
	}

	// Scan regime: per-plan marginal cost on top of the shared scan.
	scanShared := mod.ScanIO(v.Pages())
	scanTotal := scanShared
	scanMethods := make([]Method, len(c.Plans))
	for i, p := range c.Plans {
		if parents[i] >= 0 {
			scanMethods[i] = HashSJ
			scanTotal += derived(i)
			continue
		}
		q := p.Query
		hashCPU := e.buildCost(q) + mod.TupleCPU*float64(v.Rows()) + mod.AggCPU*e.selRows(q, v)
		indexCPU := math.Inf(1)
		if e.FilterConversion && e.hasUsableIndex(q, v) {
			k := e.indexedSelRows(q, v)
			// The bitmap-filter test over the scanned stream: per tuple
			// scalar, per 64-tuple word vectorized.
			filter := mod.BitTest * float64(v.Rows())
			if e.VectorIndex {
				filter = mod.BitmapWord * words
			}
			indexCPU = e.buildCost(q) + e.bitmapCost(q, v) +
				filter + mod.FetchCPU*k + mod.AggCPU*e.selRows(q, v)
		}
		if indexCPU < hashCPU {
			scanMethods[i] = IndexSJ
			scanTotal += indexCPU
		} else {
			scanMethods[i] = HashSJ
			scanTotal += hashCPU
		}
	}

	// Probe regime: all roots via the shared index join.
	probeTotal := math.Inf(1)
	allIndex := true
	roots := 0
	for i, p := range c.Plans {
		if parents[i] >= 0 {
			continue
		}
		roots++
		if !e.hasUsableIndex(p.Query, v) {
			allIndex = false
			break
		}
	}
	if allIndex {
		// Union selectivity: 1 - prod(1 - sel_i).
		miss := 1.0
		probeTotal = 0
		for i, p := range c.Plans {
			if parents[i] >= 0 {
				probeTotal += derived(i)
				continue
			}
			q := p.Query
			k := e.indexedSelRows(q, v)
			sel := k / float64(v.Rows())
			miss *= 1 - sel
			probeTotal += e.buildCost(q) + e.bitmapCost(q, v) +
				mod.FetchCPU*k + mod.AggCPU*e.selRows(q, v)
		}
		unionRows := float64(v.Rows()) * (1 - miss)
		if roots > 1 {
			// OR-ing the per-query bitmaps, then routing each fetched
			// tuple to its queries: a scalar bitmap test per fetched
			// tuple per query, or — vectorized — one word AND per union
			// word per query.
			probeTotal += mod.BitmapWord * words * float64(roots-1)
			if e.VectorIndex {
				probeTotal += mod.BitmapWord * words * float64(roots)
			} else {
				probeTotal += mod.BitTest * unionRows * float64(roots)
			}
		}
		probeTotal += e.probeIO(v, unionRows)
	}

	if probeTotal < scanTotal {
		c.Regime = ProbeRegime
		for _, p := range c.Plans {
			p.Method = IndexSJ
		}
		return probeTotal
	}
	c.Regime = ScanRegime
	for i, p := range c.Plans {
		p.Method = scanMethods[i]
	}
	return scanTotal
}

// GlobalCost prices a global plan (assigning methods as a side effect).
func (e *Estimator) GlobalCost(g *Global) float64 {
	var total float64
	for _, c := range g.Classes {
		total += e.ClassCost(c)
	}
	for _, cp := range g.Cached {
		total += e.CacheCost(cp.Entry)
	}
	return total
}

// CacheCost prices answering a query by rollup from the cached entry:
// no I/O, one rollup-and-filter step per cached row plus re-aggregation.
// Every row is priced as qualifying — an upper bound that errs toward
// the shared scans, and still orders of magnitude below any page read.
func (e *Estimator) CacheCost(ent *rescache.Entry) float64 {
	e.CostEvals++
	return (e.Model.TupleCPU + e.Model.AggCPU) * float64(len(ent.Rows))
}

// CacheCandidate returns the cheapest cache entry that can answer q at
// the estimator's generation, with its rollup cost; ok is false when
// the cache is off or holds no answering entry.
func (e *Estimator) CacheCandidate(q *query.Query) (ent *rescache.Entry, cost float64, ok bool) {
	if e.Cache == nil {
		return nil, math.Inf(1), false
	}
	ent = e.Cache.Probe(q, e.Gen)
	if ent == nil {
		return nil, math.Inf(1), false
	}
	return ent, e.CacheCost(ent), true
}

// CostOfAdd returns the marginal cost of adding q to class c, keeping
// c's base view: Cost(c ∪ q) - Cost(c). This is the paper's
// CostOfUsing(B) for a shared base table (§5.1): the query's own CPU and
// I/O plus the change in the class's shared I/O.
func (e *Estimator) CostOfAdd(c *Class, q *query.Query) float64 {
	if !q.AnswerableFrom(c.View.Levels) {
		return math.Inf(1)
	}
	before := e.ClassCost(c)
	trial := &Class{View: c.View, Plans: append(append([]*Local(nil), c.Plans...), &Local{Query: q, View: c.View})}
	after := e.ClassCost(trial)
	return after - before
}
