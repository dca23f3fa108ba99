package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mdxopt"
	"mdxopt/internal/exec"
	"mdxopt/internal/mdx"
	"mdxopt/internal/query"
	"mdxopt/internal/star"
)

// Answers are compared by digest. A digest is the sum of one FNV-1a
// hash per component query (group-by name, aggregate, then every row's
// member names and value bits in the order given), so it does not
// depend on the order of the queries, which follows the order of the
// axes in the text, and does depend on the order of the rows, which the
// engine promises to be the oracle's.

type fnv uint64

const fnvOffset fnv = 14695981039346656037

func (h *fnv) byte(b byte) { *h = (*h ^ fnv(b)) * 1099511628211 }

func (h *fnv) str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
	h.byte(0xff) // terminator: no member name contains it
}

func (h *fnv) f64(v float64) {
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		h.byte(byte(bits >> (8 * i)))
	}
}

// digestAnswer digests what the facade returned. It allocates nothing,
// so that the allocation counts of the timed phase are the engine's.
func digestAnswer(ans *mdxopt.Answer) uint64 {
	var sum uint64
	for i := range ans.Queries {
		qr := &ans.Queries[i]
		h := fnvOffset
		h.str(qr.GroupBy)
		h.str(qr.Aggregate)
		for j := range qr.Rows {
			for _, m := range qr.Rows[j].Members {
				h.str(m)
			}
			h.f64(qr.Rows[j].Value)
		}
		sum += uint64(h)
	}
	return sum
}

// digestGroups digests an oracle result the way the facade would have
// formatted it: member names of the grouped dimensions, in schema order.
func digestGroups(q *query.Query, groups []exec.Group) uint64 {
	h := fnvOffset
	h.str(q.GroupByName())
	h.str(q.Agg.String())
	for _, g := range groups {
		for d, l := range q.Levels {
			if dim := q.Schema.Dims[d]; l != dim.AllLevel() {
				h.str(dim.MemberName(l, g.Keys[d]))
			}
		}
		h.f64(g.Value)
	}
	return uint64(h)
}

// oracle answers expressions with exec.Naive, the engine's reference
// evaluator (one straight scan of the base table per query), memoised
// by query signature because the streams repeat queries.
type oracle struct {
	env  *exec.Env
	memo map[string][]exec.Group
}

func newOracle(db star.Catalog) *oracle {
	return &oracle{env: exec.NewEnv(db), memo: map[string][]exec.Group{}}
}

func (o *oracle) translate(text string) ([]*query.Query, error) {
	return mdx.ParseAndTranslate(o.env.DB.Schema, text)
}

func (o *oracle) groups(q *query.Query) ([]exec.Group, error) {
	sig := q.Signature()
	if g, ok := o.memo[sig]; ok {
		return g, nil
	}
	r, err := exec.Naive(o.env, q)
	if err != nil {
		return nil, err
	}
	o.memo[sig] = r.Groups
	return r.Groups, nil
}

// digest is the reference digest of an expression.
func (o *oracle) digest(text string) (uint64, error) {
	queries, err := o.translate(text)
	if err != nil {
		return 0, err
	}
	var sum uint64
	for _, q := range queries {
		g, err := o.groups(q)
		if err != nil {
			return 0, err
		}
		sum += digestGroups(q, g)
	}
	return sum, nil
}

// fact is one loaded row (maint_mixed keeps what it loaded, to know
// what the answers must be after each load).
type fact struct {
	keys    [4]int32
	measure float64
}

// groupAcc is one query's oracle result with rows folded in after the
// oracle ran: SUM is additive, so the answer after a load is the
// oracle's groups plus the loaded rows' own.
type groupAcc struct {
	q    *query.Query
	sets [][]bool
	sums map[string]*exec.Group
}

func keyBytes(keys []int32) string {
	var b [16]byte
	for d, k := range keys {
		b[4*d], b[4*d+1], b[4*d+2], b[4*d+3] = byte(k), byte(k>>8), byte(k>>16), byte(k>>24)
	}
	return string(b[:4*len(keys)])
}

func newGroupAcc(q *query.Query, base []exec.Group) *groupAcc {
	a := &groupAcc{q: q, sets: make([][]bool, len(q.Levels)), sums: make(map[string]*exec.Group, len(base))}
	for d := range a.sets {
		a.sets[d] = q.MemberSet(d)
	}
	for i := range base {
		g := base[i]
		a.sums[keyBytes(g.Keys)] = &g
	}
	return a
}

// add folds rows in the way exec.Naive would have seen them: rolled up
// to the query's levels and filtered by its predicates.
func (a *groupAcc) add(rows []fact) {
next:
	for _, r := range rows {
		keys := make([]int32, len(a.q.Levels))
		for d := range keys {
			keys[d] = a.q.Schema.Dims[d].RollUp(r.keys[d], 0, a.q.Levels[d])
			if a.sets[d] != nil && !a.sets[d][keys[d]] {
				continue next
			}
		}
		k := keyBytes(keys)
		if g, ok := a.sums[k]; ok {
			g.Value += r.measure
		} else {
			a.sums[k] = &exec.Group{Keys: keys, Value: r.measure}
		}
	}
}

// groups lists the accumulated groups in the oracle's order: by the
// little-endian bytes of the key.
func (a *groupAcc) groups() []exec.Group {
	order := make([]string, 0, len(a.sums))
	for k := range a.sums {
		order = append(order, k)
	}
	sort.Strings(order)
	out := make([]exec.Group, len(order))
	for i, k := range order {
		out[i] = *a.sums[k]
	}
	return out
}

// digestsAfterLoads gives the reference digest of an expression after
// each load count in need, where load k appended loads[k-1] to the base
// table the oracle saw.
func (o *oracle) digestsAfterLoads(text string, loads [][]fact, need []bool) ([]uint64, error) {
	queries, err := o.translate(text)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(need))
	for _, q := range queries {
		if q.Agg != query.Sum {
			return nil, fmt.Errorf("bench: %s is not additive", q.Agg)
		}
		base, err := o.groups(q)
		if err != nil {
			return nil, err
		}
		acc := newGroupAcc(q, base)
		for k := range need {
			if k > 0 {
				acc.add(loads[k-1])
			}
			if need[k] {
				out[k] += digestGroups(q, acc.groups())
			}
		}
	}
	return out, nil
}

// checks counts what the benchmark attempted and what failed: engine
// errors, wrong answers, and the leak and reopen checks.
type checks struct {
	attempted, failed int
	firstFailure      string
}

func (c *checks) ok(cond bool, format string, args ...any) {
	c.attempted++
	if !cond {
		c.failed++
		if c.firstFailure == "" {
			c.firstFailure = fmt.Sprintf(format, args...)
		}
	}
}

// leakedFiles lists heap and index files in a closed database directory
// that its manifest does not name (side files of an interrupted or
// unreclaimed mutation), and anything left in the spill directory.
func leakedFiles(dir, spillDir string) ([]string, error) {
	blob, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, err
	}
	var meta struct {
		DimTables []string `json:"dim_tables"`
		Views     []struct {
			File    string            `json:"file"`
			Indexes map[string]string `json:"indexes"`
		} `json:"views"`
	}
	if err := json.Unmarshal(blob, &meta); err != nil {
		return nil, err
	}
	named := map[string]bool{}
	for _, f := range meta.DimTables {
		named[f] = true
	}
	for _, v := range meta.Views {
		named[v.File] = true
		for _, f := range v.Indexes {
			named[f] = true
		}
	}
	var leaked []string
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		n := e.Name()
		if (strings.HasSuffix(n, ".heap") || strings.HasSuffix(n, ".bmx")) && !named[n] {
			leaked = append(leaked, n)
		}
	}
	spills, err := os.ReadDir(spillDir)
	if err != nil {
		return nil, err
	}
	for _, e := range spills {
		leaked = append(leaked, filepath.Join("spill", e.Name()))
	}
	return leaked, nil
}

// dirBytes is the total size of the regular files directly in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}
