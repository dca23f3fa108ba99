package exec

import (
	"math/bits"

	"mdxopt/internal/bitmap"
	"mdxopt/internal/star"
	"mdxopt/internal/table"
)

// Vectorized index-probe data path.
//
// The shared index star join probes the union bitmap around 64-bit
// words and selection vectors, the same block-at-a-time design as the
// scan-side fold kernel, instead of walking the union bit at a time and
// re-testing every query's bitmap per fetched tuple:
//
//   - maskedWords slices the union bitmap's words covering one data
//     page, masking the page-boundary edge words (pages are not
//     word-aligned: tuples-per-page is set by the tuple size).
//   - expandWords turns those words into a selection vector of
//     page-relative slot numbers, one trailing-zeros step per set bit,
//     which drives table.HeapFile.FetchPage — one pin and one dense
//     decode per page instead of a callback per row.
//   - routeWords routes the fetched batch to one query: a single AND
//     of each union word against the query bitmap's word replaces up
//     to 64 scalar Get calls, and each hit bit's position among the
//     union's set bits (a popcount rank) is exactly its slot in the
//     dense batch.
//
// The counters are the logical per-tuple work, not the instructions:
// the union's per-page popcount is the page's TuplesFetched, each
// attached pipeline is charged that same popcount of BitTests (when the
// pass has more than one pipeline — a single one needs no re-test), and
// each routed selection's length is the pipeline's own TuplesFetched.
// They are closed-form in the bitmaps and identical at every worker
// width.

// maskedWords copies the bitset words covering rows [from, to) into
// dst, masking bits below from in the first word and at/above to in the
// last, and returns the filled slice plus the index of its first word
// in the backing array. from < to required.
func maskedWords(dst []uint64, words []uint64, from, to int64) ([]uint64, int) {
	w0 := int(from / wordBits)
	w1 := int((to - 1) / wordBits)
	dst = dst[:0]
	for wi := w0; wi <= w1; wi++ {
		w := words[wi]
		if wi == w0 {
			w &= ^uint64(0) << (uint(from) % wordBits)
		}
		if wi == w1 {
			if r := uint(to) % wordBits; r != 0 {
				w &= 1<<r - 1
			}
		}
		dst = append(dst, w)
	}
	return dst, w0
}

// wordBits mirrors the bitmap package's word size; the routing kernel
// operates on raw bitset words.
const wordBits = 64

// expandWords appends the set bits of masked words (whose first word
// has index w0 in the backing array) to sel as offsets relative to row
// rel: one trailing-zeros step per set bit, no per-bit closure.
func expandWords(sel []int32, words []uint64, w0 int, rel int64) []int32 {
	base := int64(w0)*wordBits - rel
	for i, w := range words {
		wb := base + int64(i)*wordBits
		for w != 0 {
			t := bits.TrailingZeros64(w)
			sel = append(sel, int32(wb+int64(t)))
			w &= w - 1
		}
	}
	return sel
}

// routeWords routes one page's dense union batch to a single query:
// for each union word the query's hit word is one AND, and each hit
// bit's slot in the batch is its rank among the union word's set bits
// (bits strictly below it) plus the running popcount of the preceding
// words. A word the query covers entirely takes the dense fast path —
// a straight run of slots with no per-bit rank.
func routeWords(sel []int32, uwords []uint64, qwords []uint64, w0 int) []int32 {
	slotBase := int32(0)
	for i, uw := range uwords {
		if uw == 0 {
			continue
		}
		hw := uw & qwords[w0+i]
		pop := int32(bits.OnesCount64(uw))
		if hw == uw {
			for s := int32(0); s < pop; s++ {
				sel = append(sel, slotBase+s)
			}
			slotBase += pop
			continue
		}
		for hw != 0 {
			t := bits.TrailingZeros64(hw)
			rank := int32(bits.OnesCount64(uw & (1<<uint(t) - 1)))
			sel = append(sel, slotBase+rank)
			hw &= hw - 1
		}
		slotBase += pop
	}
	return sel
}

// identitySel appends 0..n-1 to sel: the routing result when a batch
// has a single consumer (no per-query bitmap re-test).
func identitySel(sel []int32, n int) []int32 {
	for i := 0; i < n; i++ {
		sel = append(sel, int32(i))
	}
	return sel
}

// probeShared is the read-only state of one shared index probe: built
// once before the fetch and shared by every worker.
type probeShared struct {
	view      *star.View
	union     *bitmap.Bitset
	bitmaps   []*bitmap.Bitset
	residuals [][]int
	tpp       int64
	rows      int64
}

// probeWorker is one worker's private probe state: its pipeline set,
// the reusable fetch batch, and the routing scratch vectors. All
// buffers are sized to one page, so the steady-state probe loop
// performs no allocation.
type probeWorker struct {
	pipelines []*queryPipeline
	batch     *table.Batch
	uwords    []uint64 // masked union words of the current page
	sel       []int32  // page-relative union slots (drives FetchPage)
	hits      []int32  // per-query routed batch slots
}

// newProbeWorker builds a worker around an existing pipeline set.
func newProbeWorker(view *star.View, pipelines []*queryPipeline) *probeWorker {
	tpp := view.Heap.TuplesPerPage()
	return &probeWorker{
		pipelines: pipelines,
		batch:     view.Heap.MakeBatch(),
		uwords:    make([]uint64, 0, tpp/wordBits+2),
		sel:       make([]int32, 0, tpp),
		hits:      make([]int32, 0, tpp),
	}
}

// probeBufBytes is the broker charge for one probeWorker's buffers:
// the page batch (keys + measures) plus the two selection vectors and
// the masked-word scratch. The plan.Estimator memory model mirrors
// this accounting.
func probeBufBytes(view *star.View) int64 {
	tpp := int64(view.Heap.TuplesPerPage())
	nk := int64(view.Heap.Schema().NumKeys())
	nm := int64(view.Heap.Schema().NumMeasures())
	return tpp*(4*nk+8*nm) + 8*tpp + (tpp/wordBits+2)*8
}

// probePages probes the data pages [fromPage, toPage) of the union:
// per page, mask the union words, expand them to a selection vector,
// fetch the selected rows with one pin, and route the dense batch to
// each attached pipeline with one AND per word. Pages with no union
// bits are skipped without touching the pool or the checkpoint, so an
// empty union never polls.
func (ps *probeShared) probePages(env *Env, w *probeWorker, st *Stats, fromPage, toPage int64) error {
	uw := ps.union.Words()
	for pg := fromPage; pg < toPage; pg++ {
		from := pg * ps.tpp
		to := from + ps.tpp
		if to > ps.rows {
			to = ps.rows
		}
		if from >= to {
			break
		}
		var w0 int
		w.uwords, w0 = maskedWords(w.uwords, uw, from, to)
		w.sel = expandWords(w.sel[:0], w.uwords, w0, from)
		if len(w.sel) == 0 {
			continue
		}
		if err := checkpoint(env, w.pipelines); err != nil {
			return err
		}
		if err := ps.view.Heap.FetchPage(w.batch, pg, w.sel); err != nil {
			return err
		}
		n := int64(len(w.sel))
		st.TuplesFetched += n
		if len(w.pipelines) == 1 {
			p := w.pipelines[0]
			if !p.detached {
				p.own.TuplesFetched += n
				p.foldBatchSel(st, w.batch, identitySel(w.hits[:0], int(n)), ps.residuals[0])
			}
			continue
		}
		for i, p := range w.pipelines {
			if p.detached {
				continue
			}
			st.BitTests += n
			p.own.BitTests += n
			w.hits = routeWords(w.hits[:0], w.uwords, ps.bitmaps[i].Words(), w0)
			p.own.TuplesFetched += int64(len(w.hits))
			if len(w.hits) > 0 {
				p.foldBatchSel(st, w.batch, w.hits, ps.residuals[i])
			}
		}
	}
	return nil
}
