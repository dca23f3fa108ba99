package exec

import (
	"math/bits"

	"mdxopt/internal/bitmap"
	"mdxopt/internal/star"
	"mdxopt/internal/table"
)

// The page loop of the shared operators.
//
// SharedIndex (§3.2) and SharedMixed (§3.3) are one pass over the view's
// data pages that differ only in which slots of a page it selects:
//
//   - the scan regime selects every slot of every page, in page order;
//   - the probe regime selects the union bitmap's set bits, and a page
//     without any is skipped without a pin or a checkpoint.
//
// Per page, the loop builds the selection around 64-bit words and a
// selection vector, pins and decodes the selected slots once
// (table.HeapFile.FetchPage), and folds the dense batch into every root
// through the one fold kernel (foldBatch), each root with its own
// selection of the batch's slots:
//
//   - maskedWords slices the selection's words covering the page,
//     masking the page-boundary edge words (pages are not word-aligned:
//     tuples-per-page is set by the tuple size); the scan regime's
//     words are all ones.
//   - expandWords turns those words into the selection vector of
//     page-relative slot numbers, one trailing-zeros step per set bit.
//   - a hash root selects every slot. Hash roots ride the scan regime
//     only, where the page's selection vector is every slot already.
//   - a filter root routes the batch with routeWords — one AND of each
//     selection word against the root's bitmap word replaces up to 64
//     scalar Get calls, and each hit bit's rank among the selection's
//     set bits is exactly its slot in the dense batch. A root whose
//     bitmap is the selection (a single-root probe) takes the whole
//     batch. Either way its bitmap has proved its indexed predicates,
//     so the kernel tests only its unindexed ones.
//
// The counters are the logical per-tuple work, not the instructions. A
// scanned page's rows are TuplesScanned; each attached hash root is
// charged them as TupleProbes, and each attached filter root that many
// BitTests and its hits as TuplesFetched, pass and own. A probed page's
// selection popcount is the pass's TuplesFetched; each attached root
// that routes is charged that popcount of BitTests and its hits as its
// own TuplesFetched. They are closed-form in the bitmaps and identical
// at every worker width.

// maskedWords copies the bitset words covering rows [from, to) into
// dst, masking bits below from in the first word and at/above to in the
// last, and returns the filled slice plus the index of its first word
// in the backing array. nil words stand for a bitset of all ones. from
// < to required.
func maskedWords(dst []uint64, words []uint64, from, to int64) ([]uint64, int) {
	w0 := int(from / wordBits)
	w1 := int((to - 1) / wordBits)
	dst = dst[:0]
	for wi := w0; wi <= w1; wi++ {
		w := ^uint64(0)
		if words != nil {
			w = words[wi]
		}
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

// routeWords routes one page's dense batch, fetched at the selection
// words uwords, to a single query: for each selection word the query's
// hit word is one AND, and each hit bit's slot in the batch is its rank
// among the selection word's set bits (bits strictly below it) plus the
// running popcount of the preceding words. A word the query covers
// entirely takes the dense fast path — a straight run of slots with no
// per-bit rank — and a selection word that is one run of ones needs no
// popcount per hit.
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
		if lo := uint(bits.TrailingZeros64(uw)); (uw>>lo)&(uw>>lo+1) == 0 {
			// One run of ones from bit lo, as a scanned page's words are:
			// a hit's rank is its offset into the run.
			base := slotBase - int32(lo)
			for hw != 0 {
				sel = append(sel, base+int32(bits.TrailingZeros64(hw)))
				hw &= hw - 1
			}
		} else {
			for hw != 0 {
				t := bits.TrailingZeros64(hw)
				rank := int32(bits.OnesCount64(uw & (1<<uint(t) - 1)))
				sel = append(sel, slotBase+rank)
				hw &= hw - 1
			}
		}
		slotBase += pop
	}
	return sel
}

// identitySel appends 0..n-1 to sel: the scan regime's selection of a
// page of n rows, and the routing result of a root whose bitmap is the
// selection.
func identitySel(sel []int32, n int) []int32 {
	for i := 0; i < n; i++ {
		sel = append(sel, int32(i))
	}
	return sel
}

// pagePass is the read-only state of one shared pass, built before the
// page loop and shared by every worker.
type pagePass struct {
	view *star.View
	// union is the probe regime's selection, the OR of bitmaps (or the
	// single root's bitmap itself); nil selects every slot, the scan
	// regime.
	union *bitmap.Bitset
	// bitmaps holds each root's result bitmap, in root order; nil for a
	// hash root.
	bitmaps   []*bitmap.Bitset
	tpp, rows int64
}

// pageWorker is one worker's private state: its pipeline set (one per
// root, in root order), the reusable page batch, the selection vector
// and the masked-word scratch. All buffers are sized to one page, so
// the steady-state page loop performs no allocation.
type pageWorker struct {
	pipes []*queryPipeline
	batch *table.Batch
	sel   []int32  // the page slots that drive FetchPage
	words []uint64 // the selection's masked words over the current page
	st    Stats    // the worker's work, added to the pass's after the loop
}

func newPageWorker(view *star.View, pipes []*queryPipeline) pageWorker {
	tpp := view.Heap.TuplesPerPage()
	return pageWorker{
		pipes: pipes,
		batch: view.Heap.MakeBatch(),
		sel:   make([]int32, 0, tpp),
		words: make([]uint64, 0, tpp/wordBits+2),
	}
}

// pageBufBytes is the broker charge for one pageWorker's buffers: the
// page batch (keys + measures) plus the selection vector and the
// masked-word scratch. The plan.Estimator memory model mirrors this
// accounting.
func pageBufBytes(view *star.View) int64 {
	tpp := int64(view.Heap.TuplesPerPage())
	nk := int64(view.Heap.Schema().NumKeys())
	nm := int64(view.Heap.Schema().NumMeasures())
	return tpp*(4*nk+8*nm) + 4*tpp + (tpp/wordBits+2)*8
}

// pages runs the page loop over the data pages [fromPage, toPage) for
// worker w.
func (s *pagePass) pages(env *Env, w *pageWorker, fromPage, toPage int64) error {
	st := &w.st
	var uw []uint64
	if s.union != nil {
		uw = s.union.Words()
	}
	for pg := fromPage; pg < toPage; pg++ {
		from := pg * s.tpp
		to := min(from+s.tpp, s.rows)
		var w0 int
		w.words, w0 = maskedWords(w.words, uw, from, to)
		if s.union == nil {
			w.sel = identitySel(w.sel[:0], int(to-from))
		} else if w.sel = expandWords(w.sel[:0], w.words, w0, from); len(w.sel) == 0 {
			continue
		}
		if err := checkpoint(env, w.pipes); err != nil {
			return err
		}
		if err := s.view.Heap.FetchPage(w.batch, pg, w.sel); err != nil {
			return err
		}
		n := int64(len(w.sel))
		if s.union == nil {
			st.TuplesScanned += n
		} else {
			st.TuplesFetched += n
		}
		for i, p := range w.pipes {
			if p.detached {
				continue
			}
			// A filter root routes into its own scratch, leaving w.sel —
			// every slot of a scanned page — to the hash roots.
			sel := w.sel
			switch bm := s.bitmaps[i]; {
			case bm == nil:
				st.TupleProbes += n
				p.own.TupleProbes += n
			case bm == s.union: // the whole batch is its hits
				sel = identitySel(p.selRows[:0], int(n))
				p.own.TuplesFetched += n
			default:
				st.BitTests += n
				p.own.BitTests += n
				sel = routeWords(p.selRows[:0], w.words, bm.Words(), w0)
				if s.union == nil {
					st.TuplesFetched += int64(len(sel))
				}
				p.own.TuplesFetched += int64(len(sel))
			}
			p.foldBatch(st, w.batch, sel)
		}
	}
	return nil
}
