package core

import "math"

// aZeroTol is the threshold below which a factor entry is treated as zero in
// the cached δ computation; dividing the memoized product by such an entry
// would amplify noise, so the paper falls back to the direct product
// (Algorithm 3, note under lines 12/19).
const aZeroTol = 1e-12

// computeDelta fills w.out with the δ(n)_α vector of Eq. (12) for the
// observed entry at coordinates at (entry id alpha, read only by the cache)
// and the given mode: δ(jn) = Σ_{β∈G, βn=jn} Gβ ∏_{k≠n} A(k)[ik][jk]. It
// returns the filled slice (length Jn).
//
// Plain P-Tucker contracts t, the core's fit tree rooted at the mode (see
// coreTree.contract), resuming from w's cursor: about one multiply per core
// entry for a fresh leaf coordinate, and only the upper levels' few when
// the previous entry shared it. P-Tucker-Cache divides the memoized full
// product Pres[α][β] by the mode-n factor entry, O(1) per (α,β) pair (this
// is the entire time-vs-memory trade of the variant).
func (st *state) computeDelta(mode int, t *coreTree, at []int32, alpha int, w *workspace) []float64 {
	g := st.core
	n := g.Order()
	jn := st.cfg.Ranks[mode]
	delta := w.out[:jn]

	rows := w.loadAt(st.factors, at)
	if st.cache == nil {
		t.contract(rows, at, delta, &w.cur)
		return delta
	}

	// Cached path: δ(jn) += Pres[α][e] / A(n)[in][jn], with the direct
	// product as fallback when the factor entry is (numerically) zero.
	clear(delta)
	row := st.cache[alpha*st.cacheW : alpha*st.cacheW+g.NNZ()]
	modeRow := rows[mode]
	for e, p := range row {
		j := g.idx[e*n+mode]
		if a := modeRow[j]; math.Abs(a) > aZeroTol {
			delta[j] += p / a
			continue
		}
		delta[j] += g.entryProduct(e, mode, rows)
	}
	return delta
}

// buildCache (re)computes the Pres table from scratch (Algorithm 3 lines
// 1-4): Pres[α][e] = Gβ(e) · ∏_{k=1..N} A(k)[ik][jk(e)], in parallel over
// observed entries.
func (st *state) buildCache() {
	nnz := st.x.NNZ()
	width := st.core.NNZ()
	if cap(st.cache) < nnz*width {
		st.cache = make([]float64, nnz*width)
	} else {
		st.cache = st.cache[:nnz*width]
	}
	st.cacheW = width

	g := st.core
	scratch := scratchPerThread(g, st.cfg.Threads)
	runIndexed(st.cfg.Threads, ScheduleStatic, 1, nnz, func(tid, alpha int) {
		rows := scratch[tid].load(st.factors, st.x.Index(alpha))
		out := st.cache[alpha*width : (alpha+1)*width]
		for e := range out {
			out[e] = g.entryProduct(e, -1, rows)
		}
	})
}

// rescaleCache updates Pres after A(mode) changed (Algorithm 3 lines 16-19):
// each memoized product is multiplied by new/old of the mode's factor entry.
// When the old entry was (numerically) zero the ratio is undefined and the
// product is recomputed from scratch, mirroring the fallback in computeDelta.
func (st *state) rescaleCache(mode int, oldA interface {
	Row(int) []float64
}) {
	n := st.x.Order()
	g := st.core
	width := st.cacheW
	scratch := scratchPerThread(g, st.cfg.Threads)
	runIndexed(st.cfg.Threads, ScheduleStatic, 1, st.x.NNZ(), func(tid, alpha int) {
		idx := st.x.Index(alpha)
		in := idx[mode]
		oldRow := oldA.Row(in)
		newRow := st.factors[mode].Row(in)
		out := st.cache[alpha*width : alpha*width+g.NNZ()]
		var rows [][]float64
		for e := range out {
			j := g.idx[e*n+mode]
			if oldV := oldRow[j]; math.Abs(oldV) > aZeroTol {
				out[e] *= newRow[j] / oldV
				continue
			}
			// Recompute the full product.
			if rows == nil {
				rows = scratch[tid].load(st.factors, idx)
			}
			out[e] = g.entryProduct(e, -1, rows)
		}
	})
}
