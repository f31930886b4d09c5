package core

import (
	"sort"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// PartialErrors computes R(β) (Eq. 13) for every live core entry: the change
// in squared reconstruction error attributable to β, i.e. error-with-β minus
// error-without-β. Positive R(β) means the entry hurts the fit ("noisy");
// the largest values are the truncation candidates of Algorithm 4, and the
// distribution of R(β) is what Figure 5 plots.
//
// Using pβ(α) = Gβ·∏_n A(n)[in][jn] and full(α) = Σ_γ pγ(α), Eq. 13
// simplifies to R(β) = Σ_α pβ(α)·(2·(full(α) - Xα) - pβ(α)), which is what
// the inner loop evaluates. Cost is O(|Ω|·|G|·N), computed in parallel with
// per-thread accumulators.
func PartialErrors(st *state) []float64 {
	x := st.x
	g := st.core
	width := g.NNZ()
	threads := max(st.cfg.Threads, 1)

	acc := make([][]float64, threads)
	for t := range acc {
		acc[t] = make([]float64, width)
	}
	scratch := scratchPerThread(g, threads)
	prodBuf := make([]float64, threads*width) // each thread's per-entry products
	runIndexed(threads, ScheduleStatic, 1, x.NNZ(), func(tid, alpha int) {
		s := scratch[tid]
		rows := s.load(st.factors, x.Index(alpha))
		prods := prodBuf[tid*width : (tid+1)*width]
		var full float64
		if st.cache != nil {
			cacheRow := st.cache[alpha*st.cacheW : alpha*st.cacheW+width]
			copy(prods, cacheRow)
			for _, p := range prods {
				full += p
			}
		} else {
			for e := range prods {
				p := g.entryProduct(e, -1, rows)
				prods[e] = p
				full += p
			}
		}
		xv := x.Value(alpha)
		out := acc[tid]
		for e, p := range prods {
			out[e] += p * (2*(full-xv) - p)
		}
	})

	r := make([]float64, width)
	for _, part := range acc {
		for e, v := range part {
			r[e] += v
		}
	}
	return r
}

// truncateCore removes the top-p fraction of live core entries ranked by
// R(β) descending (Algorithm 4). At least one entry always survives so the
// model never degenerates to the empty sum.
func (st *state) truncateCore() {
	g := st.core
	width := g.NNZ()
	if width <= 1 {
		return
	}
	r := PartialErrors(st)

	k := int(st.cfg.TruncationRate * float64(width))
	if k <= 0 {
		return
	}
	if k >= width {
		k = width - 1
	}

	g.RemoveEntries(dropFirst(rankByPartialError(r), k))
}

// rankByPartialError returns the entry positions ranked by R(β) descending
// (Algorithm 4 line 3), ties broken by position so the ranking is a pure
// function of the R values. An unstable comparison on ties would let the
// sort implementation pick which tied entries die, violating the "equal
// seeds are bit-for-bit reproducible" guarantee.
func rankByPartialError(r []float64) []int {
	order := make([]int, len(r))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := r[order[a]], r[order[b]]
		if ra != rb {
			return ra > rb
		}
		return order[a] < order[b]
	})
	return order
}

// dropFirst marks the first k ranked entries for RemoveEntries.
func dropFirst(order []int, k int) []bool {
	drop := make([]bool, len(order))
	for _, e := range order[:k] {
		drop[e] = true
	}
	return drop
}

// NewStateForAnalysis exposes a read-only factorization state over existing
// factors and core so that experiment code (Figure 5) can evaluate
// PartialErrors outside a Decompose run.
func NewStateForAnalysis(x *tensor.Coord, factors []*mat.Dense, g *CoreTensor, threads int) *state {
	if threads < 1 {
		threads = 1
	}
	return &state{x: x, factors: factors, core: g, cfg: Config{Threads: threads, Ranks: g.Dims()}}
}
