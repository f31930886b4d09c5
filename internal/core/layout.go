package core

import (
	"slices"

	"repro/internal/tensor"
)

// rowLayout is the fit's copy of the observed entries for one mode n: the
// entries of Ω(n) grouped by their mode-n row, and within a row ordered
// lexicographically by the coordinates of the fit tree's levels below the
// root, leaf first, ties in entry order. Each entry's coordinates (int32,
// indexed by mode) and value are stored contiguously in that order, so the
// row update streams them instead of gathering x.Index(α) at random.
//
// The order is what makes the resumable contraction pay: consecutive
// entries of a row that share the leaf coordinate skip the leaf fold — the
// one that touches all |G| core entries — and those sharing the next level
// too skip that fold as well (Tucker-CSF's prefix sharing, applied to the
// data side of δ). The N layouts, one per mode, cost N·|Ω|·(4N+8) bytes
// plus the row offsets, in place of the inverted index they replace.
type rowLayout struct {
	levels []int     // the fit tree's level order: levels[0] = n, the leaf last
	start  []int     // row i's entries are positions start[i] .. start[i+1]-1
	coords []int32   // coords[p*N : (p+1)*N] are entry p's coordinates
	vals   []float64 // vals[p] is entry p's value
	ids    []int32   // ids[p] is entry p's id in x; P-Tucker-Cache only (it addresses Pres)
}

// entryRun is a run of observed entries in layout order: one row of a
// rowLayout, or a fold-in's observations.
type entryRun struct {
	coords []int32
	vals   []float64
	ids    []int32 // nil unless the entries address the Pres table
}

// row returns row i's entries.
func (l *rowLayout) row(i int) entryRun {
	lo, hi := l.start[i], l.start[i+1]
	n := len(l.levels)
	run := entryRun{coords: l.coords[lo*n : hi*n], vals: l.vals[lo:hi]}
	if l.ids != nil {
		run.ids = l.ids[lo:hi]
	}
	return run
}

// fitLevels returns the level order of the fit's tree rooted at mode: the
// root, then the other modes by descending data dimension, so that the leaf
// is the mode with the smallest dimension (ties to the lower mode index) —
// the mode whose coordinate the entries of a row share most often.
func fitLevels(mode int, dims []int) []int {
	levels := make([]int, 1, len(dims))
	levels[0] = mode
	for k := range dims {
		if k != mode {
			levels = append(levels, k)
		}
	}
	slices.SortFunc(levels[1:], func(a, b int) int {
		if dims[a] != dims[b] {
			return dims[b] - dims[a]
		}
		return b - a
	})
	return levels
}

// newLayouts builds the row layout of every mode of x, keeping entry ids
// when withIDs is set, one mode per worker. Each layout is N stable
// counting sorts, least significant key first: O(N·(|Ω| + Σ I)) per mode.
func newLayouts(x *tensor.Coord, withIDs bool, threads int) []*rowLayout {
	n := x.Order()
	nnz := x.NNZ()
	// The coordinates by mode, so the sorts read compact int32 columns.
	cols := make([][]int32, n)
	for k := range cols {
		cols[k] = make([]int32, nnz)
	}
	for e := 0; e < nnz; e++ {
		for k, i := range x.Index(e) {
			cols[k][e] = int32(i)
		}
	}
	layouts := make([]*rowLayout, n)
	runIndexed(threads, ScheduleStatic, 1, n, func(_, mode int) {
		layouts[mode] = newLayout(x, cols, mode, withIDs)
	})
	return layouts
}

// newLayout builds mode's row layout from the coordinate columns of x.
func newLayout(x *tensor.Coord, cols [][]int32, mode int, withIDs bool) *rowLayout {
	n := x.Order()
	nnz := x.NNZ()
	levels := fitLevels(mode, x.Dims())
	perm := make([]int32, nnz)
	for i := range perm {
		perm[i] = int32(i)
	}
	tmp := make([]int32, nnz)
	count := make([]int, slices.Max(x.Dims())+1)
	// Keys from least to most significant: levels[1] (just below the root)
	// up to the leaf, then the row.
	for l := 1; l <= n; l++ {
		col := cols[levels[l%n]]
		c := count[:x.Dim(levels[l%n])+1]
		clear(c)
		for _, e := range perm {
			c[col[e]+1]++
		}
		for i := 1; i < len(c); i++ {
			c[i] += c[i-1]
		}
		for _, e := range perm {
			i := col[e]
			tmp[c[i]] = e
			c[i]++
		}
		perm, tmp = tmp, perm
	}
	lay := &rowLayout{levels: levels, start: make([]int, x.Dim(mode)+1), coords: make([]int32, nnz*n), vals: make([]float64, nnz)}
	rows := cols[mode]
	for p, e := range perm {
		for k, col := range cols {
			lay.coords[p*n+k] = col[e]
		}
		lay.vals[p] = x.Value(int(e))
		lay.start[rows[e]+1]++
	}
	for i := 1; i < len(lay.start); i++ {
		lay.start[i] += lay.start[i-1]
	}
	if withIDs {
		lay.ids = perm
	}
	return lay
}

// sortRun returns observations that all lie in one row as an entryRun in
// layout order for the given level order: the order newLayouts would give
// them had they been appended to the tensor in the order given.
func sortRun(obs []Observation, levels []int) entryRun {
	n := len(levels)
	order := make([]int, len(obs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		for l := n - 1; l > 0; l-- {
			if d := obs[a].Index[levels[l]] - obs[b].Index[levels[l]]; d != 0 {
				return d
			}
		}
		return 0
	})
	run := entryRun{coords: make([]int32, len(obs)*n), vals: make([]float64, len(obs))}
	for p, i := range order {
		for k, c := range obs[i].Index {
			run.coords[p*n+k] = int32(c)
		}
		run.vals[p] = obs[i].Value
	}
	return run
}
