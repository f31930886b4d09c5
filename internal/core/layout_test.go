package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// Tests for the fit's row layout (layout.go) and the resumable contraction
// it drives: a resumed fold against a fresh full fold and the per-entry
// reference, the layout's order, and the sweep's error pass.

// randomCore returns a core of the given dims: dense, or randomly truncated
// to about keep of its entries with the entry list shuffled.
func randomCore(rng *rand.Rand, dims []int, keep float64) *CoreTensor {
	g := NewRandomCore(dims, rng)
	for e := range g.val {
		g.val[e] = rng.NormFloat64()
	}
	if keep < 1 {
		drop := make([]bool, g.NNZ())
		for e := 1; e < len(drop); e++ { // entry 0 always survives
			drop[e] = rng.Float64() >= keep
		}
		g.RemoveEntries(drop)
		shuffleEntries(rng, g)
	}
	return g
}

// TestResumedContractionMatchesFullFold is the equivalence table of the
// resumable contraction: orders 3-5, unequal ranks with J = 1 modes, dense
// and truncated cores, every root, the default and the fit level orders,
// and one row's entries with repeated coordinates, in layout order and
// shuffled. Every resumed δ must equal a fresh full fold bit for bit and
// the per-entry reference within 1e-12 relative.
func TestResumedContractionMatchesFullFold(t *testing.T) {
	for _, ranks := range [][]int{{3, 1, 4}, {2, 3, 1, 2}, {1, 2, 3, 2, 2}, {4, 4, 4}} {
		for _, keep := range []float64{1, 0.4} {
			rng := rand.New(rand.NewSource(int64(len(ranks)*100) + int64(10*keep) + int64(ranks[0])))
			n := len(ranks)
			g := randomCore(rng, ranks, keep)
			// Small data dimensions so a row's entries repeat coordinates.
			dims := make([]int, n)
			for k := range dims {
				dims[k] = 2 + rng.Intn(4)
			}
			factors := randomModelFactors(rng, ranks, 6)
			for root := 0; root < n; root++ {
				entries := make([][]int32, 40)
				for i := range entries {
					at := make([]int32, n)
					for k := range at {
						at[k] = int32(rng.Intn(dims[k]))
					}
					at[root] = 0
					entries[i] = at
				}
				for _, levels := range [][]int{defaultLevels(root, n), fitLevels(root, dims)} {
					tree := g.treeFor(levels)
					sorted := slices.Clone(entries)
					slices.SortStableFunc(sorted, func(a, b []int32) int {
						for l := n - 1; l > 0; l-- {
							if d := int(a[levels[l]]) - int(b[levels[l]]); d != 0 {
								return d
							}
						}
						return 0
					})
					shuffled := slices.Clone(entries)
					rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
					for _, seq := range [][][]int32{sorted, shuffled} {
						var resumed foldCursor
						rows := make([][]float64, n)
						got := make([]float64, ranks[root])
						full := make([]float64, ranks[root])
						for _, at := range seq {
							for k := range rows {
								rows[k] = factors[k].Row(int(at[k]))
							}
							tree.contract(rows, at, got, &resumed)
							var fresh foldCursor
							tree.contract(rows, nil, full, &fresh)
							want, scale := naiveContract(g, root, rows)
							for j := range got {
								if math.Float64bits(got[j]) != math.Float64bits(full[j]) {
									t.Fatalf("ranks %v keep %v levels %v at %v: resumed δ[%d] = %v, full fold %v",
										ranks, keep, levels, at, j, got[j], full[j])
								}
								if !closeRel(got[j], want[j], scale[j]) {
									t.Fatalf("ranks %v keep %v levels %v at %v: δ[%d] = %v, reference %v",
										ranks, keep, levels, at, j, got[j], want[j])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestFitLevelsLeafIsSmallestMode: the leaf is the non-root mode with the
// smallest data dimension, ties to the lower mode index.
func TestFitLevelsLeafIsSmallestMode(t *testing.T) {
	cases := []struct {
		dims []int
		mode int
		want []int
	}{
		{[]int{6000, 4000, 40}, 0, []int{0, 1, 2}},
		{[]int{6000, 4000, 40}, 1, []int{1, 0, 2}},
		{[]int{6000, 4000, 40}, 2, []int{2, 0, 1}},
		{[]int{10, 10, 10}, 0, []int{0, 2, 1}},
		{[]int{10, 10, 10}, 2, []int{2, 1, 0}},
		{[]int{5, 9, 5, 7}, 1, []int{1, 3, 2, 0}},
	}
	for _, c := range cases {
		if got := fitLevels(c.mode, c.dims); !slices.Equal(got, c.want) {
			t.Fatalf("fitLevels(%d, %v) = %v, want %v", c.mode, c.dims, got, c.want)
		}
	}
}

// TestRowLayoutOrder: every mode's layout holds each entry of x exactly
// once, grouped by row with correct offsets, ordered within a row by the
// levels below the root, leaf first, ties in entry order; ids (when kept)
// point back at the entry; and sortRun orders appended observations the
// way a rebuilt layout does.
func TestRowLayoutOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dims := []int{7, 5, 3, 4}
	x := tensor.NewCoord(dims)
	idx := make([]int, len(dims))
	for x.NNZ() < 300 {
		for k, d := range dims {
			idx[k] = rng.Intn(d)
		}
		x.MustAppend(idx, float64(x.NNZ())) // value = entry id; duplicates allowed
	}
	n := len(dims)
	for _, withIDs := range []bool{false, true} {
		for mode, lay := range newLayouts(x, withIDs, 3) {
			if !slices.Equal(lay.levels, fitLevels(mode, dims)) {
				t.Fatalf("mode %d levels %v", mode, lay.levels)
			}
			seen := make([]bool, x.NNZ())
			for i := 0; i < dims[mode]; i++ {
				run := lay.row(i)
				for p, v := range run.vals {
					e := int(v)
					if seen[e] {
						t.Fatalf("mode %d: entry %d laid out twice", mode, e)
					}
					seen[e] = true
					at := run.coords[p*n : (p+1)*n]
					for k, c := range x.Index(e) {
						if int(at[k]) != c {
							t.Fatalf("mode %d row %d: entry %d coords %v, x has %v", mode, i, e, at, x.Index(e))
						}
					}
					if at[mode] != int32(i) {
						t.Fatalf("mode %d: entry %d filed under row %d", mode, e, i)
					}
					if withIDs && int(run.ids[p]) != e {
						t.Fatalf("mode %d: id %d for entry %d", mode, run.ids[p], e)
					}
					if p == 0 {
						continue
					}
					prev := run.coords[(p-1)*n : p*n]
					for l := n - 1; l >= 0; l-- {
						k := lay.levels[l]
						if l == 0 {
							if int(run.vals[p-1]) > e {
								t.Fatalf("mode %d row %d: equal keys out of entry order", mode, i)
							}
							break
						}
						if prev[k] != at[k] {
							if prev[k] > at[k] {
								t.Fatalf("mode %d row %d: %v before %v", mode, i, prev, at)
							}
							break
						}
					}
				}
			}
			for e, ok := range seen {
				if !ok {
					t.Fatalf("mode %d: entry %d missing", mode, e)
				}
			}
			if withIDs != (lay.ids != nil) {
				t.Fatalf("mode %d: ids kept = %v, want %v", mode, lay.ids != nil, withIDs)
			}
		}
	}

	// A fold-in row: sortRun on the observations equals the new row of a
	// layout rebuilt after appending them.
	obs := make([]Observation, 30)
	for i := range obs {
		obs[i] = Observation{Index: []int{dims[0], rng.Intn(dims[1]), rng.Intn(dims[2]), rng.Intn(dims[3])}, Value: float64(i)}
	}
	x.GrowMode(0, dims[0]+1)
	for _, o := range obs {
		x.MustAppend(o.Index, o.Value)
	}
	want := newLayouts(x, false, 1)[0].row(dims[0])
	got := sortRun(obs, fitLevels(0, x.Dims()))
	if !slices.Equal(got.coords, want.coords) || !slices.Equal(got.vals, want.vals) {
		t.Fatalf("sortRun order differs from the rebuilt layout's row")
	}
}

// sweepState returns a fitted-looking state: a planted tensor of the given
// shape, the init phase, and one sweep of row updates, so the error pass
// runs on factors the row update produced.
func sweepState(t *testing.T, dims, ranks []int, cfg Config) *state {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(dims))))
	x := plantedTensor(rng, dims, ranks, 900, 0.1)
	cfg, err := cfg.Validate(x.Dims())
	if err != nil {
		t.Fatal(err)
	}
	st := newState(x, cfg)
	for mode := range dims {
		st.updateFactor(mode)
	}
	return st
}

// TestSweepErrorMatchesReconstructionError: the sweep's error pass, over
// the last mode's layout and fit tree, agrees with the public per-entry
// Model.ReconstructionError within 1e-10 relative — dense, truncated and
// element-wise refined cores, orders 3 and 4.
func TestSweepErrorMatchesReconstructionError(t *testing.T) {
	for _, c := range []struct {
		dims, ranks []int
	}{
		{[]int{12, 9, 30}, []int{3, 2, 4}},
		{[]int{8, 20, 6, 5}, []int{2, 3, 1, 2}},
	} {
		cfg := smallConfig(c.ranks)
		st := sweepState(t, c.dims, c.ranks, cfg)
		check := func(stage string) {
			t.Helper()
			got := st.sweepError()
			want := reconstructionError(st.x, st.factors, st.core, 2)
			if math.Abs(got-want) > 1e-10*want {
				t.Fatalf("dims %v %s: sweep error %v, ReconstructionError %v", c.dims, stage, got, want)
			}
		}
		check("dense")
		st.cfg.TruncationRate = 0.4
		st.truncateCore()
		check("truncated")
		st.updateCore()
		check("refined")
	}
}

// TestSweepErrorBitIdenticalAcrossSchedules: each row's residual has its own
// slot and the slots are summed in row order, so the error pass gives the
// same bits at any thread count, scheduling policy and chunk size.
func TestSweepErrorBitIdenticalAcrossSchedules(t *testing.T) {
	dims, ranks := []int{10, 14, 25}, []int{3, 3, 2}
	st := sweepState(t, dims, ranks, smallConfig(ranks))
	want := st.sweepError()
	for _, sched := range []Scheduling{ScheduleStatic, ScheduleDynamic} {
		for _, chunk := range []int{1, 3, 8, 100} {
			for _, threads := range []int{1, 2, 3, 7} {
				st.cfg.Scheduling, st.cfg.ChunkSize, st.cfg.Threads = sched, chunk, threads
				if got := st.sweepError(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v chunk %d threads %d: error %v, want %v", sched, chunk, threads, got, want)
				}
			}
		}
	}
}
