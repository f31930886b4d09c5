package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mat"
)

// Tests for the CSF-tree core contraction (contract.go) against a per-entry
// reference that expands every core entry on its own, in entry-list order.

// naiveContract is the reference for coreTree.contract: out[j] sums
// Gβ ∏_{k≠root} rows[k][βk] over the entries with βroot = j. scale[j] sums
// the magnitudes of the same terms, the yardstick for rounding error.
func naiveContract(g *CoreTensor, root int, rows [][]float64) (out, scale []float64) {
	out = make([]float64, g.dims[root])
	scale = make([]float64, g.dims[root])
	for e := 0; e < g.NNZ(); e++ {
		p := g.entryProduct(e, root, rows)
		j := g.Index(e)[root]
		out[j] += p
		scale[j] += math.Abs(p)
	}
	return out, scale
}

// naivePredict is the reference for Eq. (4): the flat per-entry sum.
func naivePredict(g *CoreTensor, rows [][]float64) float64 {
	var sum float64
	for e := 0; e < g.NNZ(); e++ {
		sum += g.entryProduct(e, -1, rows)
	}
	return sum
}

// naivePredictScale is Σ|Gβ ∏ rows|, the rounding yardstick of a prediction.
func naivePredictScale(g *CoreTensor, rows [][]float64) float64 {
	var s float64
	for e := 0; e < g.NNZ(); e++ {
		s += math.Abs(g.entryProduct(e, -1, rows))
	}
	return s
}

// closeRel reports |got-want| ≤ 1e-12·scale (scale 0 demands exactness).
func closeRel(got, want, scale float64) bool {
	return math.Abs(got-want) <= 1e-12*scale
}

// checkContract compares every root's tree contraction and the tree predict
// with the per-entry reference.
func checkContract(t *testing.T, g *CoreTensor, rows [][]float64) {
	t.Helper()
	var cur foldCursor
	for root := range g.dims {
		got := make([]float64, g.dims[root])
		g.tree(root).contract(rows, nil, got, &cur)
		want, scale := naiveContract(g, root, rows)
		for j := range got {
			if !closeRel(got[j], want[j], scale[j]) {
				t.Fatalf("dims %v nnz %d root %d: out[%d] = %v, reference %v (scale %v)",
					g.dims, g.NNZ(), root, j, got[j], want[j], scale[j])
			}
		}
	}
	s := newKernelScratch(g)
	copy(s.rows, rows)
	if got, want := s.predict(g), naivePredict(g, rows); !closeRel(got, want, naivePredictScale(g, rows)) {
		t.Fatalf("dims %v nnz %d: predict %v, reference %v", g.dims, g.NNZ(), got, want)
	}
}

func randomModelFactors(rng *rand.Rand, dims []int, rows int) []*mat.Dense {
	factors := make([]*mat.Dense, len(dims))
	for k, j := range dims {
		a := mat.NewDense(rows, j)
		for i := range a.Data() {
			a.Data()[i] = rng.NormFloat64()
		}
		factors[k] = a
	}
	return factors
}

func randomRows(rng *rand.Rand, dims []int) [][]float64 {
	rows := make([][]float64, len(dims))
	for k, j := range dims {
		rows[k] = make([]float64, j)
		for i := range rows[k] {
			rows[k][i] = rng.NormFloat64()
		}
	}
	return rows
}

// TestCoreContractMatchesReference is the kernel equivalence table: orders
// 2-5, dense and randomly pruned cores (entry list shuffled, so the tree
// build cannot lean on offset order), every root mode.
func TestCoreContractMatchesReference(t *testing.T) {
	for order := 2; order <= 5; order++ {
		for _, keep := range []float64{1, 0.5, 0.1} {
			rng := rand.New(rand.NewSource(int64(100*order) + int64(10*keep)))
			dims := make([]int, order)
			for k := range dims {
				dims[k] = 1 + rng.Intn(4)
			}
			g := NewRandomCore(dims, rng)
			if keep < 1 {
				drop := make([]bool, g.NNZ())
				for e := 1; e < len(drop); e++ { // entry 0 always survives
					drop[e] = rng.Float64() >= keep
				}
				g.RemoveEntries(drop)
				shuffleEntries(rng, g)
			}
			for trial := 0; trial < 5; trial++ {
				checkContract(t, g, randomRows(rng, dims))
			}

			// The public serving path answers through the same kernel.
			factors := randomModelFactors(rng, dims, 6)
			p := NewPredictor(&Model{Factors: factors, Core: g})
			idx := make([]int, order)
			rows := make([][]float64, order)
			for trial := 0; trial < 5; trial++ {
				for k := range idx {
					idx[k] = rng.Intn(6)
					rows[k] = factors[k].Row(idx[k])
				}
				if got, want := p.Predict(idx), naivePredict(g, rows); !closeRel(got, want, naivePredictScale(g, rows)) {
					t.Fatalf("dims %v: Predictor.Predict %v, reference %v", dims, got, want)
				}
			}
		}
	}
}

// shuffleEntries permutes the entry list in place (positions only: the
// entry set is unchanged).
func shuffleEntries(rng *rand.Rand, g *CoreTensor) {
	n := g.Order()
	rng.Shuffle(g.NNZ(), func(a, b int) {
		for k := 0; k < n; k++ {
			g.idx[a*n+k], g.idx[b*n+k] = g.idx[b*n+k], g.idx[a*n+k]
		}
		g.val[a], g.val[b] = g.val[b], g.val[a]
	})
	g.finalized = false
}

// TestCoreTreeStaleness checks that δ and predict follow the core through
// every mutation the fit makes — truncation, RemoveEntries, and the
// element-wise core update — and that a clone sharing the old trees keeps
// answering for the old core.
func TestCoreTreeStaleness(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dims := []int{9, 8, 7}
	x := plantedTensor(rng, dims, []int{3, 3, 3}, 400, 0.05)
	cfg := smallConfig([]int{3, 3, 3})
	cfg.Method = PTuckerApprox
	cfg.TruncationRate = 0.3
	cfg.UpdateCore = true
	cfg, err := cfg.Validate(x.Dims())
	if err != nil {
		t.Fatal(err)
	}
	st := newState(x, cfg)

	check := func(stage string) {
		t.Helper()
		w := newWorkspace(st.core, 3)
		for alpha := 0; alpha < x.NNZ(); alpha += 37 {
			idx := x.Index(alpha)
			rows := make([][]float64, len(dims))
			at := make([]int32, len(dims))
			for k := range rows {
				rows[k] = st.factors[k].Row(idx[k])
				at[k] = int32(idx[k])
			}
			for mode := range dims {
				got := st.computeDelta(mode, st.fitTree(mode), at, alpha, w)
				want, scale := naiveContract(st.core, mode, rows)
				for j := range want {
					if !closeRel(got[j], want[j], scale[j]) {
						t.Fatalf("%s: δ(%d)[%d] at entry %d = %v, reference %v", stage, mode, j, alpha, got[j], want[j])
					}
				}
			}
			m := &Model{Factors: st.factors, Core: st.core}
			if got, want := m.Predict(idx), naivePredict(st.core, rows); !closeRel(got, want, naivePredictScale(st.core, rows)) {
				t.Fatalf("%s: predict at %v = %v, reference %v", stage, idx, got, want)
			}
		}
	}

	check("init")
	before := st.core.Clone() // shares the built trees
	beforeNNZ := before.NNZ()

	st.truncateCore()
	if st.core.NNZ() >= beforeNNZ {
		t.Fatal("truncation removed nothing; the check would be vacuous")
	}
	check("truncateCore")

	drop := make([]bool, st.core.NNZ())
	drop[0], drop[len(drop)-1] = true, true
	st.core.RemoveEntries(drop)
	check("RemoveEntries")

	st.updateCore()
	check("updateCore")

	// The clone kept the pre-mutation entries and still answers for them.
	if before.NNZ() != beforeNNZ {
		t.Fatalf("clone lost entries: %d, want %d", before.NNZ(), beforeNNZ)
	}
	checkContract(t, before, randomRows(rng, before.dims))
}

// TestCoreTreeConcurrentBuild has many goroutines build and contract the
// trees of one fresh core — and of clones sharing them — at once; under
// -race it checks the lazy, shared build is race-free, and every answer
// must match the reference.
func TestCoreTreeConcurrentBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dims := []int{3, 4, 2, 3}
	g := NewRandomCore(dims, rng)
	rows := randomRows(rng, dims)
	want := make([][]float64, len(dims))
	for root := range dims {
		want[root], _ = naiveContract(g, root, rows)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := g
			if w%2 == 1 {
				c = g.Clone()
			}
			var cur foldCursor
			for i := 0; i < len(dims); i++ {
				root := (w + i) % len(dims)
				out := make([]float64, dims[root])
				c.tree(root).contract(rows, nil, out, &cur)
				for j := range out {
					if math.Abs(out[j]-want[root][j]) > 1e-12*math.Max(1, math.Abs(want[root][j])) {
						t.Errorf("worker %d root %d: out[%d] = %v, reference %v", w, root, j, out[j], want[root][j])
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// FuzzCoreContract decodes an order (1-5), dims (1-4 each), a sparse entry
// list (duplicates allowed, any order), and one factor row per mode from the
// input, then asserts the tree contraction of every root and the tree
// predict equal the per-entry reference, and that finite inputs give finite
// output.
func FuzzCoreContract(f *testing.F) {
	f.Add([]byte{3, 2, 3, 4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{1, 4, 9, 200, 17, 3, 3, 250, 1})
	f.Add([]byte{5, 2, 2, 2, 2, 2, 255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 7, 77, 177})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// value maps two bytes onto [-128, 128): finite, and small enough
		// that no product of ≤ 6 of them overflows.
		value := func() float64 {
			return float64(int16(binary.LittleEndian.Uint16([]byte{next(), next()}))) / 256
		}

		order := 1 + int(next())%5
		dims := make([]int, order)
		size := 1
		for k := range dims {
			dims[k] = 1 + int(next())%4
			size *= dims[k]
		}
		nnz := int(next()) % (2*size + 1)
		g := &CoreTensor{dims: dims}
		for e := 0; e < nnz; e++ {
			for k := range dims {
				g.idx = append(g.idx, int(next())%dims[k])
			}
			g.val = append(g.val, value())
		}
		rows := make([][]float64, order)
		for k, j := range dims {
			rows[k] = make([]float64, j)
			for i := range rows[k] {
				rows[k][i] = value()
			}
		}

		var cur foldCursor
		for root := range dims {
			got := make([]float64, dims[root])
			g.tree(root).contract(rows, nil, got, &cur)
			want, scale := naiveContract(g, root, rows)
			for j := range got {
				if math.IsInf(got[j], 0) || math.IsNaN(got[j]) {
					t.Fatalf("root %d: non-finite out[%d] = %v from finite inputs", root, j, got[j])
				}
				if !closeRel(got[j], want[j], scale[j]) {
					t.Fatalf("root %d: out[%d] = %v, reference %v (scale %v)", root, j, got[j], want[j], scale[j])
				}
			}
		}
		s := newKernelScratch(g)
		copy(s.rows, rows)
		got := s.predict(g)
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("non-finite prediction %v from finite inputs", got)
		}
		if want := naivePredict(g, rows); !closeRel(got, want, naivePredictScale(g, rows)) {
			t.Fatalf("predict %v, reference %v", got, want)
		}
	})
}
