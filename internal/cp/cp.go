// Package cp implements CANDECOMP/PARAFAC (CP) decomposition for sparse,
// partially observed tensors with a row-wise ALS update — the method of Shin
// et al. (reference [24] of the paper, CDTF/SALS), which is where P-Tucker's
// row-wise parallelization originates. Tucker generalizes CP (Section II-C):
// CP is exactly a Tucker model whose core is super-diagonal, and the row
// update below is the P-Tucker normal equation with δ collapsed to the
// Hadamard product of the other modes' factor rows.
//
// The package rounds out the library for users who want the cheaper CP model
// (R parameters per row instead of a Jᴺ core) and provides the paper's
// conceptual baseline lineage in code.
package cp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// Config controls a CP-ALS run.
type Config struct {
	// Rank is the number of CP components R.
	Rank int
	// Lambda is the L2 regularization weight.
	Lambda float64
	// MaxIters bounds the ALS sweeps.
	MaxIters int
	// Tol stops iteration when the relative error change drops below it;
	// zero disables the check.
	Tol float64
	// Threads is the worker count; zero means one worker per row chunk up
	// to a small default.
	Threads int
	// Seed drives the random initialization.
	Seed int64
}

// ErrBadConfig reports an invalid configuration.
var ErrBadConfig = errors.New("cp: invalid configuration")

// Model is a fitted CP decomposition: factor matrices A(n) ∈ R^{In×R}.
type Model struct {
	Factors []*mat.Dense
	// Trace holds the reconstruction error after each sweep.
	Trace []IterStats
	// Converged reports whether the tolerance rule fired.
	Converged bool
}

// IterStats records one ALS sweep.
type IterStats struct {
	Iter    int
	Error   float64
	Elapsed time.Duration
}

// Predict evaluates Σ_r ∏_n A(n)[in][r] at idx.
func (m *Model) Predict(idx []int) float64 {
	r := m.Factors[0].Cols()
	var sum float64
	for c := 0; c < r; c++ {
		p := 1.0
		for n, a := range m.Factors {
			p *= a.At(idx[n], c)
		}
		sum += p
	}
	return sum
}

// ReconstructionError returns the Eq. (5)-style error over the observed
// entries of x.
func (m *Model) ReconstructionError(x *tensor.Coord) float64 {
	var ss float64
	for e := 0; e < x.NNZ(); e++ {
		d := x.Value(e) - m.Predict(x.Index(e))
		ss += d * d
	}
	return math.Sqrt(ss)
}

// RMSE returns the root mean square prediction error over test.
func (m *Model) RMSE(test *tensor.Coord) float64 {
	if test.NNZ() == 0 {
		return 0
	}
	return m.ReconstructionError(test) / math.Sqrt(float64(test.NNZ()))
}

// Decompose fits a rank-R CP model to the observed entries of x by row-wise
// ALS: for each mode n and row in, solve the R×R ridge system built from
// δ_α(r) = ∏_{k≠n} A(k)[ik][r] over α ∈ Ω(n)[in]. Rows are independent and
// updated in parallel, exactly as in P-Tucker.
func Decompose(x *tensor.Coord, cfg Config) (*Model, error) {
	if cfg.Rank < 1 {
		return nil, fmt.Errorf("%w: rank %d", ErrBadConfig, cfg.Rank)
	}
	if cfg.MaxIters < 1 {
		return nil, fmt.Errorf("%w: MaxIters %d", ErrBadConfig, cfg.MaxIters)
	}
	if cfg.Lambda < 0 {
		return nil, fmt.Errorf("%w: lambda %v", ErrBadConfig, cfg.Lambda)
	}
	if x.NNZ() == 0 {
		return nil, fmt.Errorf("%w: empty tensor", ErrBadConfig)
	}
	if cfg.Threads < 1 {
		cfg.Threads = 2
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	nModes := x.Order()
	r := cfg.Rank
	factors := make([]*mat.Dense, nModes)
	for n := 0; n < nModes; n++ {
		a := mat.NewDense(x.Dim(n), r)
		for i := range a.Data() {
			a.Data()[i] = rng.Float64()
		}
		factors[n] = a
	}
	omega := tensor.NewModeIndex(x)
	model := &Model{Factors: factors}

	prev := math.Inf(1)
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		start := time.Now()
		for n := 0; n < nModes; n++ {
			updateMode(x, omega, factors, n, cfg)
		}
		errNow := model.ReconstructionError(x)
		model.Trace = append(model.Trace, IterStats{Iter: iter, Error: errNow, Elapsed: time.Since(start)})
		if cfg.Tol > 0 && prev < math.Inf(1) {
			denom := prev
			if denom == 0 {
				denom = 1
			}
			if math.Abs(prev-errNow)/denom < cfg.Tol {
				model.Converged = true
				break
			}
		}
		prev = errNow
	}
	return model, nil
}

// updateMode refreshes every row of A(mode) in parallel.
func updateMode(x *tensor.Coord, omega *tensor.ModeIndex, factors []*mat.Dense, mode int, cfg Config) {
	a := factors[mode]
	rows := a.Rows()
	r := cfg.Rank
	threads := cfg.Threads
	if threads > rows {
		threads = rows
	}
	var wg sync.WaitGroup
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		go func(tid int) {
			defer wg.Done()
			delta := make([]float64, r)
			b := mat.NewDense(r, r)
			c := make([]float64, r)
			var ch mat.Cholesky
			lo := tid * rows / threads
			hi := (tid + 1) * rows / threads
			for in := lo; in < hi; in++ {
				updateRow(x, omega, factors, mode, in, cfg.Lambda, delta, b, c, &ch)
			}
		}(t)
	}
	wg.Wait()
}

// updateRow solves the ridge normal equations for one factor row; ch is the
// worker's Cholesky factor, refactored in place for every row.
func updateRow(x *tensor.Coord, omega *tensor.ModeIndex, factors []*mat.Dense, mode, in int, lambda float64, delta []float64, b *mat.Dense, c []float64, ch *mat.Cholesky) {
	row := factors[mode].Row(in)
	entries := omega.Slice(mode, in)
	if len(entries) == 0 {
		for j := range row {
			row[j] = 0
		}
		return
	}
	r := len(delta)
	b.Zero()
	for j := range c {
		c[j] = 0
	}
	for _, alpha := range entries {
		idx := x.Index(alpha)
		for j := 0; j < r; j++ {
			delta[j] = 1
		}
		for k, a := range factors {
			if k == mode {
				continue
			}
			arow := a.Row(idx[k])
			for j := 0; j < r; j++ {
				delta[j] *= arow[j]
			}
		}
		xv := x.Value(alpha)
		for j1 := 0; j1 < r; j1++ {
			d1 := delta[j1]
			if d1 == 0 {
				continue
			}
			brow := b.Row(j1)
			for j2 := j1; j2 < r; j2++ {
				brow[j2] += d1 * delta[j2]
			}
			c[j1] += xv * d1
		}
	}
	for j1 := 0; j1 < r; j1++ {
		for j2 := j1 + 1; j2 < r; j2++ {
			b.Set(j2, j1, b.At(j1, j2))
		}
		b.Add(j1, j1, lambda)
	}
	if err := ch.Factor(b); err == nil {
		copy(row, c)
		ch.SolveVecInPlace(row)
		return
	}
	if sol, err := mat.SolveVec(b, c); err == nil {
		copy(row, sol)
	}
}
