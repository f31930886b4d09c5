package core

import (
	"math"
	"time"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// IterStats records one ALS iteration of Algorithm 2 for analysis and for
// regenerating Figures 9(a)/9(b).
type IterStats struct {
	// Iter is the 1-based iteration number.
	Iter int
	// Error is the reconstruction error (Eq. 5) measured after the factor
	// updates of this iteration.
	Error float64
	// Elapsed is the wall-clock duration of the iteration (factor updates +
	// error computation + truncation, i.e. lines 3-6 of Algorithm 2).
	Elapsed time.Duration
	// RowUpdate is the part of Elapsed spent in the row-wise factor updates
	// of all N modes (Algorithm 3, including the P-Tucker-Cache rescale).
	// A P-Tucker-Approx fit's last RowUpdate and Elapsed include its
	// finalize refit, which Config.OnIteration does not see.
	// Like ErrorPass it is a fit-time diagnostic: model files do not
	// persist it, so it reads back as zero.
	RowUpdate time.Duration
	// ErrorPass is the part of Elapsed spent measuring Error (Eq. 5).
	ErrorPass time.Duration
	// CoreNNZ is |G| at the moment Error was measured: after this
	// iteration's factor updates and before its truncation. Error and
	// CoreNNZ therefore always describe the same model state; under
	// P-Tucker-Approx, iteration i reports the core left by iteration
	// i-1's truncation, so the series still traces the shrinkage.
	CoreNNZ int
}

// Model is the result of a Tucker factorization: factor matrices A(n)
// (orthonormal columns after finalization), the core tensor G, and the run's
// measurements.
type Model struct {
	// Factors holds A(1)..A(N), each In x Jn.
	Factors []*mat.Dense
	// Core is the Tucker core G.
	Core *CoreTensor
	// Config echoes the configuration that produced the model.
	Config Config
	// Trace holds per-iteration statistics in order.
	Trace []IterStats
	// Converged reports whether the relative-error stopping rule fired
	// before MaxIters.
	Converged bool
	// TrainError is the reconstruction error (Eq. 5) of the returned model
	// on the training entries: the last iteration's Error for dense fits,
	// which the QR finalization leaves unchanged, and re-measured after
	// finalization when the core was truncated or pruned.
	TrainError float64
	// IntermediateBytes is the analytic intermediate-data requirement of the
	// run in bytes (Definition 7): per-thread workspaces O(T·J²) for
	// P-Tucker, plus the cache table O(|Ω|·|G|) for P-Tucker-Cache. It is the
	// quantity Table III and Figures 8(b)/10(b) report.
	IntermediateBytes int64
	// WorkPerThread is the number of factor rows processed by each worker
	// across all N modes of the final iteration (its entries sum to Σ_n I_n),
	// for workload-balance reporting (Figure 10 / Section IV-D).
	WorkPerThread []int64
	// FinalCoreNNZ is |G| when iteration ended — after the last iteration's
	// truncation, before the QR finalization and any Sparsify pruning. For
	// P-Tucker-Approx it is the shrunken core size Figure 9 reports, and the
	// sparse finalize rotation preserves it: Core.NNZ() on a served Approx
	// model is at most FinalCoreNNZ (Sparsify may prune further; Trace
	// entries record only pre-truncation sizes).
	FinalCoreNNZ int
}

// Order returns the tensor order N.
func (m *Model) Order() int { return len(m.Factors) }

// Predict reconstructs the value at multi-index idx by Eq. (4):
// Σ_β Gβ ∏_n A(n)[in][jn]. This is how missing entries are estimated —
// never as zeros.
func (m *Model) Predict(idx []int) float64 {
	s := newKernelScratch(m.Core)
	s.load(m.Factors, idx)
	return s.predict(m.Core)
}

// kernelScratch is one goroutine's working memory for the core
// contraction: the factor-row views, the contraction output (one slot per
// coordinate of the largest core mode), and the fold cursor holding the
// tree's level sums.
type kernelScratch struct {
	rows [][]float64
	out  []float64
	cur  foldCursor
}

// newKernelScratch sizes the scratch for g: the level sums start with |G|
// slots, enough for any tree of a core whose modes all have J ≥ 2 (the
// cursor grows them otherwise). Every piece is cache-line padded (see
// lineSlice): the fit's workers write theirs on every entry.
func newKernelScratch(g *CoreTensor) *kernelScratch {
	maxJ := 0
	for _, j := range g.dims {
		maxJ = max(maxJ, j)
	}
	n := len(g.dims)
	mem := lineSlice[float64](maxJ + g.NNZ())
	cur := foldCursor{at: lineSlice[int32](n), level: lineSlice[[]float64](n), sums: mem[maxJ:maxJ]}
	return &kernelScratch{rows: lineSlice[[]float64](n), out: mem[:maxJ], cur: cur}
}

// scratchPerThread returns one kernelScratch per worker thread.
func scratchPerThread(g *CoreTensor, threads int) []*kernelScratch {
	s := make([]*kernelScratch, threads)
	for t := range s {
		s[t] = newKernelScratch(g)
	}
	return s
}

// load points s.rows at the factor rows of multi-index idx and returns them.
func (s *kernelScratch) load(factors []*mat.Dense, idx []int) [][]float64 {
	for k, a := range factors {
		s.rows[k] = a.Row(idx[k])
	}
	return s.rows
}

// loadAt is load for the row layout's int32 coordinates.
func (s *kernelScratch) loadAt(factors []*mat.Dense, at []int32) [][]float64 {
	for k, a := range factors {
		s.rows[k] = a.Row(int(at[k]))
	}
	return s.rows
}

// predict evaluates Eq. (4) at the factor rows in s.rows. Model.Predict,
// Predictor, Model.ReconstructionError, and core refinement all answer
// through it, so they agree bit for bit on equal inputs.
func (s *kernelScratch) predict(g *CoreTensor) float64 {
	return g.predict(s.rows, s.out[:g.dims[len(g.dims)-1]], &s.cur)
}

// ReconstructionError computes Eq. (5) over the observed entries of x, in
// parallel with per-thread partial sums.
func (m *Model) ReconstructionError(x *tensor.Coord) float64 {
	return reconstructionError(x, m.Factors, m.Core, m.Config.Threads)
}

func reconstructionError(x *tensor.Coord, factors []*mat.Dense, g *CoreTensor, threads int) float64 {
	nnz := x.NNZ()
	if nnz == 0 {
		return 0
	}
	scratch := scratchPerThread(g, max(threads, 1))
	ss := parallelSum(len(scratch), nnz, func(tid, e int) float64 {
		s := scratch[tid]
		s.load(factors, x.Index(e))
		r := x.Value(e) - s.predict(g)
		return r * r
	})
	return math.Sqrt(ss)
}

// RMSE returns the root mean square error of predictions over the observed
// entries of test, the metric Figure 11 reports for held-out data.
func (m *Model) RMSE(test *tensor.Coord) float64 {
	nnz := test.NNZ()
	if nnz == 0 {
		return 0
	}
	err := m.ReconstructionError(test)
	return err / math.Sqrt(float64(nnz))
}

// Fit returns 1 - error/||X||, the share of the data's norm explained by the
// model (a common Tucker quality score; 1 is perfect).
func (m *Model) Fit(x *tensor.Coord) float64 {
	nrm := x.Norm()
	if nrm == 0 {
		return 1
	}
	return 1 - m.ReconstructionError(x)/nrm
}

// TimePerIteration returns the mean wall-clock duration per ALS iteration,
// the measurement used throughout Section IV ("we use average elapsed time
// per iteration instead of total running time").
func (m *Model) TimePerIteration() time.Duration {
	if len(m.Trace) == 0 {
		return 0
	}
	return m.TotalTime() / time.Duration(len(m.Trace))
}

// TotalTime returns the summed duration of all iterations.
func (m *Model) TotalTime() time.Duration {
	var total time.Duration
	for _, it := range m.Trace {
		total += it.Elapsed
	}
	return total
}
