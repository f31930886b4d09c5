package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/mat"
)

// ErrBadIndex reports a prediction index that does not address a cell of the
// served model: wrong number of modes, or a coordinate outside [0, In). It is
// the sentinel network-facing callers match on to map malformed input to a
// client error (HTTP 400) instead of a process crash.
var ErrBadIndex = errors.New("core: invalid prediction index")

// Predictor is the serving-side view of a fitted Model: an immutable handle
// that reconstructs tensor cells by Eq. (4), safe for concurrent use by any
// number of goroutines.
//
// NewPredictor deep-copies the model's factors and core (the core's
// immutable contraction trees are shared, not rebuilt), so the predictor's
// answers cannot change under a caller's feet even if the source Model is
// mutated afterwards. Per-call scratch (the factor-row views and the tree's
// level sums, see kernelScratch) comes from a sync.Pool, so steady-state
// Predict does not allocate; PredictBatch fans a batch out across worker
// goroutines for throughput.
//
// Each prediction contracts the core's tree rooted at the last mode with
// the other modes' factor rows and dots the result with the last mode's row
// (see CoreTensor.predict). Predictions are bit-identical to Model.Predict
// on the same model: both run that kernel over identical float64 values in
// identical order.
type Predictor struct {
	factors []*mat.Dense
	core    *CoreTensor
	dims    []int
	workers int
	pool    *sync.Pool
}

// NewPredictor builds a concurrent-safe predictor from a fitted model,
// snapshotting its factors and core. Batch prediction uses up to
// runtime.GOMAXPROCS(0) workers; see WithWorkers to override.
func NewPredictor(m *Model) *Predictor {
	factors := make([]*mat.Dense, len(m.Factors))
	for k, a := range m.Factors {
		factors[k] = a.Clone()
	}
	return NewPredictorShared(&Model{Factors: factors, Core: m.Core.Clone()})
}

// NewPredictorShared builds a predictor that aliases the model's factors and
// core instead of deep-copying them — the zero-copy path for models backed by
// read-only file mappings, where a clone would pull the whole model onto the
// heap and defeat the mapping. The predictor never writes through the model
// (Predict/TopK only read factor rows and core entries), but the caller must
// guarantee nothing else mutates the model while the predictor lives. The
// serve layer satisfies this by construction: online fitting always resumes
// from a clone (ResumeFitter, Fitter.Snapshot), never the served model.
// Predictions are bit-identical to NewPredictor on the same model.
// The kernel's CSF trees are not zero-copy: each root mode used (the last
// for Predict, one per free mode Recommend serves) lazily builds one on the
// Go heap, under (8+8N)·|G| bytes for an order-N core (values plus int32
// ids and offsets), which mapped-byte accounting does not count.
func NewPredictorShared(m *Model) *Predictor {
	order := len(m.Factors)
	factors := make([]*mat.Dense, order)
	dims := make([]int, order)
	for k, a := range m.Factors {
		factors[k] = a
		dims[k] = a.Rows()
	}
	return &Predictor{
		factors: factors,
		core:    m.Core,
		dims:    dims,
		workers: runtime.GOMAXPROCS(0),
		pool:    &sync.Pool{New: func() interface{} { return newKernelScratch(m.Core) }},
	}
}

// WithWorkers returns a predictor that uses n workers for PredictBatch
// (n < 1 means serial). The returned predictor shares the immutable factor
// and core snapshots — and the scratch pool — with the receiver, so deriving
// differently-parallel views of one model is free.
func (p *Predictor) WithWorkers(n int) *Predictor {
	if n < 1 {
		n = 1
	}
	q := *p
	q.workers = n
	return &q
}

// Order returns the tensor order N.
func (p *Predictor) Order() int { return len(p.factors) }

// Dims returns a copy of the mode lengths I1..IN the predictor can address.
func (p *Predictor) Dims() []int { return append([]int(nil), p.dims...) }

// ValidateIndex reports whether idx addresses a cell of the served model:
// exactly one coordinate per mode, each within [0, In). A non-nil result
// wraps ErrBadIndex and names the offending mode and bound.
func (p *Predictor) ValidateIndex(idx []int) error {
	if len(idx) != len(p.dims) {
		return fmt.Errorf("%w: index has %d modes, model has %d", ErrBadIndex, len(idx), len(p.dims))
	}
	for k, i := range idx {
		if i < 0 || i >= p.dims[k] {
			return fmt.Errorf("%w: index %d out of range [0,%d) in mode %d", ErrBadIndex, i, p.dims[k], k)
		}
	}
	return nil
}

// Predict reconstructs the value at multi-index idx by Eq. (4). It is safe
// for concurrent use and does not allocate in steady state. A malformed
// index panics with the precise coordinate instead of a bare slice-bounds
// panic from deep inside the kernel; network-facing callers should use
// PredictChecked instead.
func (p *Predictor) Predict(idx []int) float64 {
	v, err := p.PredictChecked(idx)
	if err != nil {
		panic(err.Error())
	}
	return v
}

// PredictChecked is Predict for untrusted input: a malformed index returns a
// wrapped ErrBadIndex instead of panicking, so a serving layer can answer a
// bad request with a client error while the process keeps running.
func (p *Predictor) PredictChecked(idx []int) (float64, error) {
	if err := p.ValidateIndex(idx); err != nil {
		return 0, err
	}
	s := p.pool.Get().(*kernelScratch)
	v := p.predictInto(s, idx)
	p.pool.Put(s)
	return v, nil
}

func (p *Predictor) predictInto(s *kernelScratch, idx []int) float64 {
	s.load(p.factors, idx)
	return s.predict(p.core)
}

// minBatchParallel is the batch size below which the goroutine fan-out costs
// more than it saves and PredictBatch runs serially.
const minBatchParallel = 64

// PredictBatch reconstructs every multi-index in idxs and returns the
// predictions in matching order. Large batches are split across the
// predictor's workers (static split: per-item cost is uniform, unlike the
// skewed row updates of fitting); each worker reuses one pooled scratch for
// its whole share. Safe for concurrent use alongside Predict and other
// PredictBatch calls. A malformed index panics, as in Predict.
func (p *Predictor) PredictBatch(idxs [][]int) []float64 {
	out, err := p.PredictBatchChecked(idxs)
	if err != nil {
		panic(err.Error())
	}
	return out
}

// PredictBatchChecked is PredictBatch for untrusted input: every index is
// validated up front and the first malformed one is reported as a wrapped
// ErrBadIndex naming its position, instead of a panic. Validation happens
// exactly once — the scoring pass trusts it — so checked batches cost the
// same as PredictBatch.
func (p *Predictor) PredictBatchChecked(idxs [][]int) ([]float64, error) {
	for i, idx := range idxs {
		if err := p.ValidateIndex(idx); err != nil {
			return nil, fmt.Errorf("item %d: %w", i, err)
		}
	}
	return p.predictBatch(idxs), nil
}

// predictBatch is the shared scoring pass; indices must already be
// validated.
func (p *Predictor) predictBatch(idxs [][]int) []float64 {
	out := make([]float64, len(idxs))
	n := len(idxs)
	if n == 0 {
		return out
	}

	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < minBatchParallel {
		s := p.pool.Get().(*kernelScratch)
		for i, idx := range idxs {
			out[i] = p.predictInto(s, idx)
		}
		p.pool.Put(s)
		return out
	}

	scratches := make([]*kernelScratch, workers)
	for t := range scratches {
		scratches[t] = p.pool.Get().(*kernelScratch)
	}
	runIndexed(workers, ScheduleStatic, 1, n, func(tid, i int) {
		out[i] = p.predictInto(scratches[tid], idxs[i])
	})
	for _, s := range scratches {
		p.pool.Put(s)
	}
	return out
}
