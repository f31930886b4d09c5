package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// Decompose runs Algorithm 2 (P-Tucker for Sparse Tensors) on the observed
// entries of x and returns the fitted model. It is DecomposeContext with a
// background context — no cancellation.
//
// Deprecated: use DecomposeContext, which adds cancellation and the
// Config.OnIteration observability hook. Decompose is kept as a thin
// compatibility wrapper and behaves identically for configs without a hook.
func Decompose(x *tensor.Coord, cfg Config) (*Model, error) {
	return DecomposeContext(context.Background(), x, cfg)
}

// DecomposeContext runs Algorithm 2 (P-Tucker for Sparse Tensors) on the
// observed entries of x and returns the fitted model. The variant (plain,
// Cache, Approx) is selected by cfg.Method.
//
// The loop structure follows the paper exactly: initialize factors and core
// with uniform random values in [0,1); repeatedly update every factor matrix
// with the row-wise rule (Algorithm 3) and measure the reconstruction error
// (Eq. 5); for P-Tucker-Approx, truncate noisy core entries (Algorithm 4);
// stop on convergence or MaxIters; finally orthogonalize the factors by QR
// and rotate the core by the R factors (Eqs. 7-8), which leaves the
// reconstruction error unchanged. P-Tucker-Approx adds one row-update sweep
// before the QR step (see PTuckerApprox).
//
// Cancellation is checked before each iteration and between the per-mode
// factor updates inside one, so a cancelled fit stops within one iteration
// and returns ctx.Err() (context.Canceled or context.DeadlineExceeded) with
// a nil model. cfg.OnIteration, when set, observes every iteration and may
// stop the fit early (see Config.OnIteration). cfg is never mutated; the
// normalized copy produced by Validate is what the run (and the returned
// Model.Config) uses.
func DecomposeContext(ctx context.Context, x *tensor.Coord, cfg Config) (*Model, error) {
	m, _, err := decompose(ctx, x, cfg)
	return m, err
}

// decompose is the full fitting pipeline — init, sweep, finalize — returning
// both the model and the run's mutable state so a Fitter can keep fitting
// (warm-start Refit, FoldIn) where a one-shot DecomposeContext discards it.
func decompose(ctx context.Context, x *tensor.Coord, cfg Config) (*Model, *state, error) {
	cfg, err := cfg.Validate(x.Dims())
	if err != nil {
		return nil, nil, err
	}
	if x.NNZ() == 0 {
		return nil, nil, ErrEmptyTensor
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	st := newState(x, cfg)
	model := st.newModel()
	if err := st.sweep(ctx, model); err != nil {
		return nil, nil, err
	}
	if err := st.finish(ctx, model); err != nil {
		return nil, nil, err
	}
	return model, st, nil
}

// newState performs the init phase: random factors and core from cfg.Seed
// (Algorithm 2 line 1), the per-mode row layouts, and the Pres cache for
// P-Tucker-Cache. cfg must already be validated/normalized.
func newState(x *tensor.Coord, cfg Config) *state {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := x.Order()
	factors := make([]*mat.Dense, n)
	for k := 0; k < n; k++ {
		a := mat.NewDense(x.Dim(k), cfg.Ranks[k])
		data := a.Data()
		for i := range data {
			data[i] = rng.Float64()
		}
		factors[k] = a
	}
	st := &state{
		x:       x,
		layout:  newLayouts(x, cfg.Method == PTuckerCache, cfg.Threads),
		factors: factors,
		core:    NewRandomCore(cfg.Ranks, rng),
		cfg:     cfg,
	}
	if cfg.Method == PTuckerCache {
		st.buildCache()
	}
	return st
}

// newModel wraps the state's live factors and core in a Model. The model
// aliases the state: further sweeps mutate it in place (Fitter.Snapshot deep
// copies when immutability is needed).
//
// The echoed Config drops the OnIteration hook and the SparsifyHoldout
// tensor: both are fit-time inputs, not data (they are likewise excluded
// from serialization), and keeping them would pin the hook's captured scope
// — or a whole held-out tensor — for the lifetime of a served model.
func (st *state) newModel() *Model {
	modelCfg := st.cfg
	modelCfg.OnIteration = nil
	modelCfg.SparsifyHoldout = nil
	return &Model{Factors: st.factors, Core: st.core, Config: modelCfg}
}

// sweep is the iteration phase (Algorithm 2 lines 2-7): repeated factor
// updates, error measurement, optional core refinement and truncation, trace
// recording, and the OnIteration hook, until convergence, MaxIters, early
// stop, or cancellation. It mutates st in place and records the run's
// statistics on model. On a warm start (Fitter.Refit) the state arrives
// already fitted and sweep simply continues from it.
func (st *state) sweep(ctx context.Context, model *Model) error {
	cfg := st.cfg
	x := st.x
	n := x.Order()

	prevErr := math.Inf(1)
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()

		// Lines 3: update factor matrices A(1)..A(N) by Algorithm 3.
		// Cancellation is rechecked between modes so even a single slow
		// iteration reacts to ctx within one factor update.
		// Per-thread row counts accumulate across every mode of the
		// iteration (updateFactor may return fewer slots than cfg.Threads
		// when a mode has fewer rows than workers), so WorkPerThread sums
		// to Σ_n I_n — the quantity the Figure 10 balance report needs —
		// rather than only the last mode's rows.
		work := make([]int64, cfg.Threads)
		rowStart := time.Now()
		st.buildFitTrees()
		for mode := 0; mode < n; mode++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			for t, c := range st.updateFactor(mode) {
				work[t] += c
			}
		}
		rowUpdate := time.Since(rowStart)

		// Extension (off by default): element-wise core refinement.
		if cfg.UpdateCore {
			st.updateCore()
			if st.cache != nil {
				st.buildCache() // core values changed; memoized products are stale
			}
		}

		// Line 4: reconstruction error by Eq. (5).
		errStart := time.Now()
		errNow := st.sweepError()
		errorPass := time.Since(errStart)
		// |G| is captured at the same instant as Error — after the factor
		// updates, before this iteration's truncation — so an IterStats
		// always pairs an error with the core that produced it.
		coreNNZ := st.core.NNZ()

		// Lines 5-6: P-Tucker-Approx truncates noisy core entries.
		if cfg.Method == PTuckerApprox {
			st.truncateCore()
			if st.cache != nil {
				st.buildCache()
			}
		}

		stats := IterStats{
			Iter:      iter,
			Error:     errNow,
			Elapsed:   time.Since(start),
			RowUpdate: rowUpdate,
			ErrorPass: errorPass,
			CoreNNZ:   coreNNZ,
		}
		model.Trace = append(model.Trace, stats)
		model.WorkPerThread = work
		model.TrainError = errNow

		// Observability hook: stream progress, allow early stop.
		if cfg.OnIteration != nil {
			if err := cfg.OnIteration(stats); err != nil {
				if errors.Is(err, ErrStopIteration) {
					return nil
				}
				return fmt.Errorf("core: OnIteration hook failed at iteration %d: %w", iter, err)
			}
		}

		// Line 7: stop when the error converges.
		if cfg.Tol > 0 && prevErr < math.Inf(1) {
			denom := prevErr
			if denom == 0 {
				denom = 1
			}
			if math.Abs(prevErr-errNow)/denom < cfg.Tol {
				model.Converged = true
				return nil
			}
		}
		prevErr = errNow
	}
	return nil
}

// finish is the finalize phase (Algorithm 2 lines 8-11): record the truncated
// |G|, orthogonalize the factors by QR and rotate the core by the R factors
// (Eqs. 7-8), optionally prune the core under the Sparsify budget, and
// finalize the core's canonical entry order. Truncated fits
// (P-Tucker-Approx) rotate sparsely, so the core keeps its truncated |G|
// through finalization instead of being re-densified.
//
// A P-Tucker-Approx sweep ends on a truncation, so the factors first get one
// more row-wise update against the truncated core (see PTuckerApprox);
// otherwise the returned model pairs factors fitted to the untruncated core
// with the truncated one. ctx is checked between its modes, as in the sweep.
func (st *state) finish(ctx context.Context, model *Model) error {
	approx := st.cfg.Method == PTuckerApprox
	if approx {
		start := time.Now()
		st.buildFitTrees()
		for mode := 0; mode < st.x.Order(); mode++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			st.updateFactor(mode)
		}
		last, d := &model.Trace[len(model.Trace)-1], time.Since(start)
		last.RowUpdate += d
		last.Elapsed += d
	}
	// |G| after the last truncation, recorded before finalize's rotation.
	model.FinalCoreNNZ = st.core.NNZ()
	model.IntermediateBytes = st.intermediateBytes()
	if err := finalize(st.factors, st.core, approx); err != nil {
		return fmt.Errorf("core: orthogonalization failed: %w", err)
	}
	// The rotation stales the memoized Pres products (they embed the old
	// factors and core); drop the table so any later pass — the sparsify
	// scoring below, a warm Refit — rebuilds or bypasses it.
	st.cache = nil
	st.cacheW = 0
	pruned := st.sparsifyCore()
	st.core.FinalizeLayout()
	// A truncated core (the last truncation and the refit above follow the
	// last error pass, and the sparse rotation re-truncates) or a pruned one
	// no longer matches the error the sweep measured; keep the summary
	// describing the returned model. Dense fits rotate exactly, so their
	// sweep error stands.
	if approx || pruned {
		model.TrainError = reconstructionError(st.x, st.factors, st.core, st.cfg.Threads)
	}
	return nil
}

// finalize performs A(n) = Q(n)R(n), substitutes Q(n) for A(n), and applies
// G ← G ×n R(n) for every mode (Algorithm 2 lines 8-11). With sparse set
// (truncated fits) the core rotation runs on the live entry list and
// re-truncates to the pre-rotation |G| (see RotateAllSparse) — the
// rotation's upper-triangular R factors would otherwise re-densify the core
// and silently undo what the truncation paid for. Dense fits keep the exact
// Eq. (8) semantics, under which the reconstruction error is unchanged.
func finalize(factors []*mat.Dense, g *CoreTensor, sparse bool) error {
	rs := make([]*mat.Dense, len(factors))
	for k, a := range factors {
		q, r, err := mat.QRFactor(a)
		if err != nil {
			return err
		}
		factors[k].CopyFrom(q)
		rs[k] = r
	}
	if sparse {
		g.RotateAllSparse(rs, g.NNZ(), RotationDropTol)
	} else {
		g.RotateAll(rs)
	}
	return nil
}

// state carries the mutable pieces of one Decompose run.
type state struct {
	x *tensor.Coord
	// layout holds each mode's row layout of x (see rowLayout); nil while
	// Observe, FoldIn or AttachTrainingSet have left it stale.
	layout  []*rowLayout
	factors []*mat.Dense
	core    *CoreTensor
	cfg     Config

	// cache is the Pres table of P-Tucker-Cache, flattened row-major:
	// cache[α*cacheW + e] = Gβ(e) · ∏_k A(k)[ik][jk(e)] for observed entry α
	// and live core entry e. nil for the other variants.
	cache  []float64
	cacheW int

	// keepEmptyRows makes the row update leave rows with no observations at
	// their current values instead of zeroing them. Cold fits zero such rows
	// (the exact minimizer of the regularized loss when the row starts at
	// random noise); warm refits over a delta (Fitter.Refit after
	// ResumeFitter) keep them, because "no new observations" must not erase
	// a row the served model already fitted.
	keepEmptyRows bool
}

// intermediateBytes returns the analytic intermediate-data footprint
// (Definition 7) of the configured variant, matching Table III:
// O(T·J²) for P-Tucker (each thread holds δ, c, B, and the Cholesky factor),
// plus O(|Ω|·|G|) for the cache table. The row layouts are not counted: they
// are the input data, N·|Ω|·(4N+8) bytes reordered once per mode (see
// rowLayout), standing where the inverted index stood.
func (st *state) intermediateBytes() int64 {
	maxJ := 0
	for _, j := range st.cfg.Ranks {
		if j > maxJ {
			maxJ = j
		}
	}
	perThread := int64(2*maxJ*maxJ+2*maxJ) * 8
	total := int64(st.cfg.Threads) * perThread
	if st.cfg.Method == PTuckerCache {
		total += int64(st.x.NNZ()) * int64(st.core.NNZ()) * 8
	}
	return total
}

// workspace is the per-thread scratch of the row update: the contraction
// scratch (its out slice holds δ, its cursor the tree's level sums), the
// normal matrix B, the right-hand side c, and the Cholesky factor, reused
// by every row the thread solves. Its size is what gives P-Tucker its
// O(T·J²) memory bound, plus the level sums (about |G| slots).
type workspace struct {
	kernelScratch
	b    *mat.Dense
	c    []float64
	chol mat.Cholesky
}

func newWorkspace(g *CoreTensor, maxJ int) *workspace {
	return &workspace{
		kernelScratch: *newKernelScratch(g),
		b:             mat.NewDenseData(maxJ, maxJ, lineSlice[float64](maxJ*maxJ)),
		c:             lineSlice[float64](maxJ),
	}
}

// updateFactor applies the row-wise update rule (Eq. 9) to every row of
// A(mode), in parallel (Algorithm 3 lines 5-15), and returns the per-thread
// row counts for balance reporting. Each worker's cursor resumes the
// contraction from one entry of the mode's row layout to the next.
func (st *state) updateFactor(mode int) []int64 {
	a := st.factors[mode]
	jn := st.cfg.Ranks[mode]
	threads := st.cfg.Threads
	tree := st.fitTree(mode)

	var oldA *mat.Dense
	if st.cache != nil {
		oldA = a.Clone() // needed to rescale Pres after the update
	}

	ws := make([]*workspace, threads)
	for t := range ws {
		ws[t] = newWorkspace(st.core, jn)
	}

	counts := runIndexed(threads, st.cfg.Scheduling, st.cfg.ChunkSize, a.Rows(), func(tid, in int) {
		st.updateRow(mode, in, tree, ws[tid])
	})

	if st.cache != nil {
		st.rescaleCache(mode, oldA)
	}
	return counts
}

// fitTree returns the core's tree in the level order of mode's row layout.
func (st *state) fitTree(mode int) *coreTree {
	return st.core.treeFor(st.layout[mode].levels)
}

// buildFitTrees builds every mode's fit tree ahead of a sweep over the
// modes: a tree built right before its mode's workers start makes that
// mode's update measurably slower (~10% of BenchmarkIterationPlain).
func (st *state) buildFitTrees() {
	for mode := range st.layout {
		st.fitTree(mode)
	}
}

// updateRow recomputes row in of A(mode) by Eq. (9) over the observed
// entries Ω(n)[in], read from the mode's row layout; t is the mode's fit
// tree.
func (st *state) updateRow(mode, in int, t *coreTree, w *workspace) {
	st.solveRow(mode, t, st.layout[mode].row(in), st.factors[mode].Row(in), w)
}

// solveRow is the single-row least-squares kernel of Algorithm 3: it
// accumulates B(n)[in] (Eq. 10) and c(n)[in] (Eq. 11) over the given
// entries, which must be in layout order for t's levels, then solves the SPD
// system [B + λI]ᵀ row = c in place. Rows with no observations are set to
// zero — the exact minimizer of the regularized loss for them — unless
// st.keepEmptyRows holds (warm refit). It is shared by the full per-mode
// sweep (updateRow) and by online fold-in, which solves it exactly once for
// a brand-new row at O(nnz_i·J²·|G|-factor) cost instead of running a whole
// fit.
func (st *state) solveRow(mode int, t *coreTree, entries entryRun, row []float64, w *workspace) {
	jn := st.cfg.Ranks[mode]
	n := len(st.factors)

	if len(entries.vals) == 0 {
		if st.keepEmptyRows {
			return
		}
		clear(row)
		return
	}

	b := w.b
	b.Zero()
	c := w.c[:jn]
	clear(c)

	// Sampling extension (Config.SampleRate): fit the row to a deterministic
	// stride subsample of its observations, taken in layout order. The
	// subsampled normal equations remain a well-posed ridge regression;
	// small rows are never subsampled below minSampleEntries so the system
	// stays informative.
	count := len(entries.vals)
	stride := 1
	if r := st.cfg.SampleRate; r > 0 {
		const minSampleEntries = 8
		stride = int(math.Round(1 / r))
		if count/max(stride, 1) < minSampleEntries {
			stride = count / minSampleEntries
		}
		if stride < 1 {
			stride = 1
		}
	}

	for p := 0; p < count; p += stride {
		alpha := -1
		if entries.ids != nil {
			alpha = int(entries.ids[p])
		}
		delta := st.computeDelta(mode, t, entries.coords[p*n:(p+1)*n], alpha, w)
		xv := entries.vals[p]
		// B += δδᵀ (upper triangle), c += Xα·δ.
		for j1 := 0; j1 < jn; j1++ {
			d1 := delta[j1]
			if d1 == 0 {
				continue
			}
			brow := b.Row(j1)
			for j2 := j1; j2 < jn; j2++ {
				brow[j2] += d1 * delta[j2]
			}
			c[j1] += xv * d1
		}
	}
	// Mirror to the lower triangle and add λI.
	for j1 := 0; j1 < jn; j1++ {
		for j2 := j1 + 1; j2 < jn; j2++ {
			b.Set(j2, j1, b.At(j1, j2))
		}
		b.Add(j1, j1, st.cfg.Lambda)
	}

	// Solve [B + λI] x = c. B is SPD for λ>0; Cholesky is the fast path and
	// LU the fallback for λ=0 with degenerate B. If both fail the row is
	// left unchanged, which keeps the loss monotone (skipping an update
	// can never increase it above the previous iterate).
	if err := w.chol.Factor(b); err == nil {
		copy(row, c)
		w.chol.SolveVecInPlace(row)
		return
	}
	if sol, err := mat.SolveVec(b, c); err == nil {
		copy(row, sol)
	}
}

// sweepError is the sweep's error pass, Eq. (5), over the row layout of the
// last mode: each row's entries contract the fit tree with a resuming
// cursor, as the row update does, and dot the result with the row. Each
// row's squared residual goes into its own slot and the slots are summed in
// row order, so the error is bit-identical under any thread count,
// scheduling policy and chunk size. It agrees with Model.ReconstructionError
// up to rounding: the two contract trees of different level orders.
func (st *state) sweepError() float64 {
	last := len(st.factors) - 1
	lay := st.layout[last]
	t := st.fitTree(last)
	a := st.factors[last]
	n := last + 1
	jn := st.cfg.Ranks[last]
	slots := make([]float64, a.Rows())
	scratch := scratchPerThread(st.core, st.cfg.Threads)
	runIndexed(st.cfg.Threads, st.cfg.Scheduling, st.cfg.ChunkSize, a.Rows(), func(tid, i int) {
		s := scratch[tid]
		run := lay.row(i)
		row := a.Row(i)
		var ss float64
		for p, v := range run.vals {
			at := run.coords[p*n : (p+1)*n]
			out := s.out[:jn]
			t.contract(s.loadAt(st.factors, at), at, out, &s.cur)
			r := v - mat.Dot(row, out)
			ss += r * r
		}
		slots[i] = ss
	})
	var ss float64
	for _, v := range slots {
		ss += v
	}
	return math.Sqrt(ss)
}

// updateCore is the optional element-wise core refinement (extension; see
// Config.UpdateCore): one coordinate-descent sweep over live core entries,
// each solved exactly with the residual maintained incrementally.
func (st *state) updateCore() {
	x := st.x
	g := st.core
	n := x.Order()
	nnz := x.NNZ()
	threads := st.cfg.Threads

	// Residuals r(α) = Xα - prediction(α).
	resid := make([]float64, nnz)
	scratch := scratchPerThread(g, threads)
	runIndexed(threads, ScheduleStatic, 1, nnz, func(tid, e int) {
		s := scratch[tid]
		s.load(st.factors, x.Index(e))
		resid[e] = x.Value(e) - s.predict(g)
	})

	weights := make([]float64, nnz) // wβ(α) for the current β
	for e := 0; e < g.NNZ(); e++ {
		beta := g.Index(e)
		old := g.Value(e)
		numer := parallelSum(threads, nnz, func(tid, a int) float64 {
			idx := x.Index(a)
			w := 1.0
			for k := 0; k < n; k++ {
				w *= st.factors[k].At(idx[k], beta[k])
			}
			weights[a] = w
			return w * (resid[a] + old*w)
		})
		denom := st.cfg.Lambda
		for _, w := range weights {
			denom += w * w
		}
		if denom == 0 {
			continue
		}
		next := numer / denom
		diff := next - old
		if diff != 0 {
			g.SetValue(e, next)
			for a := 0; a < nnz; a++ {
				resid[a] -= diff * weights[a]
			}
		}
	}
}
