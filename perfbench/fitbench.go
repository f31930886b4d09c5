package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/store"
	"repro/internal/tensor"
)

// fitWorkload is a cold fit of one generated tensor with a fixed iteration
// count (Tol 0), so every fit of a run does the same work.
type fitWorkload struct {
	input  func(root string, seed int64) (fitInput, error)
	config func(seed int64, threads int) core.Config
}

var fit3way = fitWorkload{
	input: fit3Input,
	config: func(seed int64, threads int) core.Config {
		cfg := core.Defaults(fit3Ranks)
		cfg.MaxIters, cfg.Tol, cfg.Threads, cfg.Seed = fit3Iters, 0, threads, seed
		return cfg
	},
}

var fit4wayApprox = fitWorkload{
	input: fit4Input,
	config: func(seed int64, threads int) core.Config {
		cfg := core.Defaults(fit4Ranks)
		cfg.MaxIters, cfg.Tol, cfg.Threads, cfg.Seed = fit4Iters, 0, threads, seed
		cfg.Method, cfg.TruncationRate = core.PTuckerApprox, fit4Truncation
		return cfg
	},
}

const (
	// minFits is the fewest fits a run makes, however long each takes.
	minFits = 3
	// setupReadsPerFit is how many set-up reads follow each fit.
	setupReadsPerFit = 3
)

// fitSample is one measured DecomposeContext call.
type fitSample struct {
	wall  time.Duration
	speed float64 // the machine's speed over the call (see scaler)
	alloc uint64  // TotalAlloc delta across the call
	model *core.Model
	// Traced fits only: the phase spans reconstructed from the OnIteration
	// hook (init ends where the first iteration starts, finalize starts
	// when the last hook returns).
	start, end time.Time
	iters      []iterSpan
	lastHook   time.Time
}

type iterSpan struct {
	start, end time.Time
	stats      core.IterStats
}

// fitOnce runs one cold fit. With traced set, the OnIteration hook records
// when each iteration ended; otherwise no hook is installed.
func fitOnce(x *tensor.Coord, cfg core.Config, traced bool) (fitSample, error) {
	var s fitSample
	if traced {
		cfg.OnIteration = func(st core.IterStats) error {
			now := time.Now()
			s.iters = append(s.iters, iterSpan{start: now.Add(-st.Elapsed), end: now, stats: st})
			s.lastHook = time.Now()
			return nil
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.start = time.Now()
	m, err := core.DecomposeContext(context.Background(), x, cfg)
	s.end = time.Now()
	runtime.ReadMemStats(&after)
	s.wall = s.end.Sub(s.start)
	s.alloc = after.TotalAlloc - before.TotalAlloc
	s.model = m
	return s, err
}

// spans records the traced fit's phase spans under one fit span.
func (s fitSample) spans(tr *tracer) {
	root := tr.add("fit", 0, "", s.start, s.end)
	tr.add("core.init", root, "", s.start, s.iters[0].start)
	for _, it := range s.iters {
		tr.add(fmt.Sprintf("core.iter.%d", it.stats.Iter), root, "", it.start, it.end)
	}
	tr.add("core.finalize", root, "", s.lastHook, s.end)
}

func (w fitWorkload) run(env *runEnv) (*result, error) {
	in, err := w.input(env.cache, env.seed)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	test, err := store.ReadTensor(in.testPath)
	if err != nil {
		return nil, err
	}
	res := newResult()
	// Every timing is scaled by the machine's speed over it (see scaler).
	sc := newScaler(newCPUProbe(env.threads))

	// Set-up: reading the training snapshot.
	var train *tensor.Coord
	var rawSetups []float64
	read := func() (time.Duration, error) {
		runtime.GC()
		t0 := time.Now()
		x, err := store.ReadTensor(in.trainPath)
		d := time.Since(t0)
		train = x
		rawSetups = append(rawSetups, d.Seconds())
		return d, err
	}
	setups, err := repeatSetup(setupMin, setupBudget, func() (time.Duration, error) {
		d, err := read()
		return scale(d, sc.bracket()), err
	})
	if err != nil {
		return nil, err
	}
	cfg := w.config(env.seed, env.threads)

	// Measure: cold fits, back to back, until the run's time is used. A
	// traced run alternates untraced and traced fits so the difference
	// between the two is the tracing overhead.
	var plain, traced []fitSample
	deadline := time.Now().Add(env.seconds)
	for i := 0; len(plain)+len(traced) < minFits || time.Now().Before(deadline); i++ {
		withTrace := env.trace && i%2 == 1
		s, err := fitOnce(train, cfg, withTrace)
		s.speed = sc.bracket()
		// More set-up reads after every fit, each scaled by the reading just
		// taken, so that the set-up time samples the machine over the whole
		// run as the fits do and not only over its first seconds.
		for k := 0; k < setupReadsPerFit; k++ {
			d, err := read()
			if err != nil {
				return nil, err
			}
			setups = append(setups, scale(d, sc.last).Seconds())
		}
		res.attempted++
		if err != nil {
			res.failed++
			res.problem("fit %d: %v", i, err)
			continue
		}
		if withTrace {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	res.e2e["setup_s"] = median(setups)
	res.note("set-up: %d reads, median %.2f ms scaled (p10 %.2f ms, p90 %.2f ms), %.2f ms raw (p10 %.2f ms, p90 %.2f ms)",
		len(setups), 1e3*median(setups), 1e3*quantile(setups, 0.1), 1e3*quantile(setups, 0.9),
		1e3*median(rawSetups), 1e3*quantile(rawSetups, 0.1), 1e3*quantile(rawSetups, 0.9))
	if len(plain) == 0 {
		return res, nil
	}

	var walls, raw, speeds, allocs []float64
	var total time.Duration
	for _, s := range plain {
		d := scale(s.wall, s.speed)
		walls = append(walls, ms(d))
		raw = append(raw, ms(s.wall))
		speeds = append(speeds, s.speed)
		allocs = append(allocs, float64(s.alloc)/1024)
		total += d
	}
	sum := summarize(walls)
	res.e2e["ops_per_s"] = float64(len(plain)) / total.Seconds()
	res.e2e["p50_ms"] = sum.P50
	res.e2e["p90_ms"] = sum.P90
	res.e2e["alloc_kb_per_op"] = median(allocs)
	res.note("fits: %d untraced, scaled p50 %.1f ms, p90 %.1f ms (nearest rank of %d), raw p50 %.1f ms", len(plain), sum.P50, sum.P90, sum.N, median(raw))
	res.note("fits in order, scaled ms %.0f; raw ms %.0f; machine speed %.2f", walls, raw, speeds)

	// Correctness: equal seeds give bit-identical models, and the model
	// predicts held-out cells better than the training mean does.
	m := plain[0].model
	for i, s := range append(plain[1:], traced...) {
		if s.model.TrainError != m.TrainError {
			res.problem("fit %d: train error %v differs from the first fit's %v under an equal seed", i+1, s.model.TrainError, m.TrainError)
		}
	}
	rmse := m.RMSE(test)
	base := meanBaselineRMSE(train, test)
	res.e2e["test_rmse"] = rmse
	res.note("test_rmse %.4f over %d held-out cells (training-mean baseline %.4f)", rmse, test.NNZ(), base)
	res.note("training RMSE: %.4f reported by Model.TrainError, %.4f of the returned model",
		m.TrainError/math.Sqrt(float64(train.NNZ())), m.RMSE(train))
	if math.IsNaN(rmse) || math.IsInf(rmse, 0) || !(rmse < base) {
		res.problem("test RMSE %v: want a finite value below the training-mean baseline %v", rmse, base)
	}

	if env.trace {
		if err := w.layers(env, res, train, cfg, plain, traced); err != nil {
			return nil, err
		}
		res.layers["store.read_tensor_s"] = median(rawSetups)
	}
	return res, nil
}

// meanBaselineRMSE is the held-out RMSE of predicting the training mean.
func meanBaselineRMSE(train, test *tensor.Coord) float64 {
	var mean float64
	for _, v := range train.Values() {
		mean += v
	}
	mean /= float64(train.NNZ())
	var ss float64
	for _, v := range test.Values() {
		ss += (v - mean) * (v - mean)
	}
	return math.Sqrt(ss / float64(test.NNZ()))
}

// layers derives the fit's per-layer metrics. Phase times (init, each
// iteration, finalize) come from the traced fits' hook spans. The error pass
// and truncation run inside an iteration where no hook reaches, so they are
// measured by replaying the same public calls, Model.ReconstructionError and
// core.PartialErrors, on a core with the traced |G| of each iteration.
// Truncation scoring and the sparse finalize rotation, P-Tucker-Approx's
// layers, are replayed on every fit workload so that they are measured on
// the tensor of any workload the benchmark runs; only an Approx fit spends
// that time inside its own fit.
func (w fitWorkload) layers(env *runEnv, res *result, train *tensor.Coord, cfg core.Config, plain, traced []fitSample) error {
	if len(traced) == 0 {
		return errors.New("no traced fit completed")
	}
	tr := env.tracer
	var inits, finals, iterS, coverage, tracedWalls, plainWalls, firstIters []float64
	for _, s := range plain {
		plainWalls = append(plainWalls, s.wall.Seconds())
	}
	for _, s := range traced {
		s.spans(tr)
		init := s.iters[0].start.Sub(s.start)
		final := s.end.Sub(s.lastHook)
		inits = append(inits, init.Seconds())
		finals = append(finals, final.Seconds())
		covered := init + final
		for _, it := range s.iters {
			iterS = append(iterS, it.stats.Elapsed.Seconds())
			covered += it.stats.Elapsed
		}
		firstIters = append(firstIters, s.iters[0].stats.Elapsed.Seconds())
		coverage = append(coverage, covered.Seconds()/s.wall.Seconds())
		tracedWalls = append(tracedWalls, s.wall.Seconds())
	}
	last := traced[len(traced)-1]
	m := last.model
	iters := summarize(iterS)
	L := res.layers
	L["core.init_s"] = median(inits)
	L["core.finalize_s"] = median(finals)
	L["core.iter_s.p50"] = iters.P50
	L["core.iter_s.max"] = iters.Max
	L["core.iters"] = float64(len(m.Trace))
	L["core.intermediate_mb"] = float64(m.IntermediateBytes) / 1e6
	L["core.core_nnz_final"] = float64(m.Core.NNZ())
	L["trace.coverage"] = median(coverage)
	L["trace.overhead_pct"] = 100 * (median(tracedWalls) - median(plainWalls)) / median(plainWalls)

	// Inverted index build, the part of init that tensor owns.
	var idxS []float64
	var mi *tensor.ModeIndex
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		mi = tensor.NewModeIndex(train)
		idxS = append(idxS, time.Since(t0).Seconds())
		tr.add("replay.tensor.NewModeIndex", 0, "", t0, time.Now())
	}
	L["tensor.index_s"] = median(idxS)
	L["input.row_skew"] = rowSkew(train, mi)

	// Error pass and truncation, replayed once per iteration at that
	// iteration's |G| on an unfinalized core, the layout the fit runs on.
	approx := cfg.Method == core.PTuckerApprox
	var errPass, trunc, flops, iterTotal float64
	for _, it := range last.iters {
		g := replayCore(cfg.Ranks, it.stats.CoreNNZ, env.seed)
		rm := &core.Model{Factors: m.Factors, Core: g, Config: core.Config{Threads: cfg.Threads}}
		t0 := time.Now()
		rm.ReconstructionError(train)
		errPass += time.Since(t0).Seconds()
		tr.add("replay.core.errpass", 0, "", t0, time.Now())
		t0 = time.Now()
		core.PartialErrors(core.NewStateForAnalysis(train, m.Factors, g, cfg.Threads))
		trunc += time.Since(t0).Seconds()
		tr.add("replay.core.PartialErrors", 0, "", t0, time.Now())
		flops += iterFlops(train.Dims(), cfg.Ranks, train.NNZ(), it.stats.CoreNNZ, approx)
		iterTotal += it.stats.Elapsed.Seconds()
	}
	L["core.errpass_s"] = errPass
	L["core.truncate_s"] = trunc
	L["core.rowupdate_s"] = iterTotal - errPass
	if approx {
		L["core.rowupdate_s"] -= trunc
	}
	t0, t1, err := replaySparseFinalize(m, cfg, env.seed)
	if err != nil {
		return err
	}
	tr.add("replay.core.finalize_sparse", 0, "", t0, t1)
	L["core.finalize_sparse_s"] = t1.Sub(t0).Seconds()
	L["core.model_flops_per_iter"] = flops / float64(len(last.iters))
	L["core.effective_gflops"] = flops / iterTotal / 1e9

	// Parallel efficiency: one single-thread iteration against the
	// T-thread first iteration, t_1 / (T·t_T).
	one := cfg
	one.Threads, one.MaxIters = 1, 1
	s1, err := fitOnce(train, one, true)
	if err != nil {
		return fmt.Errorf("single-thread iteration: %w", err)
	}
	L["core.parallel_eff"] = s1.iters[0].stats.Elapsed.Seconds() / (float64(cfg.Threads) * median(firstIters))
	return nil
}

// replaySparseFinalize times P-Tucker-Approx's finalize on the fitted
// model's factors: a QR factorization of every factor matrix and the
// sparsity-preserving core rotation, CoreTensor.RotateAllSparse, on a core cut
// to the |G| that one truncation at cfg's rate (Defaults' when cfg has none)
// leaves. The model is not changed. It returns when the timed part started
// and ended.
func replaySparseFinalize(m *core.Model, cfg core.Config, seed int64) (start, end time.Time, err error) {
	p := cfg.TruncationRate
	if p == 0 {
		p = core.Defaults(cfg.Ranks).TruncationRate
	}
	full := 1
	for _, j := range cfg.Ranks {
		full *= j
	}
	keep := int(float64(full) * (1 - p))
	g := replayCore(cfg.Ranks, keep, seed)
	start = time.Now()
	rs := make([]*mat.Dense, len(m.Factors))
	for k, a := range m.Factors {
		// QRFactor works on a copy; the model's factors stay as they are.
		_, r, err := mat.QRFactor(a)
		if err != nil {
			return start, start, fmt.Errorf("replay finalize: %w", err)
		}
		rs[k] = r
	}
	g.RotateAllSparse(rs, keep, core.RotationDropTol)
	return start, time.Now(), nil
}

// rowSkew is the largest row's share of its mode's entries against the
// mean row's, max over modes of max_i |Ω(n)[i]| / (|Ω| / I_n).
func rowSkew(x *tensor.Coord, mi *tensor.ModeIndex) float64 {
	skew := 0.0
	for k := 0; k < x.Order(); k++ {
		mean := float64(x.NNZ()) / float64(x.Dim(k))
		skew = math.Max(skew, float64(mi.MaxRowLoad(k))/mean)
	}
	return skew
}

// replayCore returns an unfinalized random core of the given ranks cut to
// nnz live entries.
func replayCore(ranks []int, nnz int, seed int64) *core.CoreTensor {
	g := core.NewRandomCore(ranks, rand.New(rand.NewSource(seed)))
	if drop := g.NNZ() - nnz; drop > 0 {
		mask := make([]bool, g.NNZ())
		for i := 0; i < drop; i++ {
			mask[i] = true
		}
		g.RemoveEntries(mask)
	}
	return g
}
