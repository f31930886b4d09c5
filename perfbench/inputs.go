package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/tensor"
)

// Input sizes. They are part of the benchmark's definition: changing one
// changes what every recorded number means.
var (
	// fit-3way: (user, item, time) with power-law users and items.
	fit3Dims  = []int{6000, 4000, 40}
	fit3Ranks = []int{8, 8, 8}
	fit3NNZ   = 80000
	fit3Iters = 3

	// fit-4way-approx: synth.MovieLens' (user, movie, year, hour) shape,
	// scaled up from its 600×240, 24k-rating default at the same density.
	fit4Users, fit4Movies = 1500, 600
	fit4NNZ               = 150000
	fit4Ranks             = []int{6, 6, 4, 4}
	fit4Iters             = 4
	fit4Truncation        = 0.2

	// serve-*: one model per seed, fitted once and cached. The item mode
	// has thousands of rows so /v1/recommend sweeps a real catalogue.
	serveDims  = []int{4000, 3000, 30}
	serveRanks = []int{8, 8, 8}
	serveNNZ   = 60000
	serveIters = 3
)

const (
	// inputsVersion names the generators' current behaviour in the cache
	// key; bump it when a generator changes.
	inputsVersion = "v1"
	plantNoise    = 0.5
	// zipfS and zipfV shape row popularity in the skewed modes:
	// P(rank k) ∝ (zipfV + k)^-zipfS.
	zipfS, zipfV = 1.3, 8
	trainFrac    = 0.9
)

// fitInput is what a fit workload reads: the training snapshot and the
// held-out cells, both files written by store.WriteTensor.
type fitInput struct {
	trainPath, testPath string
}

// serveInput is what a serve workload reads: a model file written by
// core.SaveModel, plus the tensors it was fitted on and tested against
// (for generating request streams and checking answers).
type serveInput struct {
	modelPath, trainPath, testPath string
}

// cached runs make unless dir already holds a complete earlier result for
// the same key. Inputs are pure functions of (workload, sizes, seed), so a
// completed directory can be reused by any later run with that seed.
func cached(dir string, make func(dir string) error) error {
	done := filepath.Join(dir, "complete")
	if _, err := os.Stat(done); err == nil {
		return nil
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := make(dir); err != nil {
		return err
	}
	return os.WriteFile(done, nil, 0o644)
}

// writeSplit splits x 90/10 into training and held-out cells and writes
// both. Held-out cells on a row with no training cell are dropped: no model
// can place a row it never saw (its factor row stays zero), and with
// power-law rows how many such cells a seed draws would otherwise decide
// the held-out RMSE.
func writeSplit(dir string, x *tensor.Coord, rng *rand.Rand) (train, test *tensor.Coord, err error) {
	train, all := x.Split(trainFrac, rng)
	seen := tensor.NewModeIndex(train)
	test = tensor.NewCoord(x.Dims())
	for e := 0; e < all.NNZ(); e++ {
		idx := all.Index(e)
		placed := true
		for k, i := range idx {
			placed = placed && seen.Count(k, i) > 0
		}
		if placed {
			test.MustAppend(idx, all.Value(e))
		}
	}
	if err := store.WriteTensor(filepath.Join(dir, "train.ptkt"), train); err != nil {
		return nil, nil, err
	}
	if err := store.WriteTensor(filepath.Join(dir, "test.ptkt"), test); err != nil {
		return nil, nil, err
	}
	return train, test, nil
}

func fit3Input(root string, seed int64) (fitInput, error) {
	dir := filepath.Join(root, fmt.Sprintf("%s-fit-3way-%v-%d-%d", inputsVersion, fit3Dims, fit3NNZ, seed))
	err := cached(dir, func(dir string) error {
		rng := rand.New(rand.NewSource(seed))
		x := skewedTucker(rng, fit3Dims, fit3Ranks, fit3NNZ, 2)
		_, _, err := writeSplit(dir, x, rng)
		return err
	})
	return fitInput{filepath.Join(dir, "train.ptkt"), filepath.Join(dir, "test.ptkt")}, err
}

func fit4Input(root string, seed int64) (fitInput, error) {
	dir := filepath.Join(root, fmt.Sprintf("%s-fit-4way-%d-%d-%d-%d", inputsVersion, fit4Users, fit4Movies, fit4NNZ, seed))
	err := cached(dir, func(dir string) error {
		cfg := synth.DefaultMovieLensConfig()
		cfg.Users, cfg.Movies, cfg.NNZ, cfg.Seed = fit4Users, fit4Movies, fit4NNZ, seed
		x := synth.MovieLens(cfg).X
		_, _, err := writeSplit(dir, x, rand.New(rand.NewSource(seed)))
		return err
	})
	return fitInput{filepath.Join(dir, "train.ptkt"), filepath.Join(dir, "test.ptkt")}, err
}

// serveModelInput fits the served model. The fit is set-up of the input,
// not part of any measurement.
func serveModelInput(root string, seed int64, threads int) (serveInput, error) {
	dir := filepath.Join(root, fmt.Sprintf("%s-serve-%v-%d-%d", inputsVersion, serveDims, serveNNZ, seed))
	err := cached(dir, func(dir string) error {
		rng := rand.New(rand.NewSource(seed))
		x := skewedTucker(rng, serveDims, serveRanks, serveNNZ, 2)
		train, _, err := writeSplit(dir, x, rng)
		if err != nil {
			return err
		}
		cfg := core.Defaults(serveRanks)
		cfg.MaxIters, cfg.Tol, cfg.Threads, cfg.Seed = serveIters, 0, threads, seed
		m, err := core.DecomposeContext(context.Background(), train, cfg)
		if err != nil {
			return fmt.Errorf("fit served model: %w", err)
		}
		return core.SaveModel(filepath.Join(dir, "model.ptkm"), m)
	})
	return serveInput{
		modelPath: filepath.Join(dir, "model.ptkm"),
		trainPath: filepath.Join(dir, "train.ptkt"),
		testPath:  filepath.Join(dir, "test.ptkt"),
	}, err
}

// plantedModel is a random Tucker model: factors and core uniform in [0,1).
type plantedModel struct {
	dims, ranks []int
	factors     [][]float64 // factors[k][i*ranks[k]+j]
	core        []float64   // mode 0 varies fastest
}

func newPlantedModel(rng *rand.Rand, dims, ranks []int) *plantedModel {
	p := &plantedModel{dims: dims, ranks: ranks, factors: make([][]float64, len(dims))}
	size := 1
	for k, d := range dims {
		f := make([]float64, d*ranks[k])
		for i := range f {
			f[i] = rng.Float64()
		}
		p.factors[k] = f
		size *= ranks[k]
	}
	p.core = make([]float64, size)
	for i := range p.core {
		p.core[i] = rng.Float64()
	}
	return p
}

// value evaluates the model at idx by contracting the core one mode at a
// time, last mode first; buf must hold len(core) floats.
func (p *plantedModel) value(idx []int, buf []float64) float64 {
	cur := append(buf[:0], p.core...)
	for k := len(idx) - 1; k >= 0; k-- {
		j := p.ranks[k]
		size := len(cur) / j
		row := p.factors[k][idx[k]*j : (idx[k]+1)*j]
		for b := 0; b < size; b++ {
			var s float64
			for jj, a := range row {
				s += cur[jj*size+b] * a
			}
			cur[b] = s
		}
		cur = cur[:size]
	}
	return cur[0]
}

// skewedTucker samples nnz distinct cells of a random Tucker model plus
// Gaussian noise of plantNoise. The first skewModes modes draw their rows
// from a Zipf law over a random permutation of the rows (a few very popular
// users and items, a long tail); the rest are uniform. The power law is what
// makes per-row work uneven, so the row scheduler matters.
func skewedTucker(rng *rand.Rand, dims, ranks []int, nnz, skewModes int) *tensor.Coord {
	p := newPlantedModel(rng, dims, ranks)
	n := len(dims)
	zipfs := make([]*rand.Zipf, n)
	perms := make([][]int, n)
	for k := 0; k < skewModes; k++ {
		zipfs[k] = rand.NewZipf(rng, zipfS, zipfV, uint64(dims[k]-1))
		perms[k] = rng.Perm(dims[k])
	}
	x := tensor.NewCoord(dims)
	seen := make(map[uint64]struct{}, nnz)
	idx := make([]int, n)
	buf := make([]float64, len(p.core))
	for x.NNZ() < nnz {
		var key uint64
		for k, d := range dims {
			if zipfs[k] != nil {
				idx[k] = perms[k][zipfs[k].Uint64()]
			} else {
				idx[k] = rng.Intn(d)
			}
			key = key*uint64(d) + uint64(idx[k])
		}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		x.MustAppend(idx, p.value(idx, buf)+plantNoise*rng.NormFloat64())
	}
	return x
}
