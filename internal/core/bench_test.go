package core

// Ablation micro-benchmarks for the reproduction's design choices:
// plain vs cached δ computation (and its order sweep), core truncation cost,
// dynamic vs static scheduling, the sampling extension, and the parallel
// error pass.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// benchTensor builds a shared 3-order workload: 10k entries over 1k³ cells.
func benchTensor(b *testing.B) *tensor.Coord {
	b.Helper()
	rng := rand.New(rand.NewSource(77))
	return uniformTensor(rng, []int{1000, 1000, 1000}, 10000)
}

func benchConfig(method Method) Config {
	cfg := Defaults([]int{4, 4, 4})
	cfg.Method = method
	cfg.MaxIters = 1
	cfg.Tol = 0
	cfg.Threads = 2
	cfg.Seed = 3
	return cfg
}

// BenchmarkIterationPlain measures one full ALS iteration of plain P-Tucker.
func BenchmarkIterationPlain(b *testing.B) {
	x := benchTensor(b)
	cfg := benchConfig(PTucker)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(x, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIterationCache is the cached-δ ablation of the same iteration.
func BenchmarkIterationCache(b *testing.B) {
	x := benchTensor(b)
	cfg := benchConfig(PTuckerCache)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(x, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIterationApprox is the truncated-core ablation.
func BenchmarkIterationApprox(b *testing.B) {
	x := benchTensor(b)
	cfg := benchConfig(PTuckerApprox)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(x, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// skewedTensor builds the shape of a (user, item, time) rating log: about
// 20k distinct cells over 1500×1000×40, users and items drawn from a Zipf
// law over shuffled rows (a few heavy rows, a long tail), time uniform.
// Unlike benchTensor's uniform 1k³ cells, the entries of a row here share
// coordinates — a user's ratings fall into 40 time slots — which is what
// the row layout's resumed contraction exploits.
func skewedTensor(b *testing.B) *tensor.Coord {
	b.Helper()
	rng := rand.New(rand.NewSource(79))
	dims := []int{1500, 1000, 40}
	zipfs := []*rand.Zipf{rand.NewZipf(rng, 1.3, 8, uint64(dims[0]-1)), rand.NewZipf(rng, 1.3, 8, uint64(dims[1]-1))}
	perms := [][]int{rng.Perm(dims[0]), rng.Perm(dims[1])}
	x := tensor.NewCoord(dims)
	seen := make(map[[3]int]bool)
	for x.NNZ() < 20000 {
		cell := [3]int{perms[0][zipfs[0].Uint64()], perms[1][zipfs[1].Uint64()], rng.Intn(dims[2])}
		if seen[cell] {
			continue
		}
		seen[cell] = true
		x.MustAppend(cell[:], rng.Float64())
	}
	return x
}

// BenchmarkIterationSkewed is BenchmarkIterationPlain on skewedTensor at
// J=8: the shape of a skewed rating log, where rows share coordinates.
func BenchmarkIterationSkewed(b *testing.B) {
	x := skewedTensor(b)
	cfg := benchConfig(PTucker)
	cfg.Ranks = []int{8, 8, 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(x, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIterationOrder is the Figure 6(a) order sweep of the plain vs
// cached δ trade: one iteration at J=3 per mode on 10k entries over 1k^N
// cells, N = 3, 4, 5. Plain δ costs about |G| multiplies per observed entry
// whatever N is; the cache trades that for O(1) per (α,β) pair plus an
// |Ω|·|G| table it must rebuild and rescale.
func BenchmarkIterationOrder(b *testing.B) {
	for _, order := range []int{3, 4, 5} {
		dims := make([]int, order)
		ranks := make([]int, order)
		for k := range dims {
			dims[k], ranks[k] = 1000, 3
		}
		x := uniformTensor(rand.New(rand.NewSource(77)), dims, 10000)
		for _, method := range []Method{PTucker, PTuckerCache} {
			cfg := benchConfig(method)
			cfg.Ranks = ranks
			b.Run(fmt.Sprintf("order=%d/%v", order, method), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Decompose(x, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkIterationSampled measures the sampling extension at 50%.
func BenchmarkIterationSampled(b *testing.B) {
	x := benchTensor(b)
	cfg := benchConfig(PTucker)
	cfg.SampleRate = 0.5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(x, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulingDynamic and ...Static compare the two row-distribution
// policies of Section III-D on a skewed workload.
func benchScheduling(b *testing.B, s Scheduling) {
	b.Helper()
	rng := rand.New(rand.NewSource(78))
	x := tensor.NewCoord([]int{500, 500, 500})
	idx := make([]int, 3)
	for x.NNZ() < 10000 {
		if x.NNZ()%2 == 0 {
			idx[0] = rng.Intn(3) // hot rows
		} else {
			idx[0] = rng.Intn(500)
		}
		idx[1], idx[2] = rng.Intn(500), rng.Intn(500)
		x.MustAppend(idx, rng.Float64())
	}
	cfg := benchConfig(PTucker)
	cfg.Scheduling = s
	cfg.Threads = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(x, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulingDynamic(b *testing.B) { benchScheduling(b, ScheduleDynamic) }
func BenchmarkSchedulingStatic(b *testing.B)  { benchScheduling(b, ScheduleStatic) }

// BenchmarkPartialErrors measures the R(β) scoring pass of Algorithm 4.
func BenchmarkPartialErrors(b *testing.B) {
	x := benchTensor(b)
	cfg := benchConfig(PTucker)
	m, err := Decompose(x, cfg)
	if err != nil {
		b.Fatal(err)
	}
	st := NewStateForAnalysis(x, m.Factors, m.Core, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PartialErrors(st)
	}
}

// BenchmarkErrorPass measures the parallel Eq. (5) reconstruction pass.
func BenchmarkErrorPass(b *testing.B) {
	x := benchTensor(b)
	cfg := benchConfig(PTucker)
	m, err := Decompose(x, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.ReconstructionError(x)
	}
}

// BenchmarkFoldIn tracks the online fold-in hot path: one row-wise
// least-squares solve (O(nnz_i·J²·|G|)) plus the copy-on-write row append,
// per new entity admitted to a served model.
func BenchmarkFoldIn(b *testing.B) {
	x := benchTensor(b)
	cfg := benchConfig(PTucker)
	f := NewFitter(cfg)
	if _, err := f.Fit(context.Background(), x); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const obsPerRow = 20
	items := make([]int, obsPerRow*b.N)
	ctxs := make([]int, obsPerRow*b.N)
	for i := range items {
		items[i] = rng.Intn(x.Dim(1))
		ctxs[i] = rng.Intn(x.Dim(2))
	}
	obs := make([]Observation, obsPerRow)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newRow := x.Dim(0) + i
		for j := range obs {
			obs[j] = Observation{Index: []int{newRow, items[i*obsPerRow+j], ctxs[i*obsPerRow+j]}, Value: 0.5}
		}
		if _, err := f.FoldIn(0, obs); err != nil {
			b.Fatal(err)
		}
	}
}
