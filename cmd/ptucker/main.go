// Command ptucker factorizes a sparse tensor file with the P-Tucker family
// and writes the factor matrices and core tensor to an output directory. A
// fitted model can also be persisted to a single binary file (-save) and
// reloaded later for evaluation or serving (-load), skipping the fit.
//
// The input is either the text format of the published P-Tucker datasets
// (one observed entry per line, whitespace-separated 1-based indices
// followed by the value) or the binary snapshot format written by
// -save-tensor — the encoding is auto-detected, and binary files carry
// their own order, so -order may be omitted for them. -save-tensor writes
// the (post-split) training tensor as a binary snapshot: it loads an order
// of magnitude faster than text, and doubles as the training-set sidecar a
// serving data directory (ptucker-serve -data-dir) resumes refits from.
//
// Fitting honors SIGINT/SIGTERM: the first signal cancels the run's context
// and the fit stops within one ALS iteration; -progress streams a line per
// iteration as it completes instead of dumping the trace at the end.
//
// Usage:
//
//	ptucker -input ratings.tns -order 3 -ranks 10,10,10 -out ./factors
//	ptucker -input x.tns -order 4 -ranks 5,5,5,5 -method approx -p 0.2
//	ptucker -input ratings.tns -order 3 -ranks 10,10,10 -progress -save model.ptkm -save-tensor ratings.ptkt
//	ptucker -input ratings.ptkt -ranks 10,10,10            # binary input; order auto-detected
//	ptucker -load model.ptkm -input ratings.tns -order 3   # evaluate a saved model
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/tensor"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func main() {
	var (
		input      = flag.String("input", "", "input tensor file (required unless -load)")
		order      = flag.Int("order", 0, "tensor order N (required unless -load)")
		ranks      = flag.String("ranks", "", "comma-separated core ranks J1..JN (required unless -load)")
		method     = flag.String("method", "ptucker", "variant: ptucker, cache, approx")
		lambda     = flag.Float64("lambda", 0.01, "L2 regularization λ")
		iters      = flag.Int("iters", 20, "maximum ALS iterations")
		tol        = flag.Float64("tol", 1e-4, "relative-error convergence tolerance (0 disables)")
		p          = flag.Float64("p", 0.2, "truncation rate for -method approx")
		threads    = flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
		seed       = flag.Int64("seed", 1, "random seed")
		out        = flag.String("out", "", "output directory for text factors and core (optional)")
		split      = flag.Float64("split", 0, "hold out this fraction of entries as a test set (e.g. 0.1)")
		sparsify   = flag.Float64("sparsify", 0, "prune low-responsibility core entries post-fit within this relative error budget (e.g. 0.05; with -split the budget is checked on the held-out set)")
		save       = flag.String("save", "", "write the fitted model to this binary file")
		saveTensor = flag.String("save-tensor", "", "write the training tensor to this file as a binary snapshot (fast reload; serving sidecar)")
		load       = flag.String("load", "", "load a saved model instead of fitting (skips decomposition)")
		progress   = flag.Bool("progress", false, "stream one line per ALS iteration while fitting")
	)
	flag.Parse()

	// First SIGINT/SIGTERM cancels the context — the fit stops within one
	// iteration; a second signal kills the process the usual way. The
	// AfterFunc unregisters the handler as soon as the context dies, since
	// NotifyContext alone would keep swallowing signals until stop() runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)

	if *load != "" {
		if err := runLoaded(*load, *input, *order); err != nil {
			fatal(err)
		}
		return
	}

	if *input == "" || *ranks == "" {
		fmt.Fprintln(os.Stderr, "ptucker: -input and -ranks are required (or -load)")
		flag.Usage()
		os.Exit(2)
	}
	if *order <= 0 {
		// Binary snapshots declare their own order; text files need -order.
		if format, err := tensor.DetectFormatFile(*input); err != nil {
			fatal(err)
		} else if format != tensor.FormatBinary {
			fmt.Fprintln(os.Stderr, "ptucker: -order is required for text tensors (binary snapshots carry their own)")
			flag.Usage()
			os.Exit(2)
		}
		*order = 0
	}

	x, err := tensor.ReadFile(*input, *order, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %v\n", x)
	ranksList, err := parseRanks(*ranks, x.Order())
	if err != nil {
		fatal(err)
	}

	var test *tensor.Coord
	if *split > 0 {
		rng := newRand(*seed)
		x, test = x.Split(1-*split, rng)
		fmt.Printf("split: %d train / %d test entries\n", x.NNZ(), test.NNZ())
	}

	if *saveTensor != "" {
		if err := store.WriteTensor(*saveTensor, x); err != nil {
			fatal(err)
		}
		fmt.Printf("saved training tensor snapshot to %s (%d entries)\n", *saveTensor, x.NNZ())
	}

	cfg := core.Defaults(ranksList)
	cfg.Lambda = *lambda
	cfg.MaxIters = *iters
	cfg.Tol = *tol
	cfg.TruncationRate = *p
	cfg.Threads = *threads
	cfg.Seed = *seed
	cfg.Sparsify = *sparsify
	if *sparsify > 0 && test != nil {
		cfg.SparsifyHoldout = test
	}
	switch *method {
	case "ptucker":
		cfg.Method = core.PTucker
	case "cache":
		cfg.Method = core.PTuckerCache
	case "approx":
		cfg.Method = core.PTuckerApprox
	default:
		fatal(fmt.Errorf("unknown method %q (want ptucker, cache, approx)", *method))
	}
	var streamed core.IterStats
	if *progress {
		cfg.OnIteration = func(it core.IterStats) error {
			printIter(it)
			streamed = it
			return nil
		}
	}

	m, err := core.DecomposeContext(ctx, x, cfg)
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "ptucker: interrupted — fit cancelled before completion")
		os.Exit(130)
	}
	if err != nil {
		fatal(err)
	}
	if !*progress {
		for _, it := range m.Trace {
			printIter(it)
		}
	} else if n := len(m.Trace); n > 0 && m.Trace[n-1].RowUpdate > streamed.RowUpdate {
		// The P-Tucker-Approx finalize refit runs after the last streamed
		// line; its time is folded into the trace's last iteration.
		fmt.Printf("finalize refit: %.3gs (counted in iter %d)\n",
			(m.Trace[n-1].RowUpdate - streamed.RowUpdate).Seconds(), m.Trace[n-1].Iter)
	}
	fmt.Printf("final: error %.6g, fit %.4f, converged %v\n", m.TrainError, m.Fit(x), m.Converged)
	if test != nil {
		fmt.Printf("test RMSE: %.6g over %d held-out entries\n", m.RMSE(test), test.NNZ())
	}

	if *save != "" {
		if err := core.SaveModel(*save, m); err != nil {
			fatal(err)
		}
		fmt.Printf("saved model to %s\n", *save)
	}
	if *out != "" {
		if err := writeModel(*out, m); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote factors and core to %s\n", *out)
	}
}

// runLoaded serves the -load path: read a saved model, report its provenance,
// and — when a tensor is supplied — evaluate it.
func runLoaded(path, input string, order int) error {
	m, err := core.LoadModel(path)
	if err != nil {
		return err
	}
	fmt.Printf("loaded model %s: order %d, ranks %v, method %s, %d iterations recorded\n",
		path, m.Order(), m.Config.Ranks, m.Config.Method, len(m.Trace))
	fmt.Printf("training error at save time: %.6g (converged %v)\n", m.TrainError, m.Converged)

	if input == "" {
		return nil
	}
	if order <= 0 {
		order = m.Order()
	}
	x, err := tensor.ReadFile(input, order, nil)
	if err != nil {
		return err
	}
	fmt.Printf("evaluating on %v\n", x)
	fmt.Printf("reconstruction error %.6g, fit %.4f, RMSE %.6g\n",
		m.ReconstructionError(x), m.Fit(x), m.RMSE(x))
	return nil
}

func parseRanks(s string, order int) ([]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) != order {
		return nil, fmt.Errorf("ptucker: %d ranks given for order %d", len(parts), order)
	}
	ranks := make([]int, order)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("ptucker: bad rank %q: %v", p, err)
		}
		ranks[i] = v
	}
	return ranks, nil
}

// writeModel stores each factor matrix as a TSV file (rows x ranks) and the
// core tensor in the sparse text format.
func writeModel(dir string, m *core.Model) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for n, a := range m.Factors {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("factor%d.tsv", n+1)))
		if err != nil {
			return err
		}
		for i := 0; i < a.Rows(); i++ {
			row := a.Row(i)
			for j, v := range row {
				if j > 0 {
					fmt.Fprint(f, "\t")
				}
				fmt.Fprintf(f, "%g", v)
			}
			fmt.Fprintln(f)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	f, err := os.Create(filepath.Join(dir, "core.tns"))
	if err != nil {
		return err
	}
	defer f.Close()
	for e := 0; e < m.Core.NNZ(); e++ {
		idx := m.Core.Index(e)
		for k, i := range idx {
			if k > 0 {
				fmt.Fprint(f, "\t")
			}
			fmt.Fprintf(f, "%d", i+1)
		}
		fmt.Fprintf(f, "\t%g\n", m.Core.Value(e))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptucker:", err)
	os.Exit(1)
}

// printIter prints one ALS iteration: its error, wall time and the share of
// it spent in the row updates and the error pass, and |G|.
func printIter(it core.IterStats) {
	fmt.Printf("iter %2d: error %.6g (%.3gs: rows %.3gs, error pass %.3gs; |G|=%d)\n",
		it.Iter, it.Error, it.Elapsed.Seconds(), it.RowUpdate.Seconds(), it.ErrorPass.Seconds(), it.CoreNNZ)
}
