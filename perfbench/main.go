// Command perfbench is the repository's benchmark. It runs one workload on
// inputs generated from a seed and prints, as the last line of its output,
// one JSON object: a correctness verdict, the operations attempted and
// failed, and either every end-to-end metric (untraced run) or every
// per-layer metric (traced run, -trace 1). Run it from the repository root
// through the script that builds it:
//
//	bash perfbench/run.sh --workload fit-3way --seed 1 --seconds 30 --trace 0
//
// Workloads, metrics, their units and bounds are listed in BENCHMARK.json at
// the repository root, which the benchmark reads when it starts; what each
// metric means on each workload, and which layer metric should move which
// end-to-end metric on which workload, are in plan.json.
// Inputs are generated before any timer starts and cached per seed under
// .bench_build/cache; each run's spans and a full record of the result (CPU,
// core count, Go version, source digest, seed) go to .bench_build/results.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

//go:embed plan.json
var planJSON []byte

// metric is one metric as BENCHMARK.json lists it.
type metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// plan is the benchmark's definition. The metrics, their units and bounds
// and the measured workloads come from BENCHMARK.json at the repository
// root; plan.json adds what that file has no room for.
type plan struct {
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
	Extra    struct {
		Note string `json:"note"`
		// HeldBack lists workloads that run by name but are not in
		// BENCHMARK.json, each with the reason.
		HeldBack []struct {
			Name   string `json:"name"`
			Why    string `json:"why"`
			Reason string `json:"reason"`
		} `json:"held_back"`
		Meaning      map[string]map[string]string `json:"meaning"`
		Moves        map[string]map[string]string `json:"moves"`
		OpenLoopRate map[string]float64           `json:"open_loop_rate"`
		// EchoNominal is, per serve workload, the statistics of the echo
		// exchanges on the reference machine that each scaled figure is
		// divided by (see echoProbe), in ms.
		EchoNominal map[string]struct {
			SetupP50   float64 `json:"setup_p50_ms"`
			ClosedMean float64 `json:"closed_mean_ms"`
			ClosedP90  float64 `json:"closed_p90_ms"`
			OpenP50    float64 `json:"open_p50_ms"`
		} `json:"echo_nominal"`
	}
}

// loadPlan reads benchmarkPath (BENCHMARK.json) and the embedded plan.json.
func loadPlan(benchmarkPath string) (*plan, error) {
	var p plan
	b, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	if err := json.Unmarshal(planJSON, &p.Extra); err != nil {
		return nil, fmt.Errorf("plan.json: %w", err)
	}
	return &p, nil
}

// runEnv is everything a workload needs to know about its run.
type runEnv struct {
	seed    int64
	seconds time.Duration
	trace   bool
	threads int
	cache   string // per-seed input cache
	scratch string // per-run working files (data directories)
	tracer  *tracer
	plan    *plan
}

// A run repeats its set-up at least setupMin times and for at least
// setupBudget in all, and reports the median. Spreading the repeats over
// seconds rather than milliseconds keeps one burst of noise on the machine
// from moving a set-up time that is itself a few milliseconds.
const (
	setupMin    = 31
	setupBudget = 3 * time.Second
)

// repeatSetup calls setup at least n times and for at least budget, and
// returns the durations it reported, in seconds.
func repeatSetup(n int, budget time.Duration, setup func() (time.Duration, error)) ([]float64, error) {
	var xs []float64
	start := time.Now()
	for len(xs) < n || time.Since(start) < budget {
		d, err := setup()
		if err != nil {
			return nil, err
		}
		xs = append(xs, d.Seconds())
	}
	return xs, nil
}

// result is what a workload measured.
type result struct {
	attempted, failed int
	e2e               map[string]float64
	layers            map[string]float64
	notes             []string
	problems          []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (r *result) note(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// problem records a failed correctness check; any problem makes the run
// incorrect.
func (r *result) problem(format string, args ...interface{}) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type workload interface {
	run(env *runEnv) (*result, error)
}

var workloads = map[string]workload{
	"fit-3way":        fit3way,
	"fit-4way-approx": fit4wayApprox,
	"serve-read":      serveRead,
	"serve-online":    serveOnline,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Int("seconds", 10, "how long to measure")
	traceFlag := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	root := fs.String("root", ".bench_build", "directory for caches and results")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := loadPlan("BENCHMARK.json")
	if err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	scratch := filepath.Join(*root, "run", fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	results := filepath.Join(*root, "results")
	if err := os.MkdirAll(results, 0o755); err != nil {
		return err
	}
	env := &runEnv{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *traceFlag == 1,
		threads: runtime.NumCPU(),
		cache:   filepath.Join(*root, "cache"),
		scratch: scratch,
		tracer:  newTracer(*traceFlag == 1),
		plan:    p,
	}
	res, err := w.run(env)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}

	out := output{
		Correct:   len(res.problems) == 0 && res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricOut{},
	}
	if env.trace {
		for _, m := range p.PerLayer {
			// A layer the workload does not exercise did no work: 0.
			out.Metrics[m.Name] = metricOut{res.layers[m.Name], m.Unit}
		}
	} else {
		for _, m := range p.EndToEnd {
			v, ok := res.e2e[m.Name]
			if !ok {
				return fmt.Errorf("%s: end-to-end metric %s was not measured", *name, m.Name)
			}
			out.Metrics[m.Name] = metricOut{v, m.Unit}
		}
	}

	tag := fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *traceFlag)
	info := describeHost(*seed)
	record := struct {
		Workload string            `json:"workload"`
		Host     map[string]string `json:"host"`
		Notes    []string          `json:"notes"`
		Problems []string          `json:"problems"`
		Result   output            `json:"result"`
	}{*name, info, res.notes, res.problems, out}
	b, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(results, tag+".json"), b, 0o644); err != nil {
		return err
	}
	if env.trace {
		if err := writeSpans(filepath.Join(results, tag+".spans.jsonl"), env.tracer.all()); err != nil {
			return err
		}
	}

	keys := make([]string, 0, len(info))
	for k := range info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "# %s: %s\n", k, info[k])
	}
	for _, n := range res.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	for _, pr := range res.problems {
		fmt.Fprintf(stdout, "# INCORRECT: %s\n", pr)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// describeHost records what the numbers were measured on.
func describeHost(seed int64) map[string]string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]string{
		"cpu":        cpu,
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     sourceCommit(),
		"seed":       fmt.Sprint(seed),
	}
}
