package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/tensor"
)

// serveWorkload drives an in-process server built by serve.New on a
// loopback listener, first in a closed loop (nproc connections, each
// waiting for its answer) and then in an open loop at a fixed rate.
type serveWorkload struct {
	name   string
	online bool // durable data dir and observe traffic
}

var (
	serveRead   = serveWorkload{name: "serve-read"}
	serveOnline = serveWorkload{name: "serve-online", online: true}
)

const (
	recK          = 10
	maxExclude    = 200 // items a recommend query excludes at most
	obsPerWrite   = 4   // observations per observe request, as cmd/ptucker-loadgen sends
	streamLen     = 1 << 14
	warmupTime    = 100 * time.Millisecond
	maxRounds     = 10 // rounds of set-up, closed loop and open loop in one run
	checkPredicts = 200
	checkRecs     = 50
	rmseBatch     = 2000
)

// op is one request of a workload's stream. Bodies are encoded before any
// timer starts, except a fold-in's, whose new row index is only known when
// it is sent.
type op struct {
	endpoint       string
	body           []byte
	index          []int              // predict
	query, exclude []int              // recommend
	obs            []core.Observation // observe: appends, or a cold-start row
	fold           bool               // obs is a cold-start row; Index[0] is set at send time
}

// bench is one serve run: the live server, its client, and the streams.
type bench struct {
	env    *runEnv
	in     serveInput
	model  *core.Model // heap-loaded reference copy of the served model
	train  *tensor.Coord
	test   *tensor.Coord
	index  *tensor.ModeIndex
	ops    []op
	client *http.Client

	live     *liveServer
	dataDir  string // serve-online's data directory for live
	restarts int

	// Fold-ins must name the next new row, so they are serialized on the
	// client: foldMu is held across a fold-in request.
	foldMu   sync.Mutex
	nextUser int
	folded   []int

	tracing atomic.Bool
	reqSeq  atomic.Int64

	// echo is the reference exchange every load phase interleaves with
	// the workload's requests (see echoProbe).
	echo *echoProbe
}

// liveServer is a serve.Server behind an http.Server on 127.0.0.1.
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

func (w serveWorkload) options(b *bench, dataDir string) serve.Options {
	opts := serve.Options{
		ModelPath: b.in.modelPath,
		Mmap:      true,
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if w.online {
		// Refits and compaction stay off so the model only grows by
		// fold-ins and the run stays steady; the journal keeps its default
		// sync policy.
		opts.DataDir = dataDir
	}
	return opts
}

// start builds the server and begins serving. With trace set, every
// request passes through a wrapper that records a handler span while
// b.tracing is on.
func (b *bench) start(opts serve.Options) (*liveServer, time.Duration, error) {
	t0 := time.Now()
	srv, err := serve.New(opts)
	newTime := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("serve.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	h := srv.Handler()
	if b.env.trace {
		h = b.traceHandler(h)
	}
	l := &liveServer{srv: srv, hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, newTime, nil
}

// restart replaces the running server with a fresh one on the original
// model, with a fresh data directory for serve-online, and returns how long
// it took until /healthz answered 200 and serve.New's share of that.
func (b *bench) restart(w serveWorkload) (setup, newTime time.Duration, err error) {
	if b.live != nil {
		b.live.close()
		b.live = nil
		if err := os.RemoveAll(b.dataDir); err != nil {
			return 0, 0, err
		}
	}
	b.restarts++
	b.dataDir = filepath.Join(b.env.scratch, fmt.Sprintf("data-%d", b.restarts))
	runtime.GC()
	t0 := time.Now()
	l, newTime, err := b.start(w.options(b, b.dataDir))
	if err != nil {
		return 0, 0, err
	}
	b.live = l
	if err := b.waitHealthy(); err != nil {
		return 0, 0, err
	}
	setup = time.Since(t0)
	b.nextUser = b.model.Factors[0].Rows()
	b.folded = nil
	return setup, newTime, nil
}

func (l *liveServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// A Shutdown that times out still stops Serve, which done waits for;
	// srv.Close then fails any request left in flight.
	_ = l.hs.Shutdown(ctx)
	<-l.done
	l.srv.Close()
}

func (b *bench) traceHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !b.tracing.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		b.env.tracer.add("handler."+strings.TrimPrefix(r.URL.Path, "/v1/"), 0, r.Header.Get(obs.RequestIDHeader), t0, time.Now())
	})
}

func (w serveWorkload) run(env *runEnv) (*result, error) {
	in, err := serveModelInput(env.cache, env.seed, env.threads)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	b := &bench{env: env, in: in}
	if b.model, err = core.LoadModel(in.modelPath); err != nil {
		return nil, err
	}
	if b.train, err = store.ReadTensor(in.trainPath); err != nil {
		return nil, err
	}
	if b.test, err = store.ReadTensor(in.testPath); err != nil {
		return nil, err
	}
	b.index = tensor.NewModeIndex(b.train)
	b.ops = w.stream(b, rand.New(rand.NewSource(env.seed)))
	tr := &http.Transport{MaxConnsPerHost: env.threads, MaxIdleConnsPerHost: env.threads, DisableCompression: true}
	defer tr.CloseIdleConnections()
	b.client = &http.Client{Transport: tr, Timeout: 10 * time.Second}
	res := newResult()

	rate := env.plan.Extra.OpenLoopRate[w.name]
	if rate <= 0 {
		return nil, fmt.Errorf("plan.json has no open_loop_rate for %s", w.name)
	}
	defer func() {
		if b.live != nil {
			b.live.close()
		}
	}()
	if b.echo, err = newEchoProbe(env.threads); err != nil {
		return nil, err
	}
	defer b.echo.close()
	nominal, ok := env.plan.Extra.EchoNominal[w.name]
	if !ok {
		return nil, fmt.Errorf("plan.json has no echo_nominal for %s", w.name)
	}

	// The run repeats its set-up, closed loop and open loop in rounds. On the
	// machine the benchmark was defined on, a server runs in a fast or a slow
	// state (about 1.8 times the latency) for seconds at a time, often for as
	// long as it lives; spreading every measurement over many servers and the
	// whole run keeps one state from deciding a run's numbers. Each load
	// phase starts on a fresh server, so what one phase folded in does not
	// weigh on the next, then warms its connections up untimed. The open loop
	// gets two thirds of the time: its latencies drift with the machine more
	// than the closed loop's rate does.
	rounds := max(1, min(maxRounds, int(env.seconds/(3*time.Second))))
	closedPhase := max(env.seconds/3/time.Duration(rounds), time.Second)
	openPhase := max((env.seconds-env.seconds/3)/time.Duration(rounds), time.Second)
	begin := func(traced bool) error {
		if _, _, err := b.restart(w); err != nil {
			return err
		}
		b.closedLoop(res, warmupTime)
		b.tracing.Store(traced)
		return nil
	}
	var setups, setupEcho, news []float64
	var closed, tracedClosed, open loopResult
	var batches, coalesced float64
	var alloc uint64
	for r := 0; r < rounds; r++ {
		// Set-up: open the model, build the server, first 200 from /healthz.
		s, err := repeatSetup(setupMin/rounds+1, setupBudget/time.Duration(rounds), func() (time.Duration, error) {
			setup, newTime, err := b.restart(w)
			news = append(news, newTime.Seconds())
			// The machine's speed right after each set-up, untimed.
			setupEcho = append(setupEcho, b.echo.burst(setupEchoRequests)...)
			return setup, err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, s...)

		if err := begin(false); err != nil {
			return nil, err
		}
		before, err := b.scrape()
		if err != nil {
			return nil, err
		}
		closed.merge(b.closedLoop(res, closedPhase))
		after, err := b.scrape()
		if err != nil {
			return nil, err
		}
		batches += after["ptucker_coalesced_batches_total"] - before["ptucker_coalesced_batches_total"]
		coalesced += after["ptucker_coalesced_predictions_total"] - before["ptucker_coalesced_predictions_total"]

		if env.trace {
			if err := begin(true); err != nil {
				return nil, err
			}
			tracedClosed.merge(b.closedLoop(res, closedPhase))
		}
		// Allocation is counted in the open loop: at a fixed rate the served
		// model grows by the same fold-ins whatever the machine's speed.
		if err := begin(env.trace); err != nil {
			return nil, err
		}
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		open.merge(b.openLoop(res, openPhase, rate))
		runtime.ReadMemStats(&ms1)
		b.tracing.Store(false)
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
	}
	// Every figure is scaled to the reference machine by the same statistic
	// of the echo exchanges made beside it (see echoProbe).
	if len(setupEcho) == 0 || len(flatten(closed.echo)) == 0 || len(flatten(open.echo)) == 0 {
		return nil, errors.New("the echo probe answered no exchange, so no figure can be scaled")
	}
	res.e2e["setup_s"] = median(setups) * nominal.SetupP50 / median(setupEcho)
	res.note("set-up: %d, median %.3f ms raw, %.3f ms scaled; echo median %.4f ms (nominal %.4f ms)",
		len(setups), 1e3*median(setups), 1e3*res.e2e["setup_s"], median(setupEcho), nominal.SetupP50)
	res.e2e["ops_per_s"] = closed.scaledQPS(nominal.ClosedMean)
	res.e2e["p90_ms"] = closed.scaledLatency(0.9, nominal.ClosedP90)
	closedLat := windowSummary(closed.windows)
	res.note("closed loop: %d connections, %d requests in %.2fs of workload slots; median over whole seconds of %.0f req/s and p90 %.4f ms raw, %.0f req/s and %.4f ms scaled; echo mean %.4f ms, p90 %.4f ms (nominal %.4f ms, %.4f ms)",
		env.threads, closed.ok, closed.elapsed.Seconds()*workShare, closed.qps(), closedLat.P90, res.e2e["ops_per_s"], res.e2e["p90_ms"],
		mean(flatten(closed.echo)), quantile(flatten(closed.echo), 0.9), nominal.ClosedMean, nominal.ClosedP90)
	res.e2e["alloc_kb_per_op"] = float64(alloc) / 1024 / float64(max(open.ok, 1))
	lat := windowSummary(open.windows)
	res.e2e["p50_ms"] = open.scaledLatency(0.5, nominal.OpenP50)
	res.note("open loop: median over seconds of p50 %.4f ms raw, %.4f ms scaled; echo median %.4f ms (nominal %.4f ms)",
		lat.P50, res.e2e["p50_ms"], median(flatten(open.echo)), nominal.OpenP50)
	late := summarize(open.late)
	for i, w := range open.windows {
		ws := summarize(w)
		res.note("open loop second %d: %d samples, p50 %.3f ms, p90 %.3f ms, p%.2f %.3f ms", i, ws.N, ws.P50, ws.P90, ws.TailPct, ws.Tail)
	}
	res.note("open loop: %.0f req/s for %.2fs, %d samples; median over seconds of p50 %.3f ms, p90 %.3f ms, p%.2f %.3f ms; sent late p%.2f %.3f ms",
		rate, open.elapsed.Seconds(), lat.N, lat.P50, lat.P90, lat.TailPct, lat.Tail, late.TailPct, late.Tail)
	// Every request is timed from when it was due. One that went out late
	// because its connection was still busy is the server's delay; one whose
	// connection was free but went out late is the generator's, and if that
	// is common the schedule was not kept and the latencies mean little.
	wake := median(open.selfLate)
	res.note("open loop: %.1f%% of requests waited for a busy connection; the others left a median %.1f µs after they were due",
		open.queuedPct(), wake)
	if limit := 0.25 * 1e6 / rate; wake > limit {
		res.problem("open-loop generator did not keep its schedule: median send %.1f µs after due on free connections, over a quarter of the %.0f µs between requests", wake, 4*limit)
	}

	if env.trace {
		if batches > 0 {
			res.layers["serve.coalesce_batch_mean"] = coalesced / batches
		}
		if err := w.layers(b, res, news, closed, tracedClosed, open); err != nil {
			return nil, err
		}
	}
	b.check(res)
	return res, nil
}

// stream generates the workload's request mix from the seed. Predicts and
// recommend queries name held-out cells, which the served model never saw,
// drawn with the data's row popularity. serve-read is predicts only.
// serve-online mixes predict : recommend : observe as 16 : 2 : 1, the
// read-heavy mix with writes that the README's replication section drives
// with cmd/ptucker-loadgen; recommends rank the item mode excluding the
// user's rated items, and observes are half appends to existing cells and
// half cold-start users folded in. Every block of 38 requests holds the mix
// exactly, in shuffled order, so that seeds differ in which requests they
// send but not in how many of each kind.
func (w serveWorkload) stream(b *bench, rng *rand.Rand) []op {
	cell := func() []int {
		return append([]int(nil), b.test.Index(rng.Intn(b.test.NNZ()))...)
	}
	const block = 38 // 16 + 2 + 1, doubled to split observes in half
	var kinds []int
	ops := make([]op, 0, streamLen)
	for len(ops) < streamLen {
		kind := 0
		if w.online {
			if len(kinds) == 0 {
				kinds = rng.Perm(block)
			}
			kind, kinds = kinds[0], kinds[1:]
		}
		switch {
		case kind < 32:
			idx := cell()
			ops = append(ops, op{endpoint: "predict", index: idx, body: mustJSON(map[string][]int{"index": idx})})
		case kind < 36:
			q := cell()
			ex := b.rated(q[0])
			ops = append(ops, op{endpoint: "recommend", query: q, exclude: ex, body: mustJSON(map[string]interface{}{
				"query": q, "mode": 1, "k": recK, "exclude": ex,
			})})
		case kind == 36:
			var obs []core.Observation
			for i := 0; i < obsPerWrite; i++ {
				e := rng.Intn(b.train.NNZ())
				obs = append(obs, core.Observation{Index: append([]int(nil), b.train.Index(e)...), Value: b.train.Value(e) + 0.1*rng.NormFloat64()})
			}
			ops = append(ops, op{endpoint: "observe", obs: obs, body: mustJSON(map[string]interface{}{"observations": obs})})
		default:
			// A new user rates a few items drawn by popularity, at values
			// from the items' observed ratings.
			var fold []core.Observation
			for i := 0; i < obsPerWrite; i++ {
				e := rng.Intn(b.train.NNZ())
				idx := b.train.Index(e)
				fold = append(fold, core.Observation{Index: []int{0, idx[1], rng.Intn(b.train.Dim(2))}, Value: b.train.Value(e)})
			}
			ops = append(ops, op{endpoint: "observe", obs: fold, fold: true})
		}
	}
	return ops
}

// mustJSON encodes a request body. Bodies hold only ints and the finite
// values of generated tensors, which always encode.
func mustJSON(v interface{}) []byte {
	out, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return out
}

// rated lists the items user u rated in training, at most maxExclude.
func (b *bench) rated(u int) []int {
	var items []int
	for _, e := range b.index.Slice(0, u) {
		if len(items) == maxExclude {
			break
		}
		items = append(items, b.train.Index(e)[1])
	}
	return items
}

func (b *bench) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := b.client.Get(b.live.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("server never answered /healthz with 200")
}

// post sends one request and reports whether it succeeded: a 2xx status
// and a body that parses into out. A 200 with an empty or unparseable body
// is a failure, the same as an error status.
func (b *bench) post(endpoint string, body []byte, reqID string, out interface{}) error {
	req, err := http.NewRequest(http.MethodPost, b.live.base+"/v1/"+endpoint, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, reqID)
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: status %d: %s", endpoint, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s: status %d with unparseable body %q: %v", endpoint, resp.StatusCode, data, err)
	}
	return nil
}

type predictResp struct {
	Value *float64 `json:"value"`
}

type recommendResp struct {
	Recs []core.Rec `json:"recs"`
}

type observeResp struct {
	Appended int `json:"appended"`
	Folded   []struct {
		Mode  int `json:"mode"`
		Index int `json:"index"`
	} `json:"folded"`
}

// do sends op and checks the answer's shape. It returns when it started,
// before any wait for the fold-in lock, so that wait counts as latency.
func (b *bench) do(o op, reqID string) (sent time.Time, err error) {
	sent = time.Now()
	switch o.endpoint {
	case "predict":
		var r predictResp
		if err = b.post("predict", o.body, reqID, &r); err == nil && (r.Value == nil || math.IsNaN(*r.Value) || math.IsInf(*r.Value, 0)) {
			err = errors.New("predict: missing or non-finite value")
		}
	case "recommend":
		var r recommendResp
		if err = b.post("recommend", o.body, reqID, &r); err == nil && len(r.Recs) != recK {
			err = fmt.Errorf("recommend: %d recs, want %d", len(r.Recs), recK)
		}
	case "observe":
		if !o.fold {
			var r observeResp
			if err = b.post("observe", o.body, reqID, &r); err == nil && r.Appended != len(o.obs) {
				err = fmt.Errorf("observe: appended %d of %d", r.Appended, len(o.obs))
			}
			return sent, err
		}
		b.foldMu.Lock()
		defer b.foldMu.Unlock()
		obs := make([]core.Observation, len(o.obs))
		for i, ob := range o.obs {
			obs[i] = core.Observation{Index: []int{b.nextUser, ob.Index[1], ob.Index[2]}, Value: ob.Value}
		}
		body := mustJSON(map[string]interface{}{"observations": obs})
		var r observeResp
		if err = b.post("observe", body, reqID, &r); err != nil {
			return sent, err
		}
		if len(r.Folded) != 1 || r.Folded[0].Mode != 0 || r.Folded[0].Index != b.nextUser {
			return sent, fmt.Errorf("observe: cold-start user %d was not folded in: %+v", b.nextUser, r.Folded)
		}
		b.folded = append(b.folded, b.nextUser)
		b.nextUser++
	}
	return sent, err
}

// loopResult is one load phase.
type loopResult struct {
	ok, failed int
	elapsed    time.Duration
	perSecond  []float64            // closed loop: requests answered in each whole second
	late       []float64            // open loop: how late each request was sent (ms)
	queued     int                  // open loop: requests sent late because every connection was busy
	selfLate   []float64            // open loop: how late the others were sent (µs)
	windows    [][]float64          // latency (ms) by second; in the open loop, timed from when each request was due
	echo       [][]float64          // echo exchanges' latency (ms) by second, timed as the workload's requests
	byEndpoint map[string][]float64 // latency (ms) per endpoint
}

// closedLoop runs nproc workers, each sending its next request as soon as
// the previous one is answered, for d, and counts the requests answered in
// each whole second. The last echoSlot of every echoCycle, the workers send
// echo exchanges instead, and their latencies are kept by second.
func (b *bench) closedLoop(res *result, d time.Duration) loopResult {
	var next atomic.Int64
	var mu sync.Mutex
	lr := loopResult{byEndpoint: map[string][]float64{}}
	start := time.Now()
	deadline := start.Add(d)
	perSecond := make([]float64, int(d/time.Second))
	echo := make([][]float64, len(perSecond))
	windows := make([][]float64, len(perSecond))
	var wg sync.WaitGroup
	for w := 0; w < b.env.threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ok, failed int
			var firstErr error
			counts := make([]float64, len(perSecond))
			echoes := make([][]float64, len(perSecond))
			lats := make([][]float64, len(perSecond))
			for now := time.Now(); now.Before(deadline); now = time.Now() {
				if echoTime(start, now) {
					if e, err := b.echo.post(); err == nil {
						if sec := int(now.Sub(start) / time.Second); sec < len(echoes) {
							echoes[sec] = append(echoes[sec], ms(e))
						}
					}
					continue
				}
				i := next.Add(1) - 1
				o := b.ops[int(i)%len(b.ops)]
				id := b.requestID()
				sent, err := b.do(o, id)
				end := time.Now()
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				ok++
				if sec := int(end.Sub(start) / time.Second); sec < len(counts) {
					counts[sec]++
					lats[sec] = append(lats[sec], ms(end.Sub(sent)))
				}
				if b.tracing.Load() {
					b.env.tracer.add("client."+o.endpoint, 0, id, sent, end)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			lr.ok += ok
			lr.failed += failed
			for i, c := range counts {
				perSecond[i] += c
				echo[i] = append(echo[i], echoes[i]...)
				windows[i] = append(windows[i], lats[i]...)
			}
			if firstErr != nil {
				res.problem("closed loop: %v", firstErr)
			}
		}()
	}
	wg.Wait()
	lr.elapsed = time.Since(start)
	lr.perSecond = perSecond
	lr.echo = echo
	lr.windows = windows
	res.attempted += lr.ok + lr.failed
	res.failed += lr.failed
	return lr
}

// qps is the closed loop's raw rate: the median over its whole seconds of
// the requests answered in each per second of workload slots, so that one
// stall moves one second and not the result.
func (lr loopResult) qps() float64 { return median(lr.perSecond) / workShare }

// scaledQPS is the closed loop's rate on the reference machine: each whole
// second's rate scaled by the mean time of that second's echo exchanges
// against nominal, their mean on the reference machine, then the median
// over seconds. The mean, as a rate is, counts the moments the machine
// stalled.
func (lr loopResult) scaledQPS(nominal float64) float64 {
	var xs []float64
	for i, c := range lr.perSecond {
		if i < len(lr.echo) && len(lr.echo[i]) > 0 {
			xs = append(xs, c/workShare*mean(lr.echo[i])/nominal)
		}
	}
	return median(xs)
}

// scaledLatency is the q-quantile latency on the reference machine: each
// second's q-quantile scaled by nominal, the q-quantile of the echo
// exchanges on the reference machine, over the q-quantile of that second's
// echo exchanges, then the median over seconds.
func (lr loopResult) scaledLatency(q, nominal float64) float64 {
	var xs []float64
	for i, w := range lr.windows {
		if len(w) == 0 || i >= len(lr.echo) || len(lr.echo[i]) == 0 {
			continue
		}
		xs = append(xs, quantile(w, q)*nominal/quantile(lr.echo[i], q))
	}
	return median(xs)
}

// merge adds another round's phase to lr.
func (lr *loopResult) merge(o loopResult) {
	lr.ok += o.ok
	lr.failed += o.failed
	lr.elapsed += o.elapsed
	lr.perSecond = append(lr.perSecond, o.perSecond...)
	lr.late = append(lr.late, o.late...)
	lr.queued += o.queued
	lr.selfLate = append(lr.selfLate, o.selfLate...)
	lr.windows = append(lr.windows, o.windows...)
	lr.echo = append(lr.echo, o.echo...)
	if lr.byEndpoint == nil {
		lr.byEndpoint = map[string][]float64{}
	}
	for ep, v := range o.byEndpoint {
		lr.byEndpoint[ep] = append(lr.byEndpoint[ep], v...)
	}
}

// queuedPct is the share of the open loop's requests that waited for a
// busy connection.
func (lr loopResult) queuedPct() float64 {
	return 100 * float64(lr.queued) / float64(max(lr.queued+len(lr.selfLate), 1))
}

// openLoop sends requests due at a fixed rate for d, on at most nproc
// connections. Request i is due at start + i/rate; a worker claims the next
// due request, waits for its time and sends it. When every connection is
// busy, later requests go out late and their wait counts in their latency
// (see dueLatency). One request in echoEvery is an echo exchange, timed
// the same way and kept apart by second.
func (b *bench) openLoop(res *result, d time.Duration, rate float64) loopResult {
	sched := schedule{start: time.Now().Add(10 * time.Millisecond), rate: rate}
	end := sched.start.Add(d)
	var next atomic.Int64
	var mu sync.Mutex
	lr := loopResult{byEndpoint: map[string][]float64{}}
	var wg sync.WaitGroup
	for w := 0; w < b.env.threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lates, selfLate []float64
			var queued int
			var windows, echoes [][]float64
			byEP := map[string][]float64{}
			var ok, failed int
			var firstErr error
			for {
				i := int(next.Add(1) - 1)
				claimed := time.Now()
				due := sched.due(i)
				if !due.Before(end) {
					break
				}
				waitUntil(due)
				w := int(due.Sub(sched.start) / time.Second)
				if i%echoEvery == echoEvery-1 {
					if _, err := b.echo.post(); err == nil {
						for len(echoes) <= w {
							echoes = append(echoes, nil)
						}
						echoes[w] = append(echoes[w], ms(time.Since(due)))
					}
					continue
				}
				o := b.ops[(i-i/echoEvery)%len(b.ops)]
				id := b.requestID()
				sent, err := b.do(o, id)
				done := time.Now()
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				ok++
				latency, late, q := dueLatency(due, claimed, sent, done)
				if q {
					queued++
				} else {
					selfLate = append(selfLate, us(late))
				}
				for len(windows) <= w {
					windows = append(windows, nil)
				}
				windows[w] = append(windows[w], ms(latency))
				lates = append(lates, ms(late))
				byEP[o.endpoint] = append(byEP[o.endpoint], ms(latency))
				if b.tracing.Load() {
					b.env.tracer.add("client."+o.endpoint, 0, id, sent, done)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			lr.ok += ok
			lr.failed += failed
			for len(lr.windows) < len(windows) {
				lr.windows = append(lr.windows, nil)
			}
			for w, v := range windows {
				lr.windows[w] = append(lr.windows[w], v...)
			}
			for len(lr.echo) < len(echoes) {
				lr.echo = append(lr.echo, nil)
			}
			for w, v := range echoes {
				lr.echo[w] = append(lr.echo[w], v...)
			}
			lr.late = append(lr.late, lates...)
			lr.queued += queued
			lr.selfLate = append(lr.selfLate, selfLate...)
			for ep, v := range byEP {
				lr.byEndpoint[ep] = append(lr.byEndpoint[ep], v...)
			}
			if firstErr != nil {
				res.problem("open loop: %v", firstErr)
			}
		}()
	}
	wg.Wait()
	lr.elapsed = d
	res.attempted += lr.ok + lr.failed
	res.failed += lr.failed
	return lr
}

func (b *bench) requestID() string {
	return "pb-" + strconv.FormatInt(b.reqSeq.Add(1), 10)
}

// scrape reads the coalescer counters from /metrics.
func (b *bench) scrape() (map[string]float64, error) {
	resp, err := b.client.Get(b.live.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// check compares the server's answers with the library's on a sample, and
// scores the served model on the held-out cells.
func (b *bench) check(res *result) {
	pred := core.NewPredictor(b.model)
	rec := pred.Recommender()
	rng := rand.New(rand.NewSource(b.env.seed + 1))
	fail := func(format string, args ...interface{}) {
		res.failed++
		res.problem(format, args...)
	}

	// Predict: bit-identical to Predictor.PredictChecked.
	for i := 0; i < checkPredicts; i++ {
		idx := b.test.Index(rng.Intn(b.test.NNZ()))
		body := mustJSON(map[string][]int{"index": idx})
		var r predictResp
		res.attempted++
		if err := b.post("predict", body, b.requestID(), &r); err != nil || r.Value == nil {
			fail("check predict %v: %v", idx, err)
			continue
		}
		want, err := pred.PredictChecked(idx)
		if err != nil || math.Float64bits(*r.Value) != math.Float64bits(want) {
			res.problem("predict %v: server says %v, Predictor.PredictChecked says %v (%v)", idx, *r.Value, want, err)
		}
	}

	// Recommend: same ranking as Recommender.TopKExcluding.
	for i := 0; i < checkRecs; i++ {
		q := append([]int(nil), b.train.Index(rng.Intn(b.train.NNZ()))...)
		ex := b.rated(q[0])
		body := mustJSON(map[string]interface{}{"query": q, "mode": 1, "k": recK, "exclude": ex})
		var r recommendResp
		res.attempted++
		if err := b.post("recommend", body, b.requestID(), &r); err != nil {
			fail("check recommend %v: %v", q, err)
			continue
		}
		want, err := rec.TopKExcluding(q, 1, recK, ex)
		if err != nil || len(want) != len(r.Recs) {
			res.problem("recommend %v: server gave %d recs, Recommender.TopKExcluding %d (%v)", q, len(r.Recs), len(want), err)
			continue
		}
		for j := range want {
			if want[j].Index != r.Recs[j].Index {
				res.problem("recommend %v: rank %d is item %d on the server, %d in Recommender.TopKExcluding", q, j, r.Recs[j].Index, want[j].Index)
				break
			}
		}
	}

	// Every folded-in row predicts finite.
	if len(b.folded) > 0 {
		var idxs [][]int
		for _, u := range b.folded {
			idxs = append(idxs, []int{u, rng.Intn(b.train.Dim(1)), rng.Intn(b.train.Dim(2))})
		}
		vals, err := b.predictBatch(res, idxs)
		if err != nil {
			fail("check folded rows: %v", err)
		}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				res.problem("folded-in user %d predicts %v", b.folded[i], v)
			}
		}
		res.note("%d cold-start users folded in; every one predicts finite", len(b.folded))
	}

	// Held-out RMSE of what the server answers.
	var idxs [][]int
	for e := 0; e < b.test.NNZ(); e++ {
		idxs = append(idxs, b.test.Index(e))
	}
	vals, err := b.predictBatch(res, idxs)
	if err != nil {
		fail("held-out predictions: %v", err)
		res.e2e["test_rmse"] = math.NaN()
		return
	}
	var ss float64
	for e, v := range vals {
		d := v - b.test.Value(e)
		ss += d * d
	}
	rmse := math.Sqrt(ss / float64(len(vals)))
	base := meanBaselineRMSE(b.train, b.test)
	res.e2e["test_rmse"] = rmse
	res.note("served test_rmse %.4f over %d held-out cells (training-mean baseline %.4f)", rmse, len(vals), base)
	if math.IsNaN(rmse) || math.IsInf(rmse, 0) || !(rmse < base) {
		res.problem("served test RMSE %v: want a finite value below the training-mean baseline %v", rmse, base)
	}
}

// predictBatch scores idxs through /v1/predict-batch in body-sized chunks.
func (b *bench) predictBatch(res *result, idxs [][]int) ([]float64, error) {
	var out []float64
	for lo := 0; lo < len(idxs); lo += rmseBatch {
		hi := min(lo+rmseBatch, len(idxs))
		body := mustJSON(map[string][][]int{"indexes": idxs[lo:hi]})
		var r struct {
			Values []float64 `json:"values"`
		}
		res.attempted++
		if err := b.post("predict-batch", body, b.requestID(), &r); err != nil {
			return nil, err
		}
		if len(r.Values) != hi-lo {
			return nil, fmt.Errorf("predict-batch: %d values for %d cells", len(r.Values), hi-lo)
		}
		out = append(out, r.Values...)
	}
	return out, nil
}

// layers derives the serve workloads' per-layer metrics.
func (w serveWorkload) layers(b *bench, res *result, news []float64, closed, traced, open loopResult) error {
	L := res.layers
	env := b.env
	tr := env.tracer
	L["serve.new_s"] = median(news)
	L["input.row_skew"] = rowSkew(b.train, b.index)
	L["trace.overhead_pct"] = 100 * (closed.scaledQPS(1) - traced.scaledQPS(1)) / closed.scaledQPS(1)
	late := summarize(open.late)
	L["gen.late_ms.p99"] = late.Tail
	L["gen.queued_pct"] = open.queuedPct()
	L["gen.wake_late_us.p50"] = median(open.selfLate)
	L["gen.open_loop_samples"] = float64(len(open.late))
	for ep, v := range open.byEndpoint {
		s := summarize(v)
		L["serve.latency_ms."+ep+".p50"] = s.P50
		L["serve.latency_ms."+ep+".p99"] = s.Tail
	}

	// Handler and transport spans, matched by request id.
	spans := tr.all()
	clients := map[string]span{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "client.") {
			clients[s.Req] = s
		}
	}
	handler := map[string][]float64{}
	var transport, clientAll, handlerAll []float64
	for _, s := range spans {
		ep, ok := strings.CutPrefix(s.Name, "handler.")
		if !ok {
			continue
		}
		handler[ep] = append(handler[ep], us(s.dur()))
		c, ok := clients[s.Req]
		if !ok {
			continue
		}
		tr.setParent(s.ID, c.ID)
		transport = append(transport, us(selfTime(interval{c.Start, c.End}, []interval{{s.Start, s.End}})))
		clientAll = append(clientAll, us(c.dur()))
		handlerAll = append(handlerAll, us(s.dur()))
	}
	for ep, v := range handler {
		s := summarize(v)
		L["serve.handler_us."+ep+".p50"] = s.P50
		L["serve.handler_us."+ep+".p99"] = s.Tail
	}
	L["serve.transport_us.p50"] = median(transport)
	if c := median(clientAll); c > 0 {
		L["trace.coverage"] = (median(handlerAll) + median(transport)) / c
	}

	// Model open through the store, the first thing serve.New does.
	opens, err := repeatSetup(setupMin, setupBudget, func() (time.Duration, error) {
		t0 := time.Now()
		src, err := store.OpenModel(b.in.modelPath, true)
		d := time.Since(t0)
		if err == nil {
			err = src.Close()
		}
		return d, err
	})
	if err != nil {
		return err
	}
	L["store.open_model_s"] = median(opens)

	// Kernels, replayed on the workload's own request stream.
	pred := core.NewPredictorShared(b.model)
	var pIdx [][]int
	var rQ, appends, folds []op
	for _, o := range b.ops {
		switch {
		case o.endpoint == "predict":
			pIdx = append(pIdx, o.index)
		case o.endpoint == "recommend":
			rQ = append(rQ, o)
		case o.fold:
			folds = append(folds, o)
		default:
			appends = append(appends, o)
		}
	}
	const perBatch = 256
	var perCall []float64
	for lo := 0; lo+perBatch <= len(pIdx); lo += perBatch {
		t0 := time.Now()
		for _, idx := range pIdx[lo : lo+perBatch] {
			pred.Predict(idx)
		}
		perCall = append(perCall, us(time.Since(t0))/perBatch)
	}
	L["core.predict_us"] = median(perCall)

	if w.online {
		rec := pred.Recommender()
		var rt []float64
		for _, r := range rQ[:min(len(rQ), 500)] {
			t0 := time.Now()
			if _, err := rec.TopKExcluding(r.query, 1, recK, r.exclude); err != nil {
				return err
			}
			rt = append(rt, us(time.Since(t0)))
		}
		L["core.recommend_us"] = median(rt)

		f, err := core.ResumeFitter(b.model, b.model.Config)
		if err != nil {
			return err
		}
		var ft, st []float64
		for _, fold := range folds[:min(len(folds), 300)] {
			u := f.Dims()[0]
			obs := make([]core.Observation, len(fold.obs))
			for i, ob := range fold.obs {
				obs[i] = core.Observation{Index: []int{u, ob.Index[1], ob.Index[2]}, Value: ob.Value}
			}
			t0 := time.Now()
			if _, err := f.FoldIn(0, obs); err != nil {
				return err
			}
			t1 := time.Now()
			f.Snapshot()
			ft = append(ft, us(t1.Sub(t0)))
			st = append(st, us(time.Since(t1)))
		}
		L["core.foldin_us"] = median(ft)
		L["core.snapshot_us"] = median(st)

		j, err := store.CreateJournal(filepath.Join(env.scratch, "replay.ptkj"), b.train.Order(), 0, store.SyncPolicy{})
		if err != nil {
			return err
		}
		var jt []float64
		for _, o := range appends[:min(len(appends), 2000)] {
			t0 := time.Now()
			if _, err := j.Append(o.obs); err != nil {
				j.Close()
				return err
			}
			jt = append(jt, us(time.Since(t0)))
		}
		if err := j.Close(); err != nil {
			return err
		}
		js := summarize(jt)
		L["store.journal_append_us.p50"] = js.P50
		L["store.journal_append_us.p99"] = js.Tail
	}

	// Allocations per request through the handler in-process, without the
	// network. Observe is measured with append batches only so the model
	// does not grow.
	h := b.live.srv.Handler()
	allocs := func(endpoint string, bodies [][]byte) float64 {
		const n = 200
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/"+endpoint, bytes.NewReader(bodies[i%len(bodies)]))
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / n
	}
	bodies := map[string][][]byte{}
	for _, o := range b.ops {
		if !o.fold {
			bodies[o.endpoint] = append(bodies[o.endpoint], o.body)
		}
	}
	for ep, bs := range bodies {
		L["serve.handler_allocs."+ep] = allocs(ep, bs)
	}
	return nil
}
