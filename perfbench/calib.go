package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"time"
)

// The machine the benchmark runs on is a few virtual CPUs of a shared host,
// and their speed drifts: the same fixed work takes up to twice as long for
// seconds or minutes at a time, in wall time and in the process's CPU time
// alike, while the guest sees no stolen time. Medians within one run do not
// take that out of a comparison between runs, so every end-to-end time is
// scaled to a reference machine by a probe, fixed work of the benchmark's
// own, built from the standard library only, measured beside the timed
// work:
//
//	scaled = measured · nominal / probe
//
// where probe is a statistic of the probe's times measured beside the work
// (the one matching the figure: a median for a median, a mean for a rate)
// and nominal the same statistic on the machine the benchmark was defined
// on, so a scaled time reads as the time on that machine. A change
// to the program does not change a probe. Fits are bracketed by readings of
// cpuProbe; serve workloads interleave echoProbe's exchanges with their own
// requests. Raw times are kept in each result's notes.

// probeReps is how many times one reading repeats cpuProbe; it reports the
// median, so one interrupt does not move it.
const probeReps = 5

// scaler brackets timed work with readings of a cpuProbe.
type scaler struct {
	p    *cpuProbe
	last float64 // the latest reading, which opens the next bracket
}

func newScaler(p *cpuProbe) *scaler {
	s := &scaler{p: p}
	s.last = p.speed()
	return s
}

// bracket takes a new reading after timed work that followed the previous
// one and returns the machine's speed over the work: the geometric mean of
// the readings before and after it.
func (s *scaler) bracket() float64 {
	before := s.last
	s.last = s.p.speed()
	return geoMean(before, s.last)
}

// scale is d as it would have taken on the reference machine, given the
// machine's speed over it.
func scale(d time.Duration, speed float64) time.Duration {
	return time.Duration(float64(d) * speed)
}

func geoMean(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	return math.Sqrt(a * b)
}

// cpuProbe is a fixed piece of the kind of work a fit does, run on every
// thread at once: for a stream of observed cells it gathers one row of each
// of three rank-8 factor matrices and contracts them with a dense 8×8×8
// core, the shape of P-Tucker's δ computation (independent multiply-adds
// over rows gathered at random). It is the benchmark's own code, so a
// change to the program's kernels does not change it.
type cpuProbe struct {
	threads int
	rows    [3][]float64 // factor matrices, row-major
	core    []float64
	cells   [][3]int32 // shared by all threads
}

const (
	probeRank     = 8
	cpuProbeRows  = 4096
	cpuProbeCells = 1500 // cells per thread and measure
	// cpuProbeNominal is cpuProbe's median reading with 2 threads on the
	// 2-vCPU Intel Xeon VM the benchmark was defined on.
	cpuProbeNominal = 8 * time.Millisecond
)

func newCPUProbe(threads int) *cpuProbe {
	p := &cpuProbe{threads: threads}
	// A fixed linear congruential generator: the same inputs on every run.
	x := uint64(12345)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33
	}
	for m := range p.rows {
		p.rows[m] = make([]float64, cpuProbeRows*probeRank)
		for i := range p.rows[m] {
			p.rows[m][i] = float64(next()%1000)/1000 - 0.5
		}
	}
	p.core = make([]float64, probeRank*probeRank*probeRank)
	for i := range p.core {
		p.core[i] = float64(next()%1000)/1000 - 0.5
	}
	p.cells = make([][3]int32, cpuProbeCells)
	for i := range p.cells {
		for m := range p.cells[i] {
			p.cells[i][m] = int32(next() % cpuProbeRows)
		}
	}
	return p
}

var probeSink float64

// delta is the probe's unit of work: for one cell, and for each of the three
// modes in turn, the vector δ = G ×(other modes) their factor rows.
func (p *cpuProbe) delta(c [3]int32, out *[probeRank]float64) float64 {
	const J = probeRank
	a := p.rows[0][int(c[0])*J : int(c[0])*J+J]
	b := p.rows[1][int(c[1])*J : int(c[1])*J+J]
	d := p.rows[2][int(c[2])*J : int(c[2])*J+J]
	var s float64
	for mode := 0; mode < 3; mode++ {
		*out = [J]float64{}
		for i := 0; i < J; i++ {
			for j := 0; j < J; j++ {
				g := p.core[(i*J+j)*J : (i*J+j)*J+J]
				for k := 0; k < J; k++ {
					v := g[k]
					switch mode {
					case 0:
						out[i] += v * b[j] * d[k]
					case 1:
						out[j] += v * a[i] * d[k]
					default:
						out[k] += v * a[i] * b[j]
					}
				}
			}
		}
		s += out[0]
	}
	return s
}

func (p *cpuProbe) measure() time.Duration {
	var wg sync.WaitGroup
	sums := make([]float64, p.threads)
	t0 := time.Now()
	for t := 0; t < p.threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			var out [probeRank]float64
			var s float64
			for i, c := range p.cells {
				c[0] = (c[0] + int32(t)*7) % cpuProbeRows
				s += p.delta(c, &out) * float64(i&1)
			}
			sums[t] = s
		}(t)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, s := range sums {
		probeSink += s
	}
	return d
}

// speed is one reading of the probe: cpuProbeNominal over the median of
// probeReps measures, above 1 when the machine runs faster than the
// reference.
func (p *cpuProbe) speed() float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		xs[i] = float64(p.measure())
	}
	return float64(cpuProbeNominal) / median(xs)
}

// echoProbe is a fixed HTTP exchange of the kind the serve workloads make:
// a standard-library server on a loopback listener decodes a JSON body
// naming a cell, hands it to a worker goroutine and waits for the answer,
// as the program's request coalescer does, and answers with a JSON value,
// which the client decodes. Its time moves with the cost of system calls,
// loopback networking, JSON and waking goroutines, which is most of a
// served request's, and it is the benchmark's own code, so a change to the
// program does not change it. The serve workloads interleave echo exchanges
// with their own requests on the same schedule (every load phase gives the
// last echoSlot of each echoCycle to them in the closed loop, and one
// request in echoEvery in the open loop), so both meet the same machine,
// and scale each second's figures by the same statistic of that second's
// echo exchanges against its value on the reference machine.
type echoProbe struct {
	hs     *http.Server
	done   chan error
	url    string
	client *http.Client
	tr     *http.Transport

	jobs       chan echoJob
	stop       chan struct{} // closed to stop the worker and any handler waiting for it
	workerDone chan struct{}
}

type echoJob struct {
	index []int
	reply chan float64 // buffered, one answer
}

const (
	echoCycle = 50 * time.Millisecond
	echoSlot  = 10 * time.Millisecond
	echoEvery = 6
	// workShare is the share of a closed loop's time given to the
	// workload's own requests.
	workShare = float64(echoCycle-echoSlot) / float64(echoCycle)
	// setupEchoRequests is how many echo exchanges follow each set-up.
	setupEchoRequests = 20
)

// echoTime reports whether a closed loop that began at start sends echo
// exchanges at now.
func echoTime(start, now time.Time) bool {
	return now.Sub(start)%echoCycle >= echoCycle-echoSlot
}

var (
	echoRequest = []byte(`{"index":[1207,45,17]}`)
)

func newEchoProbe(threads int) (*echoProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &echoProbe{
		done:       make(chan error, 1),
		url:        "http://" + ln.Addr().String() + "/echo",
		jobs:       make(chan echoJob),
		stop:       make(chan struct{}),
		workerDone: make(chan struct{}),
	}
	go p.worker()
	p.hs = &http.Server{Handler: http.HandlerFunc(p.serve)}
	go func() { p.done <- p.hs.Serve(ln) }()
	p.tr = &http.Transport{MaxConnsPerHost: threads, MaxIdleConnsPerHost: threads, DisableCompression: true}
	p.client = &http.Client{Transport: p.tr, Timeout: 10 * time.Second}
	return p, nil
}

func (p *echoProbe) worker() {
	defer close(p.workerDone)
	for {
		select {
		case j := <-p.jobs:
			v := 0.0
			for k, i := range j.index {
				v += float64(i) * float64(k+1) / 1e4
			}
			j.reply <- v
		case <-p.stop:
			return
		}
	}
}

func (p *echoProbe) serve(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Index []int `json:"index"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	j := echoJob{index: req.Index, reply: make(chan float64, 1)}
	select {
	case p.jobs <- j:
	case <-p.stop:
		http.Error(w, "stopping", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// A write error means the client went away; there is no one to tell.
	_ = json.NewEncoder(w).Encode(struct {
		Value float64 `json:"value"`
	}{<-j.reply})
}

// post makes one echo exchange and reports how long it took.
func (p *echoProbe) post() (time.Duration, error) {
	t0 := time.Now()
	resp, err := p.client.Post(p.url, "application/json", bytes.NewReader(echoRequest))
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	var out struct {
		Value *float64 `json:"value"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK || out.Value == nil {
		return 0, fmt.Errorf("echo: status %d", resp.StatusCode)
	}
	return time.Since(t0), nil
}

// burst makes n echo exchanges one after another and returns their times
// in ms. A failed exchange on loopback is not a measurement and is left out.
func (p *echoProbe) burst(n int) []float64 {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if d, err := p.post(); err == nil {
			xs = append(xs, ms(d))
		}
	}
	return xs
}

// close stops the probe's server and worker and waits for both to end.
func (p *echoProbe) close() {
	p.tr.CloseIdleConnections()
	_ = p.hs.Close()
	<-p.done
	close(p.stop)
	<-p.workerDone
}

// flatten joins per-second samples into one list.
func flatten(xss [][]float64) []float64 {
	var out []float64
	for _, xs := range xss {
		out = append(out, xs...)
	}
	return out
}
