package main

import (
	"math"
	"testing"
	"time"
)

func TestTailRank(t *testing.T) {
	for _, c := range []struct {
		n, rank int
		pct     float64
	}{
		{1000, 990, 99},   // p99 leaves exactly 10 beyond
		{5000, 4950, 99},  // capped at p99
		{500, 490, 98},    // p99 would leave 5: fall back to p98
		{20, 10, 50},      // only the median leaves 10 beyond
		{19, 19, 100},     // not even the median: the maximum
		{1, 1, 100},       //
		{0, 0, 0},         // no samples
		{1001, 991, 99.0}, // ceil(990.99) = 991 leaves 10
	} {
		rank, pct := tailRank(c.n)
		if rank != c.rank || math.Abs(pct-c.pct) > 0.01 {
			t.Errorf("tailRank(%d) = %d, %.2f; want %d, %.2f", c.n, rank, pct, c.rank, c.pct)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000..1, unsorted
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500 || s.P90 != 900 || s.Tail != 990 || s.TailPct != 99 || s.Max != 1000 {
		t.Errorf("summarize = %+v", s)
	}
	if s := summarize([]float64{3, 1, 2}); s.P50 != 2 || s.P90 != 3 || s.Tail != 3 {
		t.Errorf("summarize of 3 samples = %+v; the tail of too few samples is the maximum", s)
	}
}

func TestWindowSummary(t *testing.T) {
	s := windowSummary([][]float64{{1, 2, 3}, nil, {10, 20, 30}, {5, 6, 7}})
	if s.P50 != 6 || s.P90 != 7 || s.N != 9 || s.Max != 30 {
		t.Errorf("windowSummary = %+v; want the median over windows of each window's p50 (6) and p90 (7)", s)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := interval{at(0), at(100)}
	children := []interval{
		{at(20), at(50)}, // overlaps the next one
		{at(10), at(30)},
		{at(60), at(70)},
		{at(65), at(68)},   // inside another child
		{at(90), at(120)},  // sticks out past the parent's end
		{at(-5), at(5)},    // starts before the parent
		{at(200), at(300)}, // outside the parent entirely
	}
	// Covered: [0,5] + [10,50] + [60,70] + [90,100] = 65 ms.
	if got := selfTime(parent, children); got != 35*time.Millisecond {
		t.Errorf("selfTime = %v, want 35ms", got)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("selfTime without children = %v, want the whole span", got)
	}
}

func TestSelfTimesFromSpans(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	spans := []span{
		{ID: 1, Name: "client.predict", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "handler.predict", Start: at(30), End: at(70)},
	}
	self := selfTimes(spans)
	if self[1] != 60*time.Microsecond || self[2] != 40*time.Microsecond {
		t.Errorf("self times = %v; want client 60µs (transport), handler 40µs", self)
	}
}

func TestDueLatency(t *testing.T) {
	start := time.Unix(100, 0)
	s := schedule{start: start, rate: 1000}
	if got := s.due(3); !got.Equal(start.Add(3 * time.Millisecond)) {
		t.Fatalf("due(3) = %v, want start+3ms", got.Sub(start))
	}
	due := s.due(3)
	after := func(us int) time.Time { return due.Add(time.Duration(us) * time.Microsecond) }
	// The connection came free 2ms after the request fell due (a stall);
	// answered 1ms after sending: 3ms from due, queued.
	lat, late, queued := dueLatency(due, after(2000), after(2000), after(3000))
	if lat != 3*time.Millisecond || late != 2*time.Millisecond || !queued {
		t.Errorf("queued behind a stall: latency %v late %v queued %v, want 3ms, 2ms, true", lat, late, queued)
	}
	// The connection was free 1ms early but the generator woke 800µs late;
	// answered 200µs after sending: still 1ms from due, late but not queued.
	lat, late, queued = dueLatency(due, after(-1000), after(800), after(1000))
	if lat != time.Millisecond || late != 800*time.Microsecond || queued {
		t.Errorf("generator late: latency %v late %v queued %v, want 1ms, 800µs, false", lat, late, queued)
	}
	// Sent before its due time: lateness is never negative.
	lat, late, queued = dueLatency(due, after(-1000), after(-10), after(490))
	if lat != 490*time.Microsecond || late != 0 || queued {
		t.Errorf("early send: latency %v late %v queued %v, want 490µs, 0, false", lat, late, queued)
	}
}

func TestWaitUntilNeverReturnsEarly(t *testing.T) {
	for _, d := range []time.Duration{0, 300 * time.Microsecond, 3 * time.Millisecond} {
		due := time.Now().Add(d)
		waitUntil(due)
		if now := time.Now(); now.Before(due) {
			t.Errorf("waitUntil(now+%v) returned %v early", d, due.Sub(now))
		}
	}
}

func TestIterFlops(t *testing.T) {
	// N=2, I=(10,20), J=(2,3), |Ω|=100, |G|=6:
	//   δ        2·100·6·2                = 2400
	//   B, c     100·(2·3+4) + 100·(3·4+6) = 2800
	//   solve    10·(8/3+8) + 20·(9+18)    = 106.67 + 540
	//   error    100·(6·3+3)              = 2100
	//   truncate 100·6·7                  = 4200
	want := 2400 + 2800 + 10*(8.0/3+8) + 540 + 2100
	if got := iterFlops([]int{10, 20}, []int{2, 3}, 100, 6, false); math.Abs(got-want) > 1e-9 {
		t.Errorf("iterFlops = %v, want %v", got, want)
	}
	if got := iterFlops([]int{10, 20}, []int{2, 3}, 100, 6, true); math.Abs(got-(want+4200)) > 1e-9 {
		t.Errorf("iterFlops with truncation = %v, want %v", got, want+4200)
	}
}

// TestPlanNamesRealWorkloadsAndMetrics checks that what plan.json adds to
// the repository's BENCHMARK.json names workloads the benchmark implements
// and metrics BENCHMARK.json lists.
func TestPlanNamesRealWorkloadsAndMetrics(t *testing.T) {
	p, err := loadPlan("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	e2e, layer := map[string]bool{}, map[string]bool{}
	for _, m := range p.EndToEnd {
		e2e[m.Name] = true
		if _, ok := p.Extra.Meaning[m.Name]; !ok {
			t.Errorf("plan.json gives no meaning for end-to-end metric %s", m.Name)
		}
	}
	for _, m := range p.PerLayer {
		layer[m.Name] = true
	}
	for name, means := range p.Extra.Meaning {
		if !e2e[name] {
			t.Errorf("plan.json meaning: %s is not an end-to-end metric", name)
		}
		for w := range means {
			if _, ok := workloads[w]; !ok && w != "fit-*" && w != "serve-*" {
				t.Errorf("plan.json meaning of %s: unknown workload %s", name, w)
			}
		}
	}
	for name, moves := range p.Extra.Moves {
		if !layer[name] {
			t.Errorf("plan.json moves: %s is not a per-layer metric", name)
		}
		for w, target := range moves {
			if _, ok := workloads[w]; !ok {
				t.Errorf("plan.json moves of %s: unknown workload %s", name, w)
			}
			if !e2e[target] {
				t.Errorf("plan.json moves of %s: %s is not an end-to-end metric", name, target)
			}
		}
	}
	for _, h := range p.Extra.HeldBack {
		if _, ok := workloads[h.Name]; !ok {
			t.Errorf("held-back workload %s has no implementation", h.Name)
		}
	}
	for name, w := range workloads {
		sw, ok := w.(serveWorkload)
		if !ok {
			continue
		}
		if p.Extra.OpenLoopRate[sw.name] <= 0 {
			t.Errorf("%s has no open_loop_rate", name)
		}
		if n := p.Extra.EchoNominal[sw.name]; n.SetupP50 <= 0 || n.ClosedMean <= 0 || n.ClosedP90 <= 0 || n.OpenP50 <= 0 {
			t.Errorf("%s has no echo_nominal for every phase: %+v", name, n)
		}
	}
}

func TestScaleToReferenceMachine(t *testing.T) {
	if d := scale(300*time.Millisecond, 0.5); d != 150*time.Millisecond {
		t.Errorf("scale(300ms, 0.5) = %v; a machine at half speed took twice the reference time", d)
	}
	if g := geoMean(0.5, 2); math.Abs(g-1) > 1e-12 {
		t.Errorf("geoMean(0.5, 2) = %v", g)
	}
	// Two closed-loop seconds on a machine at full speed and one at half:
	// half the requests, echoes twice as slow on average, the same scaled
	// rate.
	lr := loopResult{
		perSecond: []float64{800, 400, 800},
		echo:      [][]float64{{0.05, 0.05, 0.05}, {0.1, 0.1}, {0.04, 0.05, 0.06}},
	}
	if q := lr.scaledQPS(0.05); math.Abs(q-1000) > 1e-9 {
		t.Errorf("scaledQPS = %v; want 1000 (800 requests in 0.8 s of workload slots, every second)", q)
	}
	if q := lr.qps(); q != 1000 {
		t.Errorf("qps = %v; want the raw median 800 per 0.8 s", q)
	}
	// Latency seconds: latencies and echoes twice as slow in the second
	// one; a second without echoes is left out. Each quantile is scaled by
	// the same quantile of the echoes.
	lr = loopResult{
		windows: [][]float64{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {2, 4, 6, 8, 10, 12, 14, 16, 18, 20}, {100}},
		echo:    [][]float64{{0.05, 0.05, 0.08}, {0.1, 0.1, 0.16}, nil},
	}
	if p50 := lr.scaledLatency(0.5, 0.05); p50 != 5 {
		t.Errorf("scaledLatency(0.5) = %v; want 5", p50)
	}
	if p90 := lr.scaledLatency(0.9, 0.08); p90 != 9 {
		t.Errorf("scaledLatency(0.9) = %v; want 9", p90)
	}
}

func TestQuantileAndMean(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0.2, 1}, {0.5, 3}, {0.9, 5}, {1, 5}, {0.01, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if m := mean(xs); m != 3 {
		t.Errorf("mean = %v, want 3", m)
	}
	if quantile(nil, 0.5) != 0 || mean(nil) != 0 {
		t.Error("no samples: want 0")
	}
}

func TestEchoTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	for _, c := range []struct {
		at   time.Duration
		echo bool
	}{
		{0, false},
		{echoCycle - echoSlot - 1, false},
		{echoCycle - echoSlot, true},
		{echoCycle - 1, true},
		{echoCycle, false},
		{7*echoCycle - echoSlot/2, true},
	} {
		if got := echoTime(t0, t0.Add(c.at)); got != c.echo {
			t.Errorf("echoTime at %v = %v, want %v", c.at, got, c.echo)
		}
	}
}
