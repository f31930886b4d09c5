package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a reported tail
// percentile for it to mean anything: a p99 of 200 samples is the second
// largest value, not a 1-in-100 event.
const minBeyond = 10

// tailRank returns the 1-based nearest rank of the highest percentile, at
// most the 99th, that leaves at least minBeyond samples above it, and that
// percentile. When even the median leaves fewer than minBeyond samples above
// it (n < 2·minBeyond), no tail percentile is supported and the maximum is
// returned as the tail, with pct 100.
func tailRank(n int) (rank int, pct float64) {
	if n <= 0 {
		return 0, 0
	}
	rank = int(math.Ceil(0.99 * float64(n)))
	if n-rank < minBeyond {
		rank = n - minBeyond
	}
	if median := (n + 1) / 2; rank < median {
		return n, 100
	}
	return rank, 100 * float64(rank) / float64(n)
}

// summary is the distribution of one timing: median, 90th percentile, the
// tail by the tailRank rule, and the sample count they are based on. All
// percentiles are nearest-rank.
type summary struct {
	N       int
	P50     float64
	P90     float64
	Tail    float64
	TailPct float64
	Max     float64
}

// summarize sorts a copy of xs and reports its median (nearest rank) and
// tail. An empty input yields the zero summary.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank, pct := tailRank(n)
	return summary{
		N:       n,
		P50:     s[(n+1)/2-1],
		P90:     s[int(math.Ceil(0.9*float64(n)))-1],
		Tail:    s[rank-1],
		TailPct: pct,
		Max:     s[n-1],
	}
}

// windowSummary summarizes a timing measured in consecutive windows (one
// second of an open-loop schedule each) as the median over windows of each
// window's percentiles, so that one stall, of the program or of the
// machine, moves one window and not the result. N is the total sample
// count; TailPct is the lowest tail percentile any window supported.
func windowSummary(windows [][]float64) summary {
	var p50s, p90s, tails []float64
	out := summary{TailPct: 100}
	for _, w := range windows {
		if len(w) == 0 {
			continue
		}
		s := summarize(w)
		p50s = append(p50s, s.P50)
		p90s = append(p90s, s.P90)
		tails = append(tails, s.Tail)
		out.N += s.N
		out.TailPct = math.Min(out.TailPct, s.TailPct)
		out.Max = math.Max(out.Max, s.Max)
	}
	out.P50, out.P90, out.Tail = median(p50s), median(p90s), median(tails)
	return out
}

// median is the nearest-rank median of xs (0 for no samples).
func median(xs []float64) float64 { return summarize(xs).P50 }

// quantile is the nearest-rank q-quantile of xs, 0 < q <= 1 (0 for no
// samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

// mean is the arithmetic mean of xs (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// interval is a half-open stretch of time [start, end).
type interval struct{ start, end time.Time }

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap one another (concurrent work started by the
// span) and may stick out past the parent; each instant of the parent is
// subtracted at most once.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			covered += cur.end.Sub(cur.start)
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end.Sub(cur.start)
	}
	return parent.end.Sub(parent.start) - covered
}

// schedule is an open-loop arrival plan: request i is due at
// start + i/rate, whatever happened to the requests before it.
type schedule struct {
	start time.Time
	rate  float64 // requests per second
}

// due returns when request i should be sent.
func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(float64(i) / s.rate * float64(time.Second)))
}

// dueLatency is an open-loop request's latency, timed from when it was
// due, so a stall also charges the requests queued behind it. late is how
// far behind schedule it was sent. queued says why: the connection that
// sent it only came free after it fell due (the server was still busy with
// earlier requests), rather than the generator waking late.
func dueLatency(due, claimed, sent, done time.Time) (latency, late time.Duration, queued bool) {
	return done.Sub(due), max(sent.Sub(due), 0), claimed.After(due)
}

// sleepSlack is how long before its due time an open-loop worker stops
// sleeping. The sleep (see preciseSleep) wakes up to about 0.1 ms late, so
// the last stretch is waited out by yielding the processor until the due
// time. Yielding for longer would keep the runtime from polling the network
// while every worker waits, which delays the server's own goroutines.
const sleepSlack = 100 * time.Microsecond

// waitUntil returns at t or as soon after it as the scheduler allows.
func waitUntil(t time.Time) {
	if d := time.Until(t) - sleepSlack; d > 0 {
		preciseSleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// iterFlops is the computed floating-point work of one P-Tucker ALS
// iteration, from the terms of the paper's Table III (time complexity
// O(N·I·J³ + N²·|Ω|·|G|) for the plain method), counting a multiply and an
// add as one flop each:
//
//   - δ (Eq. 12), per mode and observed entry, N flops per live core entry
//     (N-1 factor products, the core value, the accumulate):
//     N·|Ω|·|G|·N in all;
//   - B and c (Eqs. 10-11), per mode and observed entry, the upper triangle
//     of δδᵀ and the Xα·δ update: |Ω|·Σn (Jn(Jn+1) + 2·Jn);
//   - the row solve, per row, a Cholesky factorization (Jn³/3) and two
//     triangular solves (2·Jn²): Σn In·(Jn³/3 + 2·Jn²);
//   - the error pass (Eq. 5), per observed entry, N+1 flops per live core
//     entry plus the squared residual: |Ω|·(|G|·(N+1) + 3);
//   - with truncation (P-Tucker-Approx, Eq. 13), per observed entry, N+1
//     flops per core entry for the products and 4 for the R(β) term:
//     |Ω|·|G|·(N+5).
//
// coreNNZ is the live |G| during the iteration (IterStats.CoreNNZ).
func iterFlops(dims, ranks []int, nnz, coreNNZ int, truncate bool) float64 {
	n := float64(len(dims))
	omega := float64(nnz)
	g := float64(coreNNZ)
	flops := n * omega * g * n
	for k, in := range dims {
		j := float64(ranks[k])
		flops += omega * (j*(j+1) + 2*j)
		flops += float64(in) * (j*j*j/3 + 2*j*j)
	}
	flops += omega * (g*(n+1) + 3)
	if truncate {
		flops += omega * g * (n + 5)
	}
	return flops
}
