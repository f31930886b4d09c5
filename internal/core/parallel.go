package core

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// runIndexed distributes n work items over `threads` workers and calls
// fn(tid, item) for each item. The policy mirrors Section III-D:
//
//   - ScheduleStatic splits the items into T contiguous blocks, the "naive
//     parallelization" used for error computation and cache maintenance where
//     the per-item cost is uniform.
//   - ScheduleDynamic hands out chunks of `chunk` items from an atomic
//     counter, the OpenMP schedule(dynamic) analog used for row updates where
//     |Ω(n)[in]| skew would otherwise leave threads idle.
//
// It returns the number of items processed by each worker so callers can
// report workload balance (Figure 10 / Section IV-D).
func runIndexed(threads int, sched Scheduling, chunk int, n int, fn func(tid, item int)) []int64 {
	if threads < 1 {
		threads = 1
	}
	if threads > n {
		threads = n
		if threads == 0 {
			return nil
		}
	}
	counts := make([]int64, threads)
	var wg sync.WaitGroup
	wg.Add(threads)

	if sched == ScheduleStatic {
		for t := 0; t < threads; t++ {
			lo := t * n / threads
			hi := (t + 1) * n / threads
			go func(tid, lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					fn(tid, i)
				}
				counts[tid] = int64(hi - lo)
			}(t, lo, hi)
		}
		wg.Wait()
		return counts
	}

	if chunk < 1 {
		chunk = 1
	}
	// The chunk counter every worker hammers gets a cache line to itself.
	cursor := &new(paddedCounter).n
	for t := 0; t < threads; t++ {
		go func(tid int) {
			defer wg.Done()
			var done int64
			for {
				start := int(atomic.AddInt64(cursor, int64(chunk))) - chunk
				if start >= n {
					break
				}
				end := start + chunk
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					fn(tid, i)
				}
				done += int64(end - start)
			}
			counts[tid] = done
		}(t)
	}
	wg.Wait()
	return counts
}

// cacheLine is the cache-line size the per-thread scratch is padded to.
const cacheLine = 64

// paddedCounter is an int64 alone on its cache line.
type paddedCounter struct {
	_ [cacheLine]byte
	n int64
	_ [cacheLine]byte
}

// lineSlice returns a slice of length n whose allocation is a whole number
// of cache lines. Go's size classes put such objects on line boundaries, so
// scratch one worker writes never shares a line with data another worker
// touches — false sharing that otherwise costs the row update of a small
// core more than its arithmetic.
func lineSlice[T any](n int) []T {
	var zero T
	size := int(unsafe.Sizeof(zero))
	// The capacity must be a multiple of cacheLine / gcd(size, cacheLine).
	step := cacheLine / min(size&-size, cacheLine)
	return make([]T, n, max((n+step-1)/step*step, step))
}

// parallelSum evaluates fn for every item in [0,n) and returns the sum of the
// per-thread partial results; used for the parallel reconstruction-error pass
// (Section III-D, "Section 3").
func parallelSum(threads, n int, fn func(tid, item int) float64) float64 {
	if threads < 1 {
		threads = 1
	}
	partial := make([]float64, threads)
	runIndexed(threads, ScheduleStatic, 1, n, func(tid, item int) {
		partial[tid] += fn(tid, item)
	})
	var s float64
	for _, p := range partial {
		s += p
	}
	return s
}
