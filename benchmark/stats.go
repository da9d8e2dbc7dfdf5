package main

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// tailQuantile is the reporting rule for timings: the highest percentile
// that still has at least ten samples beyond it, capped at p99. Below 20
// samples even the median has fewer than ten samples above it, so the tail
// falls back to the median.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return min(0.99, 1-10/float64(n))
}

// quantile returns the q-quantile of sorted samples with linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// quartiles returns the first quartile, median and third quartile of values
// exactly as Python's statistics.quantiles(values, n=4) computes them (the
// default "exclusive" method), so spreads reported here match the ones the
// acceptance rule in README.md recomputes.
func quartiles(values []float64) (q1, med, q3 float64) {
	data := slices.Clone(values)
	slices.Sort(data)
	ld := len(data)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return data[0], data[0], data[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(ld-1, j))
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// samples is an exact list of timings, for workloads with few, long ops.
type samples []float64

func (s samples) quantile(q float64) float64 {
	sorted := slices.Clone(s)
	slices.Sort(sorted)
	return quantile(sorted, q)
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// subBits sets the histogram resolution: 2^subBits linear sub-buckets per
// power of two, so a bucket spans at most 1/1024 of its value.
const subBits = 10

// hist is a fixed-size log-linear histogram of nanosecond durations, for
// workloads with millions of short ops: memory stays constant however many
// samples arrive, so the benchmark's own bookkeeping does not grow the heap
// it measures. Quantiles interpolate within a bucket, so readings stay
// continuous instead of snapping to bucket edges.
type hist struct {
	counts [(64 - subBits) << subBits]uint64
	n      uint64
}

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1
	return (e+1)<<subBits + int(v>>uint(e)) - 1<<subBits
}

// bucketRange returns the lowest value in bucket b and the bucket's width.
func bucketRange(b int) (lo, width uint64) {
	if b < 1<<subBits {
		return uint64(b), 1
	}
	e := b>>subBits - 1
	m := uint64(b&(1<<subBits-1)) + 1<<subBits
	return m << uint(e), 1 << uint(e)
}

func (h *hist) add(d time.Duration) {
	h.counts[bucketOf(uint64(max(d, 0)))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolating the rank's
// position inside its bucket.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n-1)
	var seen uint64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(seen+c) > rank {
			lo, w := bucketRange(b)
			frac := (rank - float64(seen) + 0.5) / float64(c)
			return float64(lo) + frac*float64(w)
		}
		seen += c
	}
	lo, w := bucketRange(len(h.counts) - 1)
	return float64(lo + w)
}

// heapSampler tracks the peak of the runtime's live-heap metric (the heap
// marked live by the last completed GC) while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeapSampler collects garbage first, so the window starts from the
// live set the timed phase inherits rather than from set-up garbage, then
// samples every 10 ms until stopped.
func startHeapSampler() *heapSampler {
	runtime.GC()
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *heapSampler) sample() {
	v := liveHeap()
	s.mu.Lock()
	s.peak = max(s.peak, v)
	s.mu.Unlock()
}

// stopMB stops the sampler and returns the peak in MiB.
func (s *heapSampler) stopMB() float64 {
	close(s.stop)
	<-s.done
	s.sample()
	return float64(s.peak) / (1 << 20)
}
