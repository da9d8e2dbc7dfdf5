package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// TestTailQuantile pins the reporting rule: the tail is the highest
// percentile with at least ten samples beyond it, capped at p99, and the
// median below 20 samples.
func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 0.5}, {19, 0.5}, {20, 0.5}, {40, 0.75}, {60, 1 - 10.0/60}, {100, 0.9}, {1000, 0.99}, {1 << 20, 0.99}} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	r := rand.New(rand.NewPCG(1, 2))
	for n := 20; n <= 1000; n++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = r.Float64()
		}
		slices.Sort(v)
		q := tailQuantile(n)
		if beyond := countAbove(v, quantile(v, q)); beyond < 10 {
			t.Fatalf("n=%d: p%g has %d samples beyond it, want >= 10", n, 100*q, beyond)
		}
		// A percentile one sample-step higher leaves fewer than ten beyond,
		// unless the p99 cap stopped the rule first.
		if q < 0.99 {
			if beyond := countAbove(v, quantile(v, q+1/float64(n))); beyond >= 10 {
				t.Fatalf("n=%d: p%g is not the highest percentile with ten samples beyond it", n, 100*q)
			}
		}
	}
}

func countAbove(sorted []float64, x float64) int {
	n := 0
	for _, v := range sorted {
		if v > x {
			n++
		}
	}
	return n
}

// TestQuartilesMatchPython checks quartiles against values computed by
// Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data      []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 9}, 2, 7, 9.5},
		{[]float64{5, 5}, 5, 5, 5},
	} {
		q1, m, q3 := quartiles(c.data)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestHistBuckets(t *testing.T) {
	for _, v := range []uint64{0, 1, 1023, 1024, 1025, 2047, 2048, 2049, 123456789, 1 << 40, math.MaxInt64} {
		b := bucketOf(v)
		lo, w := bucketRange(b)
		if v < lo || v-lo >= w {
			t.Errorf("value %d in bucket %d = [%d, %d+%d)", v, b, lo, lo, w)
		}
		if v >= 1<<subBits && float64(w)/float64(lo) > 1.0/(1<<subBits) {
			t.Errorf("bucket %d is %d wide at %d: coarser than 1/%d", b, w, lo, 1<<subBits)
		}
	}
}

// TestHistQuantile compares the histogram's quantiles with exact ones on a
// skewed sample: they must agree to the bucket resolution.
func TestHistQuantile(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	h := new(hist)
	var exact []float64
	for i := 0; i < 200_000; i++ {
		d := time.Duration(2000 + r.ExpFloat64()*50_000)
		h.add(d)
		exact = append(exact, float64(d))
	}
	slices.Sort(exact)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		got, want := h.quantile(q), quantile(exact, q)
		if math.Abs(got-want)/want > 2.0/(1<<subBits) {
			t.Errorf("q=%v: hist %v, exact %v", q, got, want)
		}
	}
}

// TestOpenLoopSchedule checks the open-loop accounting: due times follow
// the schedule exactly, a stalled op does not shift the schedule, and the
// ops queued behind the stall are issued late by the time it cost.
func TestOpenLoopSchedule(t *testing.T) {
	const (
		period = 2 * time.Millisecond
		stride = 2
		offset = 1
		stall  = 30 * time.Millisecond
	)
	start := time.Now()
	end := start.Add(100 * time.Millisecond)
	type rec struct{ due, sent time.Time }
	var recs []rec
	openLoop(start, end, period, stride, offset, func(k int, due time.Time) bool {
		recs = append(recs, rec{due, time.Now()})
		if k == 5 {
			time.Sleep(stall)
		}
		return true
	})
	if want := 25; len(recs) != want { // due times 2, 6, 10, ..., 98 ms
		t.Fatalf("%d ops issued, want %d", len(recs), want)
	}
	for k, r := range recs {
		if want := start.Add(time.Duration(k*stride+offset) * period); !r.due.Equal(want) {
			t.Fatalf("op %d due at %v, want %v", k, r.due.Sub(start), want.Sub(start))
		}
		if r.sent.Before(r.due) {
			t.Fatalf("op %d sent %v before it was due", k, r.due.Sub(r.sent))
		}
	}
	// Op 6 was due 4 ms after op 5 but waited out the 30 ms stall.
	if late := recs[6].sent.Sub(recs[6].due); late < stall-stride*period {
		t.Errorf("op 6 issued %v late, want at least %v", late, stall-stride*period)
	}

	n := 0
	openLoop(time.Now(), time.Now().Add(time.Second), time.Millisecond, 1, 0, func(int, time.Time) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("op returning false after %d calls did not stop the loop", n)
	}
}
