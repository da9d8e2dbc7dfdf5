package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean not 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("mean = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Fatalf("minmax = %v, %v", lo, hi)
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Fatal("empty minmax not zero")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Fatal("extreme quantiles wrong")
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Fatalf("q25 = %v", got)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile not 0")
	}
	// Out-of-range q clamps.
	if Quantile(xs, -1) != 1 || Quantile(xs, 2) != 5 {
		t.Fatal("q clamping broken")
	}
	// Input not mutated.
	ys := []float64{3, 1, 2}
	Quantile(ys, 0.5)
	if ys[0] != 3 {
		t.Fatal("input sorted in place")
	}
}

func TestMovingAvg(t *testing.T) {
	got := MovingAvg([]float64{1, 2, 3, 4}, 2)
	want := []float64{1, 1.5, 2.5, 3.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("moving avg = %v", got)
		}
	}
	// Window 1 copies.
	src := []float64{1, 2}
	cp := MovingAvg(src, 1)
	cp[0] = 99
	if src[0] == 99 {
		t.Fatal("window-1 shares storage")
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("a", []float64{1, 2})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.X[1] != 1 {
		t.Fatal("x values not indices")
	}
	bad := Series{Name: "b", X: []float64{0}, Y: []float64{1, 2}}
	if bad.Validate() == nil {
		t.Fatal("length mismatch accepted")
	}
	nan := NewSeries("c", []float64{math.NaN()})
	if nan.Validate() == nil {
		t.Fatal("NaN accepted")
	}
}

func TestQuickMeanWithinBounds(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			// Skip non-finite inputs and magnitudes whose sum would
			// overflow float64 — the invariant under test is ordering, not
			// overflow behavior.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e300 {
				return true
			}
		}
		if len(xs) == 0 {
			return Mean(xs) == 0
		}
		lo, hi := MinMax(xs)
		m := Mean(xs)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickQuantileMonotone(t *testing.T) {
	f := func(xs []float64, q1, q2 float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		a := math.Mod(math.Abs(q1), 1)
		b := math.Mod(math.Abs(q2), 1)
		if a > b {
			a, b = b, a
		}
		return Quantile(xs, a) <= Quantile(xs, b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
