package env

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClamp(t *testing.T) {
	cases := []struct{ in, want Environment }{
		{0.5, 0.5},
		{0, minEnv},
		{-3, minEnv},
		{1.5, 1},
		{1, 1},
	}
	for _, c := range cases {
		if got := c.in.Clamp(); got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCombineTakesMinimum(t *testing.T) {
	if got := Combine(1, 0.4, 0.7, 0.9); got != 0.4 {
		t.Fatalf("Combine = %v, want 0.4", got)
	}
	if got := Combine(0.2, 0.8); got != 0.2 {
		t.Fatalf("Combine = %v, want 0.2", got)
	}
	if got := Combine(1, 1); got != 1 {
		t.Fatalf("Combine of perfect = %v", got)
	}
}

func TestRemoveMatchesEq29(t *testing.T) {
	// Paper's example: S = 0.32 observed at min env 0.4 recovers 0.8.
	got := Remove(0.32, 1, 1, 0.4)
	if math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("Remove = %v, want 0.8", got)
	}
}

func TestRemoveCaps(t *testing.T) {
	if got := Remove(0.9, 1, 0.1, 0.1); got != 1 {
		t.Fatalf("Remove did not cap: %v", got)
	}
	// cap <= 0 disables capping.
	if got := Remove(0.9, 0, 0.1, 0.1); got <= 1 {
		t.Fatalf("uncapped Remove = %v, want > 1", got)
	}
}

func TestPhaseScheduleSequence(t *testing.T) {
	s := Fig15Schedule()
	if s.At(0) != 1 || s.At(99) != 1 {
		t.Fatal("phase 1 wrong")
	}
	if s.At(100) != 0.4 || s.At(199) != 0.4 {
		t.Fatal("phase 2 wrong")
	}
	if s.At(200) != 0.7 || s.At(299) != 0.7 {
		t.Fatal("phase 3 wrong")
	}
	// Past the end, holds the last value.
	if s.At(5000) != 0.7 {
		t.Fatal("schedule does not hold final phase")
	}
	if s.TotalLen() != 300 {
		t.Fatalf("TotalLen = %d", s.TotalLen())
	}
}

func TestNewPhaseScheduleValidates(t *testing.T) {
	if _, err := NewPhaseSchedule(Phase{Len: 0, Env: 1}); err == nil {
		t.Fatal("zero-length phase accepted")
	}
	if _, err := NewPhaseSchedule(Phase{Len: 10, Env: 0}); err == nil {
		t.Fatal("zero environment accepted")
	}
	if _, err := NewPhaseSchedule(Phase{Len: 10, Env: 1.2}); err == nil {
		t.Fatal("super-unit environment accepted")
	}
	if _, err := NewPhaseSchedule(Phase{Len: 10, Env: Environment(math.NaN())}); err == nil {
		t.Fatal("NaN environment accepted")
	}
}

func TestEmptyPhaseSchedule(t *testing.T) {
	var s PhaseSchedule
	if s.At(3) != Perfect {
		t.Fatal("empty schedule not perfect")
	}
}

func TestLightSchedule(t *testing.T) {
	s := DefaultLightSchedule(30)
	if s.At(0) != 1 {
		t.Fatal("initial light phase wrong")
	}
	if s.At(10) != 0.3 {
		t.Fatal("dark phase wrong")
	}
	if s.At(20) != 1 {
		t.Fatal("final light phase wrong")
	}
}

func TestLightScheduleTinySpan(t *testing.T) {
	s := DefaultLightSchedule(1)
	if s.LightLen < 1 {
		t.Fatal("degenerate schedule")
	}
	_ = s.At(0)
}

func TestCannikinVsMeanAblation(t *testing.T) {
	// A single hostile bottleneck (0.1) among perfect intermediates: the
	// Cannikin minimum reflects it, the mean hides it. This is the property
	// the paper's eq. 29 relies on.
	minE := Combine(1, 1, 0.1, 1, 1)
	meanE := CombineMean(1, 1, 0.1, 1, 1)
	if minE != 0.1 {
		t.Fatalf("Cannikin min = %v, want 0.1", minE)
	}
	if meanE < 0.7 {
		t.Fatalf("mean = %v, expected it to wash out the bottleneck", meanE)
	}
}

func TestValidate(t *testing.T) {
	if Environment(0.5).Validate() != nil {
		t.Fatal("valid env rejected")
	}
	for _, e := range []Environment{0, -1, 1.01, Environment(math.NaN())} {
		if e.Validate() == nil {
			t.Fatalf("invalid env %v accepted", e)
		}
	}
}

func TestQuickCombineIsLowerBound(t *testing.T) {
	// Combine never exceeds any participant and stays in (0, 1].
	f := func(a, b, c float64) bool {
		ea := Environment(math.Abs(math.Mod(a, 1.2)))
		eb := Environment(math.Abs(math.Mod(b, 1.2)))
		ec := Environment(math.Abs(math.Mod(c, 1.2)))
		m := Combine(ea, eb, ec)
		if m <= 0 || m > 1 {
			return false
		}
		return m <= ea.Clamp() && m <= eb.Clamp() && m <= ec.Clamp()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickRemoveMonotoneInObservation(t *testing.T) {
	// For a fixed environment, a better observation never yields a smaller
	// corrected value.
	f := func(o1, o2, e float64) bool {
		env := Environment(math.Abs(math.Mod(e, 1))).Clamp()
		a := math.Mod(math.Abs(o1), 1)
		b := math.Mod(math.Abs(o2), 1)
		if a > b {
			a, b = b, a
		}
		return Remove(a, 10, env, env) <= Remove(b, 10, env, env)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
