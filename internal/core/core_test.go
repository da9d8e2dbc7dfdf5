package core

import (
	"math"
	"testing"
	"testing/quick"

	"siot/internal/env"
	"siot/internal/rng"
)

func TestNetProfit(t *testing.T) {
	e := Expectation{S: 0.8, G: 1, D: 0.5, C: 0.1}
	want := 0.8*1 - 0.2*0.5 - 0.1
	if got := e.NetProfit(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("NetProfit = %v, want %v", got, want)
	}
}

func TestNetProfitExtremes(t *testing.T) {
	worst := Expectation{S: 0, G: 0, D: 1, C: 1}
	if worst.NetProfit() != -2 {
		t.Fatalf("worst profit = %v, want -2", worst.NetProfit())
	}
	best := Expectation{S: 1, G: 1, D: 1, C: 0}
	if best.NetProfit() != 1 {
		t.Fatalf("best profit = %v, want 1", best.NetProfit())
	}
}

func TestUnitNormalizer(t *testing.T) {
	n := UnitNormalizer()
	if got := n.Normalize(-2); got != 0 {
		t.Fatalf("Normalize(-2) = %v", got)
	}
	if got := n.Normalize(1); got != 1 {
		t.Fatalf("Normalize(1) = %v", got)
	}
	if got := n.Normalize(-0.5); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Normalize(-0.5) = %v, want 0.5", got)
	}
	// Clamping.
	if n.Normalize(-5) != 0 || n.Normalize(5) != 1 {
		t.Fatal("normalizer does not clamp")
	}
}

func TestDegenerateNormalizer(t *testing.T) {
	n := Normalizer{ProfitLo: 1, ProfitHi: 1}
	if n.Normalize(0.5) != 0 {
		t.Fatal("degenerate normalizer did not return 0")
	}
}

func TestTrustworthinessMonotoneInSuccess(t *testing.T) {
	n := UnitNormalizer()
	lo := Expectation{S: 0.2, G: 0.8, D: 0.5, C: 0.1}
	hi := Expectation{S: 0.9, G: 0.8, D: 0.5, C: 0.1}
	if lo.Trustworthiness(n) >= hi.Trustworthiness(n) {
		t.Fatal("higher success rate did not raise trustworthiness")
	}
}

func TestBetasValidate(t *testing.T) {
	if UniformBetas(0.1).Validate() != nil {
		t.Fatal("valid betas rejected")
	}
	if UniformBetas(1).Validate() == nil {
		t.Fatal("beta = 1 accepted (history would never fade)")
	}
	if UniformBetas(-0.1).Validate() == nil {
		t.Fatal("negative beta accepted")
	}
	if (Betas{S: 0.1, G: 0.2, D: math.NaN(), C: 0.3}).Validate() == nil {
		t.Fatal("NaN beta accepted")
	}
}

func TestExpectationValidate(t *testing.T) {
	if (Expectation{S: 0.5, G: 0.5, D: 0.5, C: 0.5}).Validate() != nil {
		t.Fatal("valid expectation rejected")
	}
	if (Expectation{S: math.NaN()}).Validate() == nil {
		t.Fatal("NaN expectation accepted")
	}
	if (Expectation{G: math.Inf(1)}).Validate() == nil {
		t.Fatal("infinite expectation accepted")
	}
}

func TestUpdateMatchesEq19to22(t *testing.T) {
	cfg := DefaultUpdateConfig()
	cfg.Betas = UniformBetas(0.6)
	old := Expectation{S: 1, G: 0.5, D: 0.5, C: 0.5}
	obs := Outcome{Success: false, Gain: 0, Damage: 0.8, Cost: 0.2}
	got := Update(old, obs, PerfectEnv(), cfg)
	want := Expectation{
		S: 0.6*1 + 0.4*0,
		G: 0.6*0.5 + 0.4*0,
		D: 0.6*0.5 + 0.4*0.8,
		C: 0.6*0.5 + 0.4*0.2,
	}
	for name, pair := range map[string][2]float64{
		"S": {got.S, want.S}, "G": {got.G, want.G},
		"D": {got.D, want.D}, "C": {got.C, want.C},
	} {
		if math.Abs(pair[0]-pair[1]) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, pair[0], pair[1])
		}
	}
}

func TestUpdateConvergesToObservedRate(t *testing.T) {
	// Repeated identical observations converge the expectation to the
	// observation, at rate governed by beta.
	cfg := DefaultUpdateConfig()
	e := cfg.Init
	obs := Outcome{Success: true, Gain: 0.9, Damage: 0.1, Cost: 0.2}
	for i := 0; i < 400; i++ {
		e = Update(e, obs, PerfectEnv(), cfg)
	}
	if math.Abs(e.S-1) > 1e-9 || math.Abs(e.G-0.9) > 1e-9 ||
		math.Abs(e.D-0.1) > 1e-9 || math.Abs(e.C-0.2) > 1e-9 {
		t.Fatalf("did not converge: %+v", e)
	}
}

func TestUpdateEnvCorrectionRecoversTrueRate(t *testing.T) {
	// In environment 0.4 a success observation is corrected to 1/0.4 = 2.5,
	// so a success observed with probability S·E has corrected mean S.
	cfg := DefaultUpdateConfig()
	cfg.EnvCorrection = true
	ectx := EnvContext{Trustor: 1, Trustee: 0.4}
	e := Expectation{S: 0, G: 0, D: 0, C: 0}
	// Stochastic successes with P(success) = 0.32 = 0.8 * 0.4. The corrected
	// series has mean 0.8; we check the time-average of the tracked S.
	r := rng.New(1, "envcorr")
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		obs := Outcome{Success: r.Float64() < 0.32}
		e = Update(e, obs, ectx, cfg)
		if i >= n/2 {
			sum += e.S
		}
	}
	avg := sum / (n / 2)
	if avg < 0.7 || avg > 0.9 {
		t.Fatalf("corrected S time-average = %v, want near 0.8", avg)
	}
}

func TestUpdateWithoutCorrectionTracksDegradedRate(t *testing.T) {
	cfg := DefaultUpdateConfig()
	ectx := EnvContext{Trustor: 1, Trustee: 0.4}
	e := Expectation{S: 1}
	r := rng.New(2, "noenvcorr")
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		obs := Outcome{Success: r.Float64() < 0.32} // P = S_actual * E
		e = Update(e, obs, ectx, cfg)
		if i >= n/2 {
			sum += e.S
		}
	}
	avg := sum / (n / 2)
	if avg < 0.25 || avg > 0.4 {
		t.Fatalf("uncorrected S time-average = %v, want near 0.32", avg)
	}
}

func TestUpdateEnvCorrectionDirections(t *testing.T) {
	// Positive factors are divided by the environment (credit under
	// hostility); negative factors are multiplied (a hostile environment
	// inflated them, so removal shrinks them).
	cfg := DefaultUpdateConfig()
	cfg.EnvCorrection = true
	cfg.Betas = UniformBetas(0) // memoryless: the update shows the corrected obs
	ectx := EnvContext{Trustor: 1, Trustee: 0.5}
	e := Update(Expectation{}, Outcome{Success: true, Gain: 0.4, Damage: 0.6, Cost: 0.2}, ectx, cfg)
	if math.Abs(e.S-2.0) > 1e-12 {
		t.Fatalf("corrected S = %v, want 2.0", e.S)
	}
	if math.Abs(e.G-0.8) > 1e-12 {
		t.Fatalf("corrected G = %v, want 0.8", e.G)
	}
	if math.Abs(e.D-0.3) > 1e-12 {
		t.Fatalf("corrected D = %v, want 0.3 (shrunk)", e.D)
	}
	if math.Abs(e.C-0.1) > 1e-12 {
		t.Fatalf("corrected C = %v, want 0.1 (shrunk)", e.C)
	}
}

func TestUpdateBetaZeroIsMemoryless(t *testing.T) {
	cfg := DefaultUpdateConfig()
	cfg.Betas = UniformBetas(0)
	e := Update(Expectation{S: 0.1, G: 0.1, D: 0.1, C: 0.1},
		Outcome{Success: true, Gain: 1, Damage: 0, Cost: 0.3}, PerfectEnv(), cfg)
	if e.S != 1 || e.G != 1 || e.D != 0 || e.C != 0.3 {
		t.Fatalf("beta=0 did not replace history: %+v", e)
	}
}

func TestUpdatePerFieldBetas(t *testing.T) {
	cfg := DefaultUpdateConfig()
	cfg.Betas = Betas{S: 0, G: 0.9, D: 0.5, C: 0.9}
	old := Expectation{S: 0.5, G: 1, D: 1, C: 1}
	obs := Outcome{Success: true, Gain: 0, Damage: 0, Cost: 0}
	e := Update(old, obs, PerfectEnv(), cfg)
	if e.S != 1 {
		t.Fatalf("S beta ignored: %v", e.S)
	}
	if math.Abs(e.G-0.9) > 1e-12 || math.Abs(e.D-0.5) > 1e-12 || math.Abs(e.C-0.9) > 1e-12 {
		t.Fatalf("per-field betas wrong: %+v", e)
	}
}

func TestEnvContextMin(t *testing.T) {
	c := EnvContext{Trustor: 0.9, Trustee: 0.8, Intermediates: []env.Environment{0.3, 0.95}}
	if c.Min() != 0.3 {
		t.Fatalf("Min = %v, want 0.3", c.Min())
	}
	if PerfectEnv().Min() != 1 {
		t.Fatal("perfect context min != 1")
	}
}

func TestQuickUpdateBoundsWithoutCorrection(t *testing.T) {
	// Without env correction, if history and observation are in [0,1], the
	// update stays in [0,1].
	cfg := DefaultUpdateConfig()
	f := func(s, g, d, c float64, success bool, beta float64) bool {
		clamp := func(x float64) float64 { return math.Mod(math.Abs(x), 1) }
		cfg.Betas = UniformBetas(clamp(beta) * 0.999)
		old := Expectation{S: clamp(s), G: clamp(g), D: clamp(d), C: clamp(c)}
		obs := Outcome{Success: success, Gain: clamp(g * 7), Damage: clamp(d * 3), Cost: clamp(c * 11)}
		e := Update(old, obs, PerfectEnv(), cfg)
		for _, v := range [...]float64{e.S, e.G, e.D, e.C} {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickNormalizerInUnitRange(t *testing.T) {
	n := UnitNormalizer()
	f := func(p float64) bool {
		v := n.Normalize(p)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
