package experiments

import (
	"fmt"
	"math"

	"siot/internal/core"
	"siot/internal/env"
	"siot/internal/report"
	"siot/internal/rng"
	"siot/internal/sim"
	"siot/internal/socialgen"
	"siot/internal/stats"
)

// This file holds the ablations DESIGN.md calls out: controlled experiments
// isolating individual design choices of the trust model. They are not
// figures of the paper, but they quantify the pieces the paper argues for.

// ablationEq7Config parameterizes the eq. 7 mistrust-term ablation.
type ablationEq7Config struct {
	// Pairs is the number of random recommendation chains evaluated.
	Pairs int
	// Depth is the chain length.
	Depth int
}

// paperAblationEq7 is the default ablation scale.
var paperAblationEq7 = ablationEq7Config{Pairs: 20000, Depth: 2}

// ablationEq7Result compares eq. 7's combination (with the mistrust-product
// term) against the plain product of eq. 5 as estimators of end-to-end
// delegation success over random chains.
type ablationEq7Result struct {
	// RMSEEq7 and RMSEProduct are the root-mean-square errors of the two
	// combiners against the true end-to-end success probability.
	RMSEEq7     float64
	RMSEProduct float64
	// HighTrustBias are the mean signed errors over chains whose hops all
	// exceed 0.5 (the regime the ω thresholds admit).
	HighTrustBiasEq7     float64
	HighTrustBiasProduct float64
}

// runAblationEq7 samples chains of hop reliabilities, computes the true
// probability that a delegation through the chain ends well (every hop's
// judgment is correct, or every hop errs in a way that cancels — the
// even-error parity model that motivates eq. 7), and measures how well each
// combiner predicts it.
func runAblationEq7(o Options, cfg ablationEq7Config) ablationEq7Result {
	r := rng.New(o.Seed, "ablation-eq7")
	var seSum7, seSumP float64
	var hiBias7, hiBiasP float64
	hiCount := 0
	for i := 0; i < cfg.Pairs; i++ {
		hops := make([]float64, cfg.Depth)
		allHigh := true
		for j := range hops {
			hops[j] = r.Float64()
			if hops[j] < 0.5 {
				allHigh = false
			}
		}
		// Ground truth: probability that an even number of hops err.
		// For independent hops this is the parity recursion
		// p_k = p_{k-1}·h_k + (1−p_{k-1})·(1−h_k) — exactly eq. 7's fold.
		truth := 1.0
		for _, h := range hops {
			truth = float64(truth*h) + float64((1-truth)*(1-h))
		}
		e7 := core.CombineSerial(hops...)
		ep := core.ProductSerial(hops...)
		seSum7 += float64((e7 - truth) * (e7 - truth))
		seSumP += float64((ep - truth) * (ep - truth))
		if allHigh {
			hiBias7 += e7 - truth
			hiBiasP += ep - truth
			hiCount++
		}
	}
	res := ablationEq7Result{
		RMSEEq7:     math.Sqrt(seSum7 / float64(cfg.Pairs)),
		RMSEProduct: math.Sqrt(seSumP / float64(cfg.Pairs)),
	}
	if hiCount > 0 {
		res.HighTrustBiasEq7 = hiBias7 / float64(hiCount)
		res.HighTrustBiasProduct = hiBiasP / float64(hiCount)
	}
	return res
}

// Table renders the comparison.
func (r ablationEq7Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Ablation: eq. 7 combination vs eq. 5 product over recommendation chains",
		Headers: []string{"Combiner", "RMSE vs parity truth", "Bias (hops > 0.5)"},
	}
	t.AddRow("eq. 7 (with mistrust term)", fmt.Sprintf("%.4f", r.RMSEEq7), fmt.Sprintf("%+.4f", r.HighTrustBiasEq7))
	t.AddRow("eq. 5 (plain product)", fmt.Sprintf("%.4f", r.RMSEProduct), fmt.Sprintf("%+.4f", r.HighTrustBiasProduct))
	return t
}

// ShapeCheck asserts eq. 7 is the exact parity estimator (zero error) while
// the plain product systematically underestimates.
func (r ablationEq7Result) ShapeCheck() []error {
	c := &shapeCheck{experiment: "ablation-eq7"}
	c.expect(r.RMSEEq7 < 1e-9, "eq. 7 is not exact against the parity model (RMSE %.4g)", r.RMSEEq7)
	c.expect(r.RMSEProduct > 0.01, "plain product unexpectedly accurate (RMSE %.4g)", r.RMSEProduct)
	c.expect(r.HighTrustBiasProduct < -0.01,
		"plain product does not underestimate in the high-trust regime (bias %+.4f)", r.HighTrustBiasProduct)
	return c.errs
}

// ablationCannikinConfig parameterizes the min-vs-mean environment
// combination ablation (Fig. 15 rerun with the mean).
type ablationCannikinConfig struct {
	Runs int
}

// paperAblationCannikin is the default scale.
var paperAblationCannikin = ablationCannikinConfig{Runs: 60}

// ablationCannikinResult compares correcting by the Cannikin minimum
// against correcting by the mean environment when one side of the exchange
// is hostile and the other perfect.
type ablationCannikinResult struct {
	// TrackErrMin and TrackErrMean are the absolute biases of the
	// time-averaged tracked success rate against the true competence.
	TrackErrMin  float64
	TrackErrMean float64
}

// runAblationCannikin reruns the Fig. 15 tracking task with a bottleneck
// environment: the trustee sits at E = 0.4 while the trustor and an
// intermediate are perfect. The Cannikin minimum (0.4) matches the actual
// degradation; the mean (0.8) under-corrects.
func runAblationCannikin(o Options, cfg ablationCannikinConfig) ablationCannikinResult {
	const actual = 0.8
	const hostile = env.Environment(0.4)
	iters := 200
	baseCfg := core.DefaultUpdateConfig()

	var sumMin, sumMean float64
	n := 0
	for run := 0; run < cfg.Runs; run++ {
		r := rng.Split(o.Seed, "ablation-cannikin", run)
		eMin := core.Expectation{S: 1}
		eMean := core.Expectation{S: 1}
		for i := 0; i < iters; i++ {
			// The bottleneck degrades the outcome by min(E) = 0.4.
			obs := core.Outcome{Success: r.Float64() < actual*float64(hostile)}
			// Proper correction via the EnvContext minimum.
			cfgMin := baseCfg
			cfgMin.EnvCorrection = true
			eMin = core.Update(eMin, obs, core.EnvContext{Trustor: 1, Trustee: hostile, Intermediates: []env.Environment{1}}, cfgMin)
			// Mean correction: divide by the mean environment by hand.
			mean := env.CombineMean(1, hostile, 1)
			sVal := 0.0
			if obs.Success {
				sVal = 1 / float64(mean)
			}
			eMean.S = float64(0.9*eMean.S) + float64(0.1*sVal)
			if i > iters/2 {
				sumMin += eMin.S
				sumMean += eMean.S
				n++
			}
		}
	}
	// Compare the *bias* of the time-averaged estimates: the trackers are
	// noisy by construction (Bernoulli observations amplified by 1/E), but
	// an unbiased corrector's time average recovers the true competence.
	return ablationCannikinResult{
		TrackErrMin:  math.Abs(sumMin/float64(n) - actual),
		TrackErrMean: math.Abs(sumMean/float64(n) - actual),
	}
}

// Table renders the comparison.
func (r ablationCannikinResult) Table() *report.Table {
	t := &report.Table{
		Title:   "Ablation: Cannikin minimum vs mean environment in r(·)",
		Headers: []string{"Combination", "Tracking error vs true competence"},
	}
	t.AddRow("minimum (Cannikin law, eq. 29)", fmt.Sprintf("%.4f", r.TrackErrMin))
	t.AddRow("mean of participants", fmt.Sprintf("%.4f", r.TrackErrMean))
	return t
}

// ShapeCheck asserts the minimum tracks the truth and the mean
// under-corrects, as the paper's Wooden Bucket argument claims.
func (r ablationCannikinResult) ShapeCheck() []error {
	c := &shapeCheck{experiment: "ablation-cannikin"}
	c.expect(r.TrackErrMin < 0.05, "Cannikin correction bias %.4f too large", r.TrackErrMin)
	c.expect(r.TrackErrMean > 2*r.TrackErrMin,
		"mean correction (err %.4f) not clearly worse than Cannikin (err %.4f)",
		r.TrackErrMean, r.TrackErrMin)
	return c.errs
}

// ablationSelfDelegationConfig parameterizes the eq. 24 ablation.
type ablationSelfDelegationConfig struct {
	Iterations int
}

// paperAblationSelfDelegation is the default scale.
var paperAblationSelfDelegation = ablationSelfDelegationConfig{Iterations: 800}

// ablationSelfDelegationResult compares net profit with and without the
// trustor itself as a candidate (eq. 24) on the Twitter network, where
// trustee neighborhoods are smallest and self-execution matters most.
type ablationSelfDelegationResult struct {
	WithSelf    float64
	WithoutSelf float64
}

// runAblationSelfDelegation measures converged net profit when trustors may
// keep tasks whose expected profit beats every candidate's.
func runAblationSelfDelegation(o Options, cfg ablationSelfDelegationConfig) ablationSelfDelegationResult {
	net := socialgen.Generate(socialgen.Twitter(), o.Seed)
	run := func(withSelf bool) float64 {
		pcfg := sim.DefaultPopulationConfig(o.Seed)
		pcfg.Parallelism = o.Parallelism
		p := sim.NewPopulation(net, pcfg)
		series := sim.NewEngine(p, "ablation-self").SelfDelegationRun(cfg.Iterations, withSelf, o.Seed)
		return stats.Mean(series[len(series)*2/3:])
	}
	return ablationSelfDelegationResult{
		WithSelf:    run(true),
		WithoutSelf: run(false),
	}
}

// Table renders the comparison.
func (r ablationSelfDelegationResult) Table() *report.Table {
	t := &report.Table{
		Title:   "Ablation: self-delegation (eq. 24) on the Twitter network",
		Headers: []string{"Decision rule", "Converged net profit"},
	}
	t.AddRow("delegate-or-self (eq. 24)", fmt.Sprintf("%.3f", r.WithSelf))
	t.AddRow("always delegate", fmt.Sprintf("%.3f", r.WithoutSelf))
	return t
}

// ShapeCheck asserts the option to self-execute never hurts and helps when
// neighborhoods are poor.
func (r ablationSelfDelegationResult) ShapeCheck() []error {
	c := &shapeCheck{experiment: "ablation-self"}
	c.expect(r.WithSelf >= r.WithoutSelf-0.005,
		"self-delegation hurt profit (%.3f vs %.3f)", r.WithSelf, r.WithoutSelf)
	return c.errs
}
