package experiments

import (
	"fmt"
	"math"

	"siot/internal/core"
	"siot/internal/env"
	"siot/internal/report"
	"siot/internal/rng"
	"siot/internal/stats"
)

// Fig. 15's trustee: its true competence-and-willingness S and the
// forgetting factor β applied to history (see core.Betas for the β
// convention note).
const (
	fig15ActualS       float64 = 0.8
	fig15HistoryWeight float64 = 0.9
)

// fig15Config parameterizes the dynamic-environment tracking experiment
// (§5.7, simulation part), which plays the paper's 1 → 0.4 → 0.7
// three-phase environment schedule.
type fig15Config struct {
	// Runs to average (the paper averages 100 independent runs).
	Runs int
}

// paperFig15 mirrors the paper.
var paperFig15 = fig15Config{Runs: 100}

// fig15Result reproduces Fig. 15, "Comparison of the success rates with
// non-ideal and changing environments": the tracked expected success rate
// under three update rules.
type fig15Result struct {
	// NoEnv is the reference: outcomes unaffected by the environment.
	NoEnv stats.Series
	// Traditional updates from environment-degraded outcomes without
	// correction (error and delay at the steps).
	Traditional stats.Series
	// Proposed applies the removal function r(·) of eq. 29.
	Proposed stats.Series
	// Env is the environment trajectory, for plotting context.
	Env stats.Series
}

// runFig15 tracks the expected success rate across the whole schedule
// (300 iterations).
func runFig15(o Options, cfg fig15Config) fig15Result {
	sched := env.Fig15Schedule()
	iters := sched.TotalLen()
	noEnv := make([]float64, iters)
	trad := make([]float64, iters)
	prop := make([]float64, iters)
	envSeries := make([]float64, iters)
	for i := 0; i < iters; i++ {
		envSeries[i] = float64(sched.At(i))
	}

	baseCfg := core.DefaultUpdateConfig()
	baseCfg.Betas = core.UniformBetas(fig15HistoryWeight)
	propCfg := baseCfg
	propCfg.EnvCorrection = true

	for run := 0; run < cfg.Runs; run++ {
		r := rng.Split(o.Seed, "fig15", run)
		// The trustor initializes the expected success rate as 1.
		eNo := core.Expectation{S: 1}
		eTrad := core.Expectation{S: 1}
		eProp := core.Expectation{S: 1}
		for i := 0; i < iters; i++ {
			e := sched.At(i)
			ectx := core.EnvContext{Trustor: e, Trustee: e}
			// Reference: environment never degrades the outcome.
			draw := r.Float64()
			obsNo := core.Outcome{Success: draw < fig15ActualS}
			// Degraded: P(success) = S_actual · min(E). The same uniform
			// draw couples the three curves, reducing comparison variance.
			obsDeg := core.Outcome{Success: draw < fig15ActualS*float64(ectx.Min())}
			eNo = core.Update(eNo, obsNo, core.PerfectEnv(), baseCfg)
			eTrad = core.Update(eTrad, obsDeg, ectx, baseCfg)
			eProp = core.Update(eProp, obsDeg, ectx, propCfg)
			noEnv[i] += eNo.S
			trad[i] += eTrad.S
			prop[i] += eProp.S
		}
	}
	scale := 1 / float64(cfg.Runs)
	for i := 0; i < iters; i++ {
		noEnv[i] *= scale
		trad[i] *= scale
		prop[i] *= scale
	}
	return fig15Result{
		NoEnv:       stats.NewSeries("without environment influence", noEnv),
		Traditional: stats.NewSeries("affected by environment - traditional method", trad),
		Proposed:    stats.NewSeries("affected by environment - proposed method", prop),
		Env:         stats.NewSeries("environment", envSeries),
	}
}

// allSeries returns the three tracked curves.
func (r fig15Result) allSeries() []stats.Series {
	return []stats.Series{r.NoEnv, r.Traditional, r.Proposed}
}

// Table summarizes per-phase means of each curve.
func (r fig15Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Fig. 15: mean tracked success rate per environment phase",
		Headers: []string{"Curve", "phase1 (E=1)", "phase2 (E=0.4)", "phase3 (E=0.7)"},
	}
	third := len(r.NoEnv.Y) / 3
	phaseMean := func(y []float64, p int) string {
		if third == 0 {
			return "-"
		}
		seg := y[p*third : (p+1)*third]
		// Skip the first fifth of the phase (transient).
		return fmt.Sprintf("%.3f", stats.Mean(seg[len(seg)/5:]))
	}
	for _, s := range r.allSeries() {
		t.AddRow(s.Name, phaseMean(s.Y, 0), phaseMean(s.Y, 1), phaseMean(s.Y, 2))
	}
	return t
}

// ShapeCheck verifies Fig. 15's claims: the reference converges to the
// actual competence; the traditional method tracks the degraded rate
// S·min(E) in each phase (error relative to the truth); the proposed method
// recovers the environment-free rate in every phase; and at the 100 → 101
// step the proposed method re-converges faster than the traditional one.
func (r fig15Result) ShapeCheck() []error {
	c := &shapeCheck{experiment: "fig15"}
	n := len(r.NoEnv.Y)
	if n < 300 {
		c.expect(false, "series too short (%d) for the default schedule", n)
		return c.errs
	}
	tailMean := func(y []float64, lo, hi int) float64 {
		return stats.Mean(y[lo:hi])
	}
	actual := fig15ActualS
	near := func(v, want, tol float64) bool { return math.Abs(v-want) <= tol }

	// Phase tails (last 40 iterations of each 100-iteration phase).
	c.expect(near(tailMean(r.NoEnv.Y, 60, 100), actual, 0.06), "reference not near %.1f in phase 1", actual)
	c.expect(near(tailMean(r.Traditional.Y, 160, 200), actual*0.4, 0.06),
		"traditional not near %.2f in phase 2 (got %.3f)", actual*0.4, tailMean(r.Traditional.Y, 160, 200))
	c.expect(near(tailMean(r.Traditional.Y, 260, 300), actual*0.7, 0.06),
		"traditional not near %.2f in phase 3", actual*0.7)
	c.expect(near(tailMean(r.Proposed.Y, 160, 200), actual, 0.08),
		"proposed did not recover %.1f in phase 2 (got %.3f)", actual, tailMean(r.Proposed.Y, 160, 200))
	c.expect(near(tailMean(r.Proposed.Y, 260, 300), actual, 0.08),
		"proposed did not recover %.1f in phase 3", actual)

	// Step response: right after the drop at iteration 100, the proposed
	// curve must stay closer to the truth than the traditional curve.
	tradErr := math.Abs(tailMean(r.Traditional.Y, 105, 125) - actual)
	propErr := math.Abs(tailMean(r.Proposed.Y, 105, 125) - actual)
	c.expect(propErr < tradErr,
		"proposed step error %.3f not below traditional %.3f", propErr, tradErr)
	return c.errs
}
