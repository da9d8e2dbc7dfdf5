package experiments

import (
	"fmt"

	"siot/internal/report"
	"siot/internal/sim"
	"siot/internal/socialgen"
	"siot/internal/stats"
)

// fig13Config parameterizes the net-profit learning experiment (§5.6).
type fig13Config struct {
	// Iterations of continuous task delegations (the paper plots 3000).
	Iterations int
	// Smooth applies a trailing moving average to the plotted series (the
	// paper's curves are visibly smoothed); <= 1 disables.
	Smooth int
}

// paperFig13 mirrors the paper.
var paperFig13 = fig13Config{Iterations: 3000, Smooth: 50}

// fig13Result reproduces Fig. 13, "Comparison of the net profits with
// iterative trustworthiness updates": average net profit per iteration for
// each network under the success-rate-only strategy and the full net-profit
// strategy.
type fig13Result struct {
	Series []stats.Series
	// Converged holds the mean profit over the last third of the run per
	// curve, for the table and shape checks.
	Converged map[string]float64
}

// runFig13 runs both strategies over the three networks on the parallel
// engine; o.Parallelism only changes wall-clock time, never the curves.
func runFig13(o Options, cfg fig13Config) fig13Result {
	res := fig13Result{Converged: map[string]float64{}}
	for _, profile := range socialgen.Profiles() {
		net := socialgen.Generate(profile, o.Seed)
		for _, strategy := range []sim.Strategy{sim.StrategyNetProfit, sim.StrategySuccessRate} {
			pcfg := sim.DefaultPopulationConfig(o.Seed)
			pcfg.Parallelism = o.Parallelism
			p := sim.NewPopulation(net, pcfg)
			series := sim.NewEngine(p, "fig13").NetProfitRun(cfg.Iterations, strategy, o.Seed)
			name := fmt.Sprintf("%s (%s)", profile.Name, strategy)
			tail := series[len(series)*2/3:]
			res.Converged[name] = stats.Mean(tail)
			if cfg.Smooth > 1 {
				series = stats.MovingAvg(series, cfg.Smooth)
			}
			res.Series = append(res.Series, stats.NewSeries(name, series))
		}
	}
	return res
}

// Table summarizes converged profits.
func (r fig13Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Fig. 13: converged average net profit (last third of iterations)",
		Headers: []string{"Curve", "Net profit"},
	}
	for _, s := range r.Series {
		t.AddRow(s.Name, fmt.Sprintf("%.3f", r.Converged[s.Name]))
	}
	return t
}

// ShapeCheck verifies Fig. 13's claims: per network the second strategy's
// converged profit beats the first strategy's, and the first strategy goes
// negative on at least one network (the paper observes Facebook and
// Twitter below zero).
func (r fig13Result) ShapeCheck() []error {
	c := &shapeCheck{experiment: "fig13"}
	negatives := 0
	for _, profile := range socialgen.Profiles() {
		second := r.Converged[fmt.Sprintf("%s (%s)", profile.Name, sim.StrategyNetProfit)]
		first := r.Converged[fmt.Sprintf("%s (%s)", profile.Name, sim.StrategySuccessRate)]
		c.expect(second > first,
			"%s: second strategy %.3f did not beat first strategy %.3f", profile.Name, second, first)
		c.expect(second > 0, "%s: second strategy converged non-positive (%.3f)", profile.Name, second)
		if first < 0 {
			negatives++
		}
	}
	c.expect(negatives >= 1, "no network drove the first strategy negative")
	return c.errs
}
