package experiments

import (
	"fmt"

	"siot/internal/agent"
	"siot/internal/core"
	"siot/internal/env"
	"siot/internal/report"
	"siot/internal/stats"
	"siot/internal/task"
	"siot/internal/zigbee"
)

// fig16Config parameterizes the light-schedule experiment (§5.7, hardware
// part).
type fig16Config struct {
	// Experiments is the number of task indices (50 in the paper, split
	// into light / dark / light thirds).
	Experiments int
}

// paperFig16 mirrors the paper.
var paperFig16 = fig16Config{Experiments: 50}

// fig16ProfitScale multiplies the plotted normalized profit (the paper's
// y-axis is in arbitrary units around 0–1100).
const fig16ProfitScale float64 = 1000

// fig16Result reproduces Fig. 16, "Comparison of the net profits when the
// light condition changes and the dishonest trustees do not accept requests
// initially".
type fig16Result struct {
	WithModel    stats.Series
	WithoutModel stats.Series
	// Schedule records the light level per experiment index.
	Schedule stats.Series
}

// runFig16 runs the optical-sensor experiment twice on identically seeded
// testbeds: with the environment-corrected updates of eqs. 25–29 and
// without. Honest trustees serve the whole period and degrade in the dark;
// the malicious trustees serve only during the final light period and
// misbehave from time to time. Without correction, honest nodes' dark-phase
// history drags their evaluations below the latecomers'; with correction
// the trustors re-select honest nodes immediately when light returns.
func runFig16(o Options, cfg fig16Config) fig16Result {
	sched := env.DefaultLightSchedule(cfg.Experiments)
	schedY := make([]float64, cfg.Experiments)
	for i := range schedY {
		schedY[i] = float64(sched.At(i))
	}
	return fig16Result{
		WithModel:    stats.NewSeries("with proposed model", fig16Run(o, cfg, sched, true)),
		WithoutModel: stats.NewSeries("without proposed model", fig16Run(o, cfg, sched, false)),
		Schedule:     stats.NewSeries("light level", schedY),
	}
}

func fig16Run(o Options, cfg fig16Config, sched env.LightSchedule, corrected bool) []float64 {
	update := core.DefaultUpdateConfig()
	update.EnvCorrection = corrected
	// Newcomers get the benefit of the doubt: the optimistic prior is what
	// lets the late-joining malicious trustees collect "better evaluations"
	// than the dark-phase-degraded honest nodes, as the paper describes.
	update.Init = core.Expectation{S: 0.7, G: 0.7, D: 0.3, C: 0.15}
	tbCfg := zigbee.DefaultTestbedConfig(o.Seed)
	tbCfg.Malice = agent.MaliceOpportunist
	tbCfg.Update = update
	tb := zigbee.BuildTestbed(tbCfg)

	tk := task.Uniform(1, task.CharImage) // image acquisition, light-dependent
	finalPhase := func(i int) bool { return i >= sched.LightLen+sched.DarkLen }

	series := make([]float64, cfg.Experiments)
	for i := 0; i < cfg.Experiments; i++ {
		light := sched.At(i)
		var total float64
		count := 0
		for _, trustor := range tb.Trustors {
			group := tb.GroupTrustees(tb.Group[trustor.Addr])
			// The dishonest trustees do not accept requests until the
			// final light period.
			var avail []*zigbee.Device
			for _, d := range group {
				if d.Agent.Behavior.Malice == agent.MaliceOpportunist && !finalPhase(i) {
					continue
				}
				avail = append(avail, d)
			}
			if len(avail) == 0 {
				continue
			}
			var trustee *zigbee.Device
			if i < 2 {
				// Bootstrap over the honest candidates.
				trustee = avail[i%len(avail)]
			} else {
				var ok bool
				if trustee, ok = bestDevice(trustor, avail, tk, nil); !ok {
					continue
				}
			}
			res := tb.Net.Delegate(trustor.Addr, trustee.Addr, tk, zigbee.ExchangeConfig{Light: light, UseOptical: true})
			// Post-evaluation with the measured ambient light as the
			// trustee-side environment (eqs. 25–28 when corrected).
			ectx := core.EnvContext{Trustor: 1, Trustee: light}
			trustor.Agent.Store.Observe(core.AgentID(trustee.Addr), tk, res.Outcome, ectx)

			profit := -res.Outcome.Damage - res.Outcome.Cost
			if res.Outcome.Success {
				profit = res.Outcome.Gain - res.Outcome.Cost
			}
			total += profit
			count++
		}
		if count > 0 {
			series[i] = fig16ProfitScale * total / float64(count)
		}
	}
	return series
}

// Table summarizes per-phase profits.
func (r fig16Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Fig. 16: mean net profit per light phase",
		Headers: []string{"Method", "light", "dark", "light again"},
	}
	n := len(r.WithModel.Y)
	third := n / 3
	phase := func(y []float64, p int) string {
		lo, hi := p*third, (p+1)*third
		if p == 2 {
			hi = n
		}
		return fmt.Sprintf("%.0f", stats.Mean(y[lo:hi]))
	}
	for _, s := range []stats.Series{r.WithModel, r.WithoutModel} {
		t.AddRow(s.Name, phase(s.Y, 0), phase(s.Y, 1), phase(s.Y, 2))
	}
	return t
}

// ShapeCheck verifies Fig. 16's claims: both methods dip in the dark; with
// the proposed model the profit returns to a high level in the final light
// phase and ends clearly above the uncorrected run.
func (r fig16Result) ShapeCheck() []error {
	c := &shapeCheck{experiment: "fig16"}
	n := len(r.WithModel.Y)
	if n < 9 {
		c.expect(false, "series too short (%d)", n)
		return c.errs
	}
	third := n / 3
	seg := func(y []float64, p int) float64 {
		lo, hi := p*third, (p+1)*third
		if p == 2 {
			hi = n
		}
		// Skip the first indices of the segment (transient).
		lo += third / 4
		return stats.Mean(y[lo:hi])
	}
	withLight1, withDark, withLight2 := seg(r.WithModel.Y, 0), seg(r.WithModel.Y, 1), seg(r.WithModel.Y, 2)
	woLight2 := seg(r.WithoutModel.Y, 2)
	woDark := seg(r.WithoutModel.Y, 1)
	c.expect(withDark < withLight1, "with-model profit did not dip in the dark (%.0f vs %.0f)", withDark, withLight1)
	c.expect(woDark < withLight1, "without-model profit did not dip in the dark")
	c.expect(withLight2 > withDark, "with-model profit did not recover after the dark phase")
	c.expect(withLight2 > woLight2,
		"with-model final-phase profit %.0f not above without-model %.0f", withLight2, woLight2)
	return c.errs
}
