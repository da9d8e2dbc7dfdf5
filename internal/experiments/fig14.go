package experiments

import (
	"fmt"
	"slices"

	"siot/internal/agent"
	"siot/internal/core"
	"siot/internal/report"
	"siot/internal/rng"
	"siot/internal/stats"
	"siot/internal/task"
	"siot/internal/zigbee"
)

// fig14Config parameterizes the fragment-stall experiment (§5.6, hardware
// part).
type fig14Config struct {
	// TasksPerTrustor is the number of task requests each trustor issues
	// (50 in the paper).
	TasksPerTrustor int
}

// paperFig14 mirrors the paper.
var paperFig14 = fig14Config{TasksPerTrustor: 50}

// fig14Result reproduces Fig. 14, "Comparison of the active time": the
// trustors' average radio-active time per task index, when trustees are
// chosen with the full gain-and-cost evaluation versus gain alone.
type fig14Result struct {
	WithModel    stats.Series
	WithoutModel stats.Series
}

// runFig14 runs the experiment twice on identically seeded testbeds: once
// selecting trustees by expected net profit (cost-aware, the proposed
// model) and once by expected gain only. Dishonest trustees send fragment
// packages to prolong the interaction; their inflated cost is visible only
// to the cost-aware trustors.
func runFig14(o Options, cfg fig14Config) fig14Result {
	return fig14Result{
		WithModel:    stats.NewSeries("with proposed model", fig14Run(o, cfg, true)),
		WithoutModel: stats.NewSeries("without proposed model", fig14Run(o, cfg, false)),
	}
}

// bestDevice returns the device of group with the highest expected net
// profit for tk in trustor's store (core.BestByNetProfit), each expectation
// seen through view when view is not nil. It reports false for an empty
// group.
func bestDevice(trustor *zigbee.Device, group []*zigbee.Device, tk task.Task, view func(core.Expectation) core.Expectation) (*zigbee.Device, bool) {
	cands := make([]core.ExpCandidate, 0, len(group))
	for _, d := range group {
		exp := trustor.Agent.Store.Expectation(core.AgentID(d.Addr), tk.Type())
		if view != nil {
			exp = view(exp)
		}
		cands = append(cands, core.ExpCandidate{ID: core.AgentID(d.Addr), Exp: exp})
	}
	best, ok := core.BestByNetProfit(cands)
	if !ok {
		return nil, false
	}
	return group[slices.IndexFunc(cands, func(c core.ExpCandidate) bool { return c.ID == best.ID })], true
}

func fig14Run(o Options, cfg fig14Config, costAware bool) []float64 {
	tbCfg := zigbee.DefaultTestbedConfig(o.Seed)
	tbCfg.Malice = agent.MaliceFragmentStall
	tb := zigbee.BuildTestbed(tbCfg)
	// The stallers bait gain-seeking trustors with top-grade results.
	r := rng.New(o.Seed, "fig14", fmt.Sprint(costAware))
	var view func(core.Expectation) core.Expectation
	if !costAware {
		// Gain-only evaluation: blind to damage and cost.
		view = func(e core.Expectation) core.Expectation {
			e.D, e.C = 0, 0
			return e
		}
	}
	for _, d := range tb.Dishonest {
		d.Agent.Behavior.BaseCompetence = 0.93 + float64(0.05*r.Float64())
	}

	tk := task.Uniform(1, task.CharGPS)
	series := make([]float64, cfg.TasksPerTrustor)
	for i := 0; i < cfg.TasksPerTrustor; i++ {
		var total zigbee.Ms
		for _, trustor := range tb.Trustors {
			group := tb.GroupTrustees(tb.Group[trustor.Addr])
			var trustee *zigbee.Device
			if i < len(group) {
				// Bootstrap: try every group trustee once.
				trustee = group[i%len(group)]
			} else {
				var ok bool
				if trustee, ok = bestDevice(trustor, group, tk, view); !ok {
					continue
				}
			}
			res := tb.Net.Delegate(trustor.Addr, trustee.Addr, tk, zigbee.ExchangeConfig{Light: 1})
			trustor.Agent.Store.Observe(core.AgentID(trustee.Addr), tk, res.Outcome, core.PerfectEnv())
			total += res.TrustorActiveMs
		}
		series[i] = total / zigbee.Ms(len(tb.Trustors))
	}
	return series
}

// Table summarizes early vs late active time.
func (r fig14Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Fig. 14: trustor average active time (ms) per task index",
		Headers: []string{"Method", "First 10 tasks", "Last 10 tasks"},
	}
	seg := func(y []float64, fromEnd bool) float64 {
		n := 10
		if n > len(y) {
			n = len(y)
		}
		if fromEnd {
			return stats.Mean(y[len(y)-n:])
		}
		return stats.Mean(y[:n])
	}
	for _, s := range []stats.Series{r.WithModel, r.WithoutModel} {
		t.AddRow(s.Name, fmt.Sprintf("%.1f", seg(s.Y, false)), fmt.Sprintf("%.1f", seg(s.Y, true)))
	}
	return t
}

// ShapeCheck verifies Fig. 14's claims: with the proposed model the active
// time shortens once the stallers are detected; without it, the late active
// time stays clearly above the cost-aware level.
func (r fig14Result) ShapeCheck() []error {
	c := &shapeCheck{experiment: "fig14"}
	n := len(r.WithModel.Y)
	if n < 12 {
		c.expect(false, "series too short (%d)", n)
		return c.errs
	}
	lastN := n / 3
	withLate := stats.Mean(r.WithModel.Y[n-lastN:])
	withoutLate := stats.Mean(r.WithoutModel.Y[n-lastN:])
	withEarly := stats.Mean(r.WithModel.Y[:6])
	c.expect(withLate < withEarly,
		"with-model active time did not shorten (early %.1f → late %.1f)", withEarly, withLate)
	c.expect(withoutLate > 1.3*withLate,
		"without-model late active time %.1f not clearly above with-model %.1f", withoutLate, withLate)
	return c.errs
}
