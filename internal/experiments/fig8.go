package experiments

import (
	"fmt"

	"siot/internal/agent"
	"siot/internal/core"
	"siot/internal/report"
	"siot/internal/rng"
	"siot/internal/stats"
	"siot/internal/task"
	"siot/internal/zigbee"
)

// fig8Config parameterizes the inference experiment on the IoT testbed
// (§5.4).
type fig8Config struct {
	// Experiments is the number of independent runs (the paper runs 50).
	Experiments int
}

// paperFig8 mirrors the paper.
var paperFig8 = fig8Config{Experiments: 50}

// fig8WarmupPerTask is how many previous delegations of each prior task
// every trustor has with every group trustee.
const fig8WarmupPerTask = 2

// fig8Result reproduces Fig. 8, "Comparison of the percentages of honest
// devices": per experiment run, the percentage of trustors that selected an
// honest device as trustee, with and without characteristic inference.
type fig8Result struct {
	WithModel    stats.Series
	WithoutModel stats.Series
}

// runFig8 runs the experiment on the simulated CC2530 testbed. Each trustor
// requests a task with two characteristics it has never delegated as a
// whole; the characteristics appeared separately in two previous tasks, on
// one of which the dishonest trustees performed maliciously. With the
// proposed model the trustor infers trustworthiness from those analogous
// tasks; without it, the task is treated as completely new and the choice
// is uninformed.
func runFig8(o Options, cfg fig8Config) fig8Result {
	// Previous tasks: GPS sampling and image capture; the new task needs
	// both (the paper's real-time-traffic example).
	prior1 := task.Uniform(1, task.CharGPS)
	prior2 := task.Uniform(2, task.CharImage)
	probe := task.Uniform(3, task.CharGPS, task.CharImage)

	with := make([]float64, cfg.Experiments)
	without := make([]float64, cfg.Experiments)
	for e := 0; e < cfg.Experiments; e++ {
		expSeed := rng.Mix(o.Seed, "fig8", fmt.Sprint(e))
		tbCfg := zigbee.DefaultTestbedConfig(expSeed)
		tbCfg.Malice = agent.MaliceCharacteristic
		tbCfg.MaliceChars = map[task.Characteristic]bool{task.CharImage: true}
		tb := zigbee.BuildTestbed(tbCfg)
		r := rng.New(expSeed, "select")

		// Warmup: the previous tasks build per-characteristic experience
		// over the air.
		for _, trustor := range tb.Trustors {
			for _, trustee := range tb.GroupTrustees(tb.Group[trustor.Addr]) {
				for _, prior := range []task.Task{prior1, prior2} {
					for w := 0; w < fig8WarmupPerTask; w++ {
						res := tb.Net.Delegate(trustor.Addr, trustee.Addr, prior, zigbee.ExchangeConfig{Light: 1})
						trustor.Agent.Store.Observe(core.AgentID(trustee.Addr), prior, res.Outcome, core.PerfectEnv())
					}
				}
			}
		}

		// Measurement: each trustor selects a trustee for the probe task
		// and reports the choice to the coordinator.
		honestWith, honestWithout := 0, 0
		for _, trustor := range tb.Trustors {
			group := tb.GroupTrustees(tb.Group[trustor.Addr])

			// With the proposed model: infer from analogous tasks.
			cands := make([]core.Candidate, 0, len(group))
			for _, trustee := range group {
				tw, ok := trustor.Agent.Store.InferTW(core.AgentID(trustee.Addr), probe)
				if !ok {
					tw = 0.5
				}
				cands = append(cands, core.Candidate{ID: core.AgentID(trustee.Addr), TW: tw})
			}
			chosen, _ := core.SelectMutual(cands, nil)
			honest := tb.IsHonest(zigbee.DeviceAddr(chosen.ID))
			if honest {
				honestWith++
			}
			tb.Net.SendReport(trustor.Addr, honest)

			// Without the model: the task is completely new — uninformed
			// uniform choice.
			pick := group[r.IntN(len(group))]
			if tb.IsHonest(pick.Addr) {
				honestWithout++
			}
		}
		// The coordinator's collected reports drive the statistic, as in
		// the hardware experiment.
		reports := tb.Net.CollectReports()
		honestReported := 0
		for _, rep := range reports {
			if rep.Honest {
				honestReported++
			}
		}
		if len(reports) > 0 {
			with[e] = 100 * float64(honestReported) / float64(len(reports))
		} else {
			with[e] = 100 * float64(honestWith) / float64(len(tb.Trustors))
		}
		without[e] = 100 * float64(honestWithout) / float64(len(tb.Trustors))
	}
	return fig8Result{
		WithModel:    stats.NewSeries("with proposed model", with),
		WithoutModel: stats.NewSeries("without proposed model", without),
	}
}

// Table summarizes the two curves.
func (r fig8Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Fig. 8: percentage of trustors selecting honest devices",
		Headers: []string{"Method", "Mean %", "Min %", "Max %"},
	}
	for _, s := range []stats.Series{r.WithModel, r.WithoutModel} {
		lo, hi := stats.MinMax(s.Y)
		t.AddRow(s.Name, fmt.Sprintf("%.1f", stats.Mean(s.Y)), fmt.Sprintf("%.1f", lo), fmt.Sprintf("%.1f", hi))
	}
	return t
}

// ShapeCheck verifies Fig. 8's claim: the with-model percentage is clearly
// higher on average (the paper shows ~90–100% vs ~40–60%).
func (r fig8Result) ShapeCheck() []error {
	c := &shapeCheck{experiment: "fig8"}
	mWith := stats.Mean(r.WithModel.Y)
	mWithout := stats.Mean(r.WithoutModel.Y)
	c.expect(mWith > mWithout+15,
		"with-model mean %.1f%% not clearly above without-model %.1f%%", mWith, mWithout)
	c.expect(mWith > 75, "with-model mean %.1f%% below 75%%", mWith)
	c.expect(mWithout < 75, "without-model mean %.1f%% suspiciously high", mWithout)
	return c.errs
}
