package experiments

import (
	"fmt"
	"maps"
	"slices"

	"siot/internal/report"
	"siot/internal/sim"
	"siot/internal/socialgen"
	"siot/internal/task"
)

// fig7Config parameterizes the mutuality experiment (§5.3).
type fig7Config struct {
	// Thetas are the reverse-evaluation thresholds swept; the paper uses
	// {0, 0.3, 0.6} where 0 reproduces unilateral evaluation.
	Thetas []float64
	// Rounds is the number of delegation rounds per (network, θ) cell;
	// rates are measured over all rounds.
	Rounds int
}

// paperFig7 is the paper's sweep.
var paperFig7 = fig7Config{Thetas: []float64{0, 0.3, 0.6}, Rounds: 150}

// fig7Cell is one bar triple of Fig. 7.
type fig7Cell struct {
	Network     string
	Theta       float64
	Success     float64
	Unavailable float64
	Abuse       float64
}

// fig7Result reproduces Fig. 7, "Comparison of success rates, unavailable
// rates, and abuse rates of task delegations with different threshold value
// θ_y(τ) in the reverse evaluations".
type fig7Result struct {
	Cells []fig7Cell
}

// runFig7 sweeps the reverse-evaluation threshold over the three networks.
// The delegation rounds run on the parallel engine, so o.Parallelism only
// changes wall-clock time, never the cells.
func runFig7(o Options, cfg fig7Config) fig7Result {
	var res fig7Result
	tk := task.Uniform(1, task.CharCompute)
	for _, profile := range socialgen.Profiles() {
		net := socialgen.Generate(profile, o.Seed)
		for _, theta := range cfg.Thetas {
			pcfg := sim.DefaultPopulationConfig(o.Seed)
			pcfg.Theta = theta
			pcfg.Parallelism = o.Parallelism
			p := sim.NewPopulation(net, pcfg)
			eng := sim.NewEngine(p, fmt.Sprintf("fig7-theta-%v", theta))
			var c sim.MutualityCounters
			for round := 0; round < cfg.Rounds; round++ {
				eng.MutualityRound(round, tk, &c)
			}
			res.Cells = append(res.Cells, fig7Cell{
				Network:     profile.Name,
				Theta:       theta,
				Success:     c.SuccessRate(),
				Unavailable: c.UnavailableRate(),
				Abuse:       c.AbuseRate(),
			})
		}
	}
	return res
}

// Table renders the figure's bars as rows.
func (r fig7Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Fig. 7: success / unavailable / abuse rates vs reverse-evaluation threshold",
		Headers: []string{"Network", "theta", "Success", "Unavailable", "Abuse"},
	}
	for _, c := range r.Cells {
		t.AddRow(c.Network, fmt.Sprintf("%.1f", c.Theta),
			fmt.Sprintf("%.3f", c.Success), fmt.Sprintf("%.3f", c.Unavailable),
			fmt.Sprintf("%.3f", c.Abuse))
	}
	return t
}

// cellsByNetwork groups cells preserving theta order.
func (r fig7Result) cellsByNetwork() map[string][]fig7Cell {
	m := map[string][]fig7Cell{}
	for _, c := range r.Cells {
		m[c.Network] = append(m[c.Network], c)
	}
	return m
}

// ShapeCheck verifies Fig. 7's claims: with θ = 0 the abuse rate exceeds
// 0.4 and nothing is unavailable; as θ grows, abuse falls and
// unavailability rises, across all three networks.
func (r fig7Result) ShapeCheck() []error {
	c := &shapeCheck{experiment: "fig7"}
	byNetwork := r.cellsByNetwork()
	for _, network := range slices.Sorted(maps.Keys(byNetwork)) {
		cells := byNetwork[network]
		for i, cell := range cells {
			if cell.Theta == 0 {
				c.expect(cell.Abuse > 0.3, "%s θ=0: abuse %.3f not > 0.3", network, cell.Abuse)
				c.expect(cell.Unavailable == 0, "%s θ=0: unavailable %.3f != 0", network, cell.Unavailable)
			}
			if cell.Theta > 0 {
				c.expect(cell.Unavailable < 1, "%s θ=%.1f: service deadlocked (unavailable = 1)", network, cell.Theta)
				c.expect(cell.Success > 0, "%s θ=%.1f: no successful delegations", network, cell.Theta)
			}
			if i > 0 {
				prev := cells[i-1]
				c.expect(cell.Abuse <= prev.Abuse+0.02,
					"%s: abuse did not fall from θ=%.1f to θ=%.1f (%.3f → %.3f)",
					network, prev.Theta, cell.Theta, prev.Abuse, cell.Abuse)
				c.expect(cell.Unavailable >= prev.Unavailable-0.02,
					"%s: unavailability did not rise from θ=%.1f to θ=%.1f (%.3f → %.3f)",
					network, prev.Theta, cell.Theta, prev.Unavailable, cell.Unavailable)
			}
		}
	}
	return c.errs
}
