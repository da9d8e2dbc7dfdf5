package experiments

import (
	"fmt"

	"siot/internal/adversary"
	"siot/internal/core"
	"siot/internal/report"
	"siot/internal/sim"
	"siot/internal/stats"
)

// model-matrix is the cross-model resilience matrix the ROADMAP's
// trust-model-zoo flagship calls for: every registered TrustModel — the
// paper's three policies plus the related-work models (hellinger-mf,
// feature-weighted) — evaluated against every PR 2 attack family, in one
// experiment. Per attack, the delegation rounds are replayed once (the
// round dynamics never consult the transitivity model, so one attacked run
// serves every model) while a per-round probe epoch scores all models over
// the same snapshot (sim.PerceivedTrustModels): each model sees the
// network through its own single-edge lens, so the matrix answers the
// flagship's question — which models detect bad-mouthing fastest, which
// survive whitewashing — with the trust gap, detection latency, and
// success degradation of every (model, attack) cell.

// matrixRounds is the matrix's round count on the attack scenarios'
// network, ring and thresholds: enough for detection latencies to spread.
// The matrix runs one baseline plus one run per attack, each attacked run
// with per-round multi-model probes, so it is deliberately shorter than the
// single-attack scenarios' 150.
const matrixRounds = 60

// matrixAttacks is the fixed attack battery of the matrix: every PR 2
// attack family (bad-mouthing, ballot-stuffing, on-off, whitewashing, and
// a coordinated collusion ring).
func matrixAttacks() []adversary.Attack {
	return []adversary.Attack{
		adversary.BadMouthing{},
		adversary.BallotStuffing{},
		adversary.OnOff{Period: 20, Duty: 0.5},
		adversary.Whitewashing{},
		adversary.Collusion{Of: adversary.BadMouthing{}},
	}
}

// modelMatrixCell is one (model, attack) entry of the matrix.
type modelMatrixCell struct {
	Model  string
	Attack string
	// Gap is the per-round honest-minus-attacker perceived-trust gap seen
	// through this model's lens during the attacked run.
	Gap stats.Series
	// Resilience aggregates the cell's metrics. SuccessDegradation is a
	// property of the attack, not the model (the rounds do not consult the
	// transitivity model), so it repeats across a column.
	Resilience report.Resilience
}

// modelMatrixResult is the full cross-model resilience matrix.
type modelMatrixResult struct {
	Network   string
	Attackers int
	Rounds    int
	// Models and Attacks give the matrix axes in evaluation order.
	Models  []string
	Attacks []string
	// Cells holds one entry per (attack, model), attack-major.
	Cells []modelMatrixCell
	// BaselineSuccess is the honest-ring cumulative success rate every
	// degradation is measured against.
	BaselineSuccess float64
	// AttackedSuccess is the attacked cumulative success rate per attack,
	// indexed like Attacks.
	AttackedSuccess []float64
}

// runModelMatrix plays the matrix on cfg's network, ring and rounds (its
// Model is unused: the matrix runs every attack of matrixAttacks): one
// honest-ring baseline run, then one attacked run per attack with every
// model probed per round over a shared epoch. The models are o.Model alone,
// or every registered model in sorted-name order when it is "". All runs
// share the network, seed, and engine label, so a cell differs from its
// neighbors only through the attack (rows) or the model's lens (columns).
func runModelMatrix(o Options, cfg AttackScenarioConfig) modelMatrixResult {
	net := cfg.network(o.Seed)
	const label = "model-matrix"
	names := core.ModelNames()
	if o.Model != "" {
		names = []string{o.Model}
	}
	var models []core.TrustModel
	for _, name := range names {
		m, err := core.ParseModel(name)
		if err != nil {
			panic(err)
		}
		models = append(models, m)
	}

	res := modelMatrixResult{
		Network:   cfg.Network,
		Attackers: cfg.Attackers,
		Rounds:    cfg.Rounds,
	}
	for _, m := range models {
		res.Models = append(res.Models, m.Name())
	}
	// The baseline ring runs the null attack (same marked ring, no malice),
	// exactly like the single-attack scenarios.
	baseline := cfg.play(o, net, adversary.Honest{}, label, nil).SuccessRate()
	res.BaselineSuccess = baseline
	for _, atk := range matrixAttacks() {
		gaps := make([][]float64, len(models))
		for mi := range gaps {
			gaps[mi] = make([]float64, cfg.Rounds)
		}
		attacked := cfg.play(o, net, atk, label, func(eng *sim.Engine, round int, _ *sim.MutualityCounters) {
			for mi, pv := range eng.PerceivedTrustModels(round, scenarioTask, models) {
				gaps[mi][round] = pv.Honest - pv.Attacker
			}
		}).SuccessRate()
		res.Attacks = append(res.Attacks, atk.Name())
		res.AttackedSuccess = append(res.AttackedSuccess, attacked)
		for mi, m := range models {
			gap := stats.NewSeries(m.Name(), gaps[mi])
			res.Cells = append(res.Cells, modelMatrixCell{
				Model:      m.Name(),
				Attack:     atk.Name(),
				Gap:        gap,
				Resilience: report.NewResilience(gap, detectionGap, baseline, attacked),
			})
		}
	}
	return res
}

// Table renders the matrix, one row per (attack, model) cell.
func (r modelMatrixResult) Table() *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Cross-model resilience matrix (%d attackers, %s network, %d rounds; baseline success %.3f)",
			r.Attackers, r.Network, r.Rounds, r.BaselineSuccess),
		Headers: []string{"Attack", "Model", "Gap (final)", "Gap (min)", "Detection", "Degradation"},
	}
	for _, c := range r.Cells {
		detection := "undetected"
		if c.Resilience.DetectionRound >= 0 {
			detection = fmt.Sprintf("round %d", c.Resilience.DetectionRound)
		}
		t.AddRow(c.Attack, c.Model,
			fmt.Sprintf("%.3f", c.Resilience.TrustGap),
			fmt.Sprintf("%.3f", c.Resilience.MinTrustGap),
			detection,
			fmt.Sprintf("%.3f", c.Resilience.SuccessDegradation))
	}
	return t
}

// Charts renders one trust-gap chart per attack, overlaying every model's
// gap curve — the matrix read horizontally.
func (r modelMatrixResult) Charts() []report.Chart {
	var charts []report.Chart
	for ai, attack := range r.Attacks {
		var series []stats.Series
		for mi := range r.Models {
			series = append(series, r.Cells[ai*len(r.Models)+mi].Gap)
		}
		charts = append(charts, report.Chart{
			Title:  fmt.Sprintf("Trust gap under %s, per model", attack),
			Series: series,
			XLabel: "round", YLabel: "honest TW − attacker TW",
		})
	}
	return charts
}

// ShapeCheck verifies the matrix is well-formed and the probes produced
// plausible trust values: every cell series validates, every gap stays in
// [-1, 1], success rates stay in [0, 1], and at least one model shows a
// resilience signal under the straight defamation attack (bad-mouthing
// honest trustees must move SOME lens, else the probes are broken).
func (r modelMatrixResult) ShapeCheck() []error {
	c := &shapeCheck{experiment: "model-matrix"}
	c.expect(len(r.Cells) == len(r.Models)*len(r.Attacks),
		"matrix has %d cells, want %d", len(r.Cells), len(r.Models)*len(r.Attacks))
	c.expect(r.BaselineSuccess >= 0 && r.BaselineSuccess <= 1,
		"baseline success %v outside [0,1]", r.BaselineSuccess)
	for _, s := range r.AttackedSuccess {
		c.expect(s >= 0 && s <= 1, "attacked success %v outside [0,1]", s)
	}
	for _, cell := range r.Cells {
		if err := cell.Gap.Validate(); err != nil {
			c.expect(false, "cell %s/%s series invalid: %v", cell.Attack, cell.Model, err)
		}
		for _, v := range cell.Gap.Y {
			c.expect(v >= -1 && v <= 1, "cell %s/%s gap %v outside [-1,1]", cell.Attack, cell.Model, v)
		}
	}
	signal := false
	for _, cell := range r.Cells {
		if cell.Attack == (adversary.BadMouthing{}).Name() &&
			(cell.Resilience.TrustGap > 0.02 || cell.Resilience.MinTrustGap < -0.02) {
			signal = true
		}
	}
	c.expect(signal, "no model registered any trust-gap signal under bad-mouthing")
	return c.errs
}
