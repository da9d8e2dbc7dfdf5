package experiments

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"

	"siot/internal/adversary"
	"siot/internal/core"
	"siot/internal/report"
	"siot/internal/stats"
)

// ErrUnknownExperiment is returned (wrapped) by Run and RunOpts when the
// named experiment is not registered. Callers match it with errors.Is.
var ErrUnknownExperiment = errors.New("unknown experiment")

// Result is the common surface of every experiment result: a summary table
// and the qualitative shape checks against the paper's claims.
type Result interface {
	Table() *report.Table
	ShapeCheck() []error
}

// Charter is implemented by results that can render figure curves.
type Charter interface {
	Charts() []report.Chart
}

// Render writes res's summary table and, when charts is set and res is a
// Charter, each of its charts preceded by a blank line.
func Render(w io.Writer, res Result, charts bool) error {
	if err := res.Table().Render(w); err != nil {
		return err
	}
	if c, ok := res.(Charter); ok && charts {
		for _, chart := range c.Charts() {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
			if err := chart.Render(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// Charts implements Charter for the sweep results.
func (r transitivityResult) Charts() []report.Chart {
	return []report.Chart{
		{Title: "Fig. 9: success rate vs number of characteristics", Series: r.successSeries(),
			XLabel: "characteristics in the network", YLabel: "success rate"},
		{Title: "Fig. 10: unavailable rate vs number of characteristics", Series: r.unavailableSeries(),
			XLabel: "characteristics in the network", YLabel: "unavailable rate"},
		{Title: "Fig. 11: average number of potential trustees", Series: r.potentialSeries(),
			XLabel: "characteristics in the network", YLabel: "potential trustees"},
	}
}

// Charts implements Charter.
func (r fig12Result) Charts() []report.Chart {
	return []report.Chart{{
		Title:  "Fig. 12: number of inquired nodes per (sorted) trustor",
		Series: r.series(), XLabel: "(sorted) trustor index", YLabel: "inquired nodes",
	}}
}

// Charts implements Charter.
func (r fig13Result) Charts() []report.Chart {
	return []report.Chart{{
		Title:  "Fig. 13: average net profit vs iterations",
		Series: r.Series, XLabel: "iteration", YLabel: "net profit",
	}}
}

// Charts implements Charter.
func (r fig15Result) Charts() []report.Chart {
	return []report.Chart{{
		Title:  "Fig. 15: tracked success rate under a changing environment",
		Series: r.allSeries(), XLabel: "iteration", YLabel: "expected success rate",
	}}
}

// Charts implements Charter.
func (r fig8Result) Charts() []report.Chart {
	return []report.Chart{{
		Title:  "Fig. 8: percentage selecting honest devices per experiment",
		Series: []stats.Series{r.WithModel, r.WithoutModel},
		XLabel: "experiment index", YLabel: "% honest selections",
	}}
}

// Charts implements Charter.
func (r fig14Result) Charts() []report.Chart {
	return []report.Chart{{
		Title:  "Fig. 14: trustor active time per task index",
		Series: []stats.Series{r.WithModel, r.WithoutModel},
		XLabel: "experiment index", YLabel: "active time (ms)",
	}}
}

// Charts implements Charter.
func (r fig16Result) Charts() []report.Chart {
	return []report.Chart{{
		Title:  "Fig. 16: net profit across the light schedule",
		Series: []stats.Series{r.WithModel, r.WithoutModel},
		XLabel: "experiment index", YLabel: "net profit",
	}}
}

// fig7Result renders its rate triples as one chart per metric-free view;
// bars do not translate to line charts, so it offers the table only.

// Options is the run context of an experiment: every runner takes it next
// to its own scale, and the registry runs each at the paper's scale.
type Options struct {
	// Seed drives every random choice of the run.
	Seed uint64
	// Parallelism is the simulation engine's worker-pool width for the
	// experiments that run delegation rounds or transitivity searches
	// (0 = GOMAXPROCS, 1 = serial). Experiment outputs are bit-identical
	// across all values; only wall-clock time changes.
	Parallelism int
	// Model restricts the model-matrix experiment to one registered trust
	// model (see core.ParseModel for the names); "" evaluates every
	// registered model. Other experiments ignore it.
	Model string
}

// attackRunner runs the attack scenario of one adversary model.
func attackRunner(model adversary.Attack) func(o Options) Result {
	return func(o Options) Result { return RunAttack(o, DefaultAttackConfig(model)) }
}

// runners maps experiment IDs to their paper-scale runners.
var runners = map[string]func(o Options) Result{
	"table1":            func(o Options) Result { return runTable1(o) },
	"fig7":              func(o Options) Result { return runFig7(o, paperFig7) },
	"fig8":              func(o Options) Result { return runFig8(o, paperFig8) },
	"figs9-11":          func(o Options) Result { return runTransitivitySweep(o, paperTransitivity) },
	"fig12":             func(o Options) Result { return runFig12(o) },
	"table2":            func(o Options) Result { return runTable2(o, paperTable2) },
	"fig13":             func(o Options) Result { return runFig13(o, paperFig13) },
	"fig14":             func(o Options) Result { return runFig14(o, paperFig14) },
	"fig15":             func(o Options) Result { return runFig15(o, paperFig15) },
	"fig16":             func(o Options) Result { return runFig16(o, paperFig16) },
	"ablation-eq7":      func(o Options) Result { return runAblationEq7(o, paperAblationEq7) },
	"ablation-cannikin": func(o Options) Result { return runAblationCannikin(o, paperAblationCannikin) },
	"ablation-self":     func(o Options) Result { return runAblationSelfDelegation(o, paperAblationSelfDelegation) },
	"attack-badmouth":   attackRunner(adversary.BadMouthing{}),
	"attack-onoff":      attackRunner(adversary.OnOff{Period: 20, Duty: 0.5}),
	"attack-whitewash":  attackRunner(adversary.Whitewashing{}),
	"attack-collusion":  attackRunner(adversary.Collusion{Of: adversary.BadMouthing{}}),
	"model-matrix": func(o Options) Result {
		cfg := DefaultAttackConfig(nil)
		cfg.Rounds = matrixRounds
		return runModelMatrix(o, cfg)
	},
}

// Names lists the registered experiment IDs in sorted order.
func Names() []string {
	return slices.Sorted(maps.Keys(runners))
}

// Run executes the named experiment with its paper-scale default
// configuration.
func Run(name string, seed uint64) (Result, error) {
	return RunOpts(name, Options{Seed: seed})
}

// RunOpts executes the named experiment with its paper-scale default
// configuration under the given options.
func RunOpts(name string, o Options) (Result, error) {
	r, ok := runners[name]
	if !ok {
		return nil, fmt.Errorf("experiments: %w %q (known: %v)", ErrUnknownExperiment, name, Names())
	}
	if o.Model != "" {
		if _, err := core.ParseModel(o.Model); err != nil {
			return nil, err
		}
	}
	return r(o), nil
}
