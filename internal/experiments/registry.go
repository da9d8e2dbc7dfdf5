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

// Options tunes an experiment run beyond its default configuration.
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
	return func(o Options) Result {
		cfg := DefaultAttackConfig(o.Seed, model)
		cfg.Parallelism = o.Parallelism
		return RunAttack(cfg)
	}
}

// runners maps experiment IDs to their default-configuration runners.
var runners = map[string]func(o Options) Result{
	"table1": func(o Options) Result { return runTable1(o.Seed) },
	"fig7": func(o Options) Result {
		cfg := defaultFig7Config(o.Seed)
		cfg.Parallelism = o.Parallelism
		return runFig7(cfg)
	},
	"fig8": func(o Options) Result { return runFig8(defaultFig8Config(o.Seed)) },
	"figs9-11": func(o Options) Result {
		cfg := defaultTransitivityConfig(o.Seed)
		cfg.Parallelism = o.Parallelism
		return runTransitivitySweep(cfg)
	},
	"fig12": func(o Options) Result {
		cfg := defaultFig12Config(o.Seed)
		cfg.Parallelism = o.Parallelism
		return runFig12(cfg)
	},
	"table2": func(o Options) Result {
		cfg := defaultTable2Config(o.Seed)
		cfg.Parallelism = o.Parallelism
		return runTable2(cfg)
	},
	"fig13": func(o Options) Result {
		cfg := defaultFig13Config(o.Seed)
		cfg.Parallelism = o.Parallelism
		return runFig13(cfg)
	},
	"fig14": func(o Options) Result { return runFig14(defaultFig14Config(o.Seed)) },
	"fig15": func(o Options) Result { return runFig15(defaultFig15Config(o.Seed)) },
	"fig16": func(o Options) Result { return runFig16(defaultFig16Config(o.Seed)) },
	"ablation-eq7": func(o Options) Result {
		return runAblationEq7(defaultAblationEq7Config(o.Seed))
	},
	"ablation-cannikin": func(o Options) Result {
		return runAblationCannikin(defaultAblationCannikinConfig(o.Seed))
	},
	"ablation-self": func(o Options) Result {
		cfg := defaultAblationSelfDelegationConfig(o.Seed)
		cfg.Parallelism = o.Parallelism
		return runAblationSelfDelegation(cfg)
	},
	"attack-badmouth":  attackRunner(adversary.BadMouthing{}),
	"attack-onoff":     attackRunner(adversary.OnOff{Period: 20, Duty: 0.5}),
	"attack-whitewash": attackRunner(adversary.Whitewashing{}),
	"attack-collusion": attackRunner(adversary.Collusion{Of: adversary.BadMouthing{}}),
	"model-matrix": func(o Options) Result {
		cfg := defaultModelMatrixConfig(o.Seed)
		cfg.Parallelism = o.Parallelism
		if o.Model != "" {
			// o.Model has been validated by RunOpts.
			if m, err := core.ParseModel(o.Model); err == nil {
				cfg.Models = []core.TrustModel{m}
			}
		}
		return runModelMatrix(cfg)
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
