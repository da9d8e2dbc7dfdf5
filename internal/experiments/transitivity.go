package experiments

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"siot/internal/core"
	"siot/internal/report"
	"siot/internal/rng"
	"siot/internal/sim"
	"siot/internal/socialgen"
	"siot/internal/stats"
	"siot/internal/task"
)

// models lists the paper's three trust-transfer methods in figure order.
var models = []core.TrustModel{core.Aggressive, core.Conservative, core.Traditional}

// paperMaxDepth bounds the recommendation chains of the paper's §5.5
// experiments (Figs. 9–12 and Table 2).
const paperMaxDepth = 3

// transitivityConfig parameterizes the §5.5 sweep behind Figs. 9–11.
type transitivityConfig struct {
	// CharCounts is the sweep over "the total number of different
	// characteristics of the tasks in the network" (4–7 in the paper).
	CharCounts []int
	// Repeats averages each cell over fresh seedings.
	Repeats int
	// MaxDepth bounds recommendation chains.
	MaxDepth int
}

// paperTransitivity is the paper's sweep.
var paperTransitivity = transitivityConfig{CharCounts: []int{4, 5, 6, 7}, Repeats: 5, MaxDepth: paperMaxDepth}

// transitivityCell is one (network, model, alphabet-size) measurement.
// Table 2 draws its characteristics from node features, so its cells leave
// NumChars zero.
type transitivityCell struct {
	Network      string
	Model        string
	NumChars     int
	Success      float64
	Unavailable  float64
	AvgPotential float64
}

// transitivityResult backs Figs. 9 (success rate), 10 (unavailable rate),
// and 11 (average number of potential trustees).
type transitivityResult struct {
	Cells []transitivityCell
}

// runTransitivitySweep measures the three trust-transfer methods over the
// three networks and the characteristic-count sweep. o.Parallelism is the
// width of the per-trustor searches and never changes a cell.
func runTransitivitySweep(o Options, cfg transitivityConfig) transitivityResult {
	var res transitivityResult
	for _, profile := range socialgen.Profiles() {
		net := socialgen.Generate(profile, o.Seed)
		for _, numChars := range cfg.CharCounts {
			agg := map[string]sim.TransitivityStats{}
			for rep := 0; rep < cfg.Repeats; rep++ {
				repSeed := rng.Mix(o.Seed, "transitivity", profile.Name, fmt.Sprint(numChars), fmt.Sprint(rep))
				setup := sim.DefaultTransitivitySetup(numChars, rng.New(repSeed, "setup"))
				setup.MaxDepth = cfg.MaxDepth
				runModels(agg, net, repSeed, o.Parallelism, setup, sim.SeedExperience, "figs9-11")
			}
			res.Cells = appendCells(res.Cells, profile.Name, numChars, agg)
		}
	}
	return res
}

// runModels builds a population on net, seeds it with seedFn and captures
// one frozen epoch, then runs every paper model on it under the engine
// label and merges each model's stats into agg (keyed by model name). One
// capture serves all three models: the searches are pure, so the stores
// cannot change between runs. Releasing the epoch recycles its arenas into
// the next capture.
func runModels(agg map[string]sim.TransitivityStats, net *socialgen.Network, seed uint64, parallelism int,
	setup sim.TransitivitySetup, seedFn func(*sim.Population, sim.TransitivitySetup, uint64) [][]task.Task, engine string) {
	pcfg := sim.DefaultPopulationConfig(seed)
	pcfg.Parallelism = parallelism
	p := sim.NewPopulation(net, pcfg)
	seedFn(p, setup, seed)
	ep := sim.NewEngine(p, engine).TransitivityEpoch(setup)
	defer ep.Release()
	for _, m := range models {
		st, sum := ep.RunModel(m, seed), agg[m.Name()]
		sum.Requests += st.Requests
		sum.Successes += st.Successes
		sum.Unavailable += st.Unavailable
		sum.PotentialTrustees += st.PotentialTrustees
		sum.InquiredPerTrustor = append(sum.InquiredPerTrustor, st.InquiredPerTrustor...)
		agg[m.Name()] = sum
	}
}

// appendCells appends one cell per paper model, in figure order, from the
// merged stats of runModels.
func appendCells(cells []transitivityCell, network string, numChars int, agg map[string]sim.TransitivityStats) []transitivityCell {
	for _, m := range models {
		st := agg[m.Name()]
		cells = append(cells, transitivityCell{
			Network: network, Model: m.Name(), NumChars: numChars,
			Success:      st.SuccessRate(),
			Unavailable:  st.UnavailableRate(),
			AvgPotential: st.AvgPotentialTrustees(),
		})
	}
	return cells
}

// cellKey indexes cells by (network, model, alphabet size).
type cellKey struct {
	network, model string
	numChars       int
}

func indexCells(cells []transitivityCell) map[cellKey]transitivityCell {
	byKey := make(map[cellKey]transitivityCell, len(cells))
	for _, c := range cells {
		byKey[cellKey{c.Network, c.Model, c.NumChars}] = c
	}
	return byKey
}

// series extracts one curve per (network, model).
func (r transitivityResult) series(metric func(transitivityCell) float64) []stats.Series {
	type key struct{ network, model string }
	byKey := map[key]*stats.Series{}
	var order []key
	for _, c := range r.Cells {
		k := key{c.Network, c.Model}
		s, ok := byKey[k]
		if !ok {
			s = &stats.Series{Name: fmt.Sprintf("%s %s", c.Network, c.Model)}
			byKey[k] = s
			order = append(order, k)
		}
		s.X = append(s.X, float64(c.NumChars))
		s.Y = append(s.Y, metric(c))
	}
	out := make([]stats.Series, 0, len(order))
	for _, k := range order {
		out = append(out, *byKey[k])
	}
	return out
}

// successSeries returns Fig. 9's curves.
func (r transitivityResult) successSeries() []stats.Series {
	return r.series(func(c transitivityCell) float64 { return c.Success })
}

// unavailableSeries returns Fig. 10's curves.
func (r transitivityResult) unavailableSeries() []stats.Series {
	return r.series(func(c transitivityCell) float64 { return c.Unavailable })
}

// potentialSeries returns Fig. 11's curves.
func (r transitivityResult) potentialSeries() []stats.Series {
	return r.series(func(c transitivityCell) float64 { return c.AvgPotential })
}

// Table renders all cells.
func (r transitivityResult) Table() *report.Table {
	t := &report.Table{
		Title:   "Figs. 9-11: transitivity methods vs number of characteristics",
		Headers: []string{"Network", "Method", "Chars", "Success", "Unavailable", "AvgPotentialTrustees"},
	}
	for _, c := range r.Cells {
		t.AddRow(c.Network, c.Model, fmt.Sprint(c.NumChars),
			fmt.Sprintf("%.3f", c.Success), fmt.Sprintf("%.3f", c.Unavailable),
			fmt.Sprintf("%.2f", c.AvgPotential))
	}
	return t
}

// ShapeCheck verifies the §5.5 claims: for every network and alphabet size,
// aggressive ≥ conservative > traditional on success rate and potential
// trustees, the reverse on unavailable rate; and success falls (while
// unavailability rises) as the alphabet grows, per network and method,
// comparing the sweep endpoints.
func (r transitivityResult) ShapeCheck() []error {
	c := &shapeCheck{experiment: "figs9-11"}
	cells := indexCells(r.Cells)
	charSet := map[int]bool{}
	for _, cell := range r.Cells {
		charSet[cell.NumChars] = true
	}
	chars := slices.Sorted(maps.Keys(charSet))
	for _, p := range socialgen.Profiles() {
		for _, k := range chars {
			aggr := cells[cellKey{p.Name, core.Aggressive.Name(), k}]
			cons := cells[cellKey{p.Name, core.Conservative.Name(), k}]
			trad := cells[cellKey{p.Name, core.Traditional.Name(), k}]
			c.expect(aggr.Success >= cons.Success-0.03,
				"%s chars=%d: aggressive success %.3f below conservative %.3f", p.Name, k, aggr.Success, cons.Success)
			c.expect(cons.Success > trad.Success,
				"%s chars=%d: conservative success %.3f not above traditional %.3f", p.Name, k, cons.Success, trad.Success)
			c.expect(aggr.Unavailable <= cons.Unavailable+0.03,
				"%s chars=%d: aggressive unavailability %.3f above conservative %.3f", p.Name, k, aggr.Unavailable, cons.Unavailable)
			c.expect(cons.Unavailable < trad.Unavailable,
				"%s chars=%d: conservative unavailability %.3f not below traditional %.3f", p.Name, k, cons.Unavailable, trad.Unavailable)
			c.expect(aggr.AvgPotential >= cons.AvgPotential-1e-9,
				"%s chars=%d: aggressive potential %.2f below conservative %.2f", p.Name, k, aggr.AvgPotential, cons.AvgPotential)
			c.expect(cons.AvgPotential > trad.AvgPotential,
				"%s chars=%d: conservative potential %.2f not above traditional %.2f", p.Name, k, cons.AvgPotential, trad.AvgPotential)
		}
		if len(chars) >= 2 {
			first, last := chars[0], chars[len(chars)-1]
			for _, m := range models {
				a := cells[cellKey{p.Name, m.Name(), first}]
				b := cells[cellKey{p.Name, m.Name(), last}]
				c.expect(b.Success <= a.Success+0.03,
					"%s %s: success did not fall across the sweep (%.3f → %.3f)", p.Name, m.Name(), a.Success, b.Success)
				c.expect(b.Unavailable >= a.Unavailable-0.03,
					"%s %s: unavailability did not rise across the sweep (%.3f → %.3f)", p.Name, m.Name(), a.Unavailable, b.Unavailable)
			}
		}
	}
	return c.errs
}

// fig12Result reproduces Fig. 12, "Comparison of the numbers of inquired
// nodes with different trust transitivity methods": the per-trustor count
// of interrogated nodes, sorted ascending per method.
type fig12Result struct {
	// Sorted per-trustor inquired-node counts, by model name.
	PerModel map[string][]int
}

// runFig12 measures search overhead per trustor on the paper's Facebook
// subnetwork with a 5-characteristic alphabet.
func runFig12(o Options) fig12Result {
	setup := sim.DefaultTransitivitySetup(5, rng.New(o.Seed, "fig12-setup"))
	setup.MaxDepth = paperMaxDepth
	agg := map[string]sim.TransitivityStats{}
	runModels(agg, socialgen.Generate(socialgen.Facebook(), o.Seed), o.Seed, o.Parallelism, setup, sim.SeedExperience, "fig12")
	res := fig12Result{PerModel: map[string][]int{}}
	for name, st := range agg {
		sort.Ints(st.InquiredPerTrustor)
		res.PerModel[name] = st.InquiredPerTrustor
	}
	return res
}

// Table summarizes the search-overhead distribution per method.
func (r fig12Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Fig. 12: inquired nodes per trustor (distribution)",
		Headers: []string{"Method", "Median", "p90", "Max", "Total"},
	}
	for _, m := range models {
		counts := r.PerModel[m.Name()]
		y := make([]float64, len(counts))
		total := 0
		for i, v := range counts {
			y[i] = float64(v)
			total += v
		}
		_, hi := stats.MinMax(y)
		t.AddRow(m.Name(),
			fmt.Sprintf("%.0f", stats.Quantile(y, 0.5)),
			fmt.Sprintf("%.0f", stats.Quantile(y, 0.9)),
			fmt.Sprintf("%.0f", hi),
			fmt.Sprintf("%d", total))
	}
	return t
}

// series returns one sorted curve per model (x = sorted trustor index).
func (r fig12Result) series() []stats.Series {
	var out []stats.Series
	for _, m := range models {
		counts := r.PerModel[m.Name()]
		y := make([]float64, len(counts))
		for i, v := range counts {
			y[i] = float64(v)
		}
		out = append(out, stats.NewSeries(m.Name(), y))
	}
	return out
}

// ShapeCheck verifies Fig. 12's claim: aggressive interrogates the most
// nodes, traditional the fewest, comparing totals.
func (r fig12Result) ShapeCheck() []error {
	c := &shapeCheck{experiment: "fig12"}
	total := func(m core.TrustModel) int {
		sum := 0
		for _, v := range r.PerModel[m.Name()] {
			sum += v
		}
		return sum
	}
	aggr, cons, trad := total(core.Aggressive), total(core.Conservative), total(core.Traditional)
	c.expect(aggr >= cons, "aggressive total %d below conservative %d", aggr, cons)
	c.expect(cons > trad, "conservative total %d not above traditional %d", cons, trad)
	return c.errs
}

// table2Config parameterizes the real-node-property variant.
type table2Config struct {
	// Repeats averages each network over fresh seedings.
	Repeats int
}

// paperTable2 mirrors the paper.
var paperTable2 = table2Config{Repeats: 5}

// table2Result reproduces Table 2, "Comparison of success rates,
// unavailable rates, and average numbers of potential trustees with
// real-world network node properties".
type table2Result struct {
	Cells []transitivityCell
}

// runTable2 runs the transitivity comparison with node profile features as
// task characteristics.
func runTable2(o Options, cfg table2Config) table2Result {
	var res table2Result
	for _, profile := range socialgen.Profiles() {
		net := socialgen.Generate(profile, o.Seed)
		agg := map[string]sim.TransitivityStats{}
		for rep := 0; rep < cfg.Repeats; rep++ {
			repSeed := rng.Mix(o.Seed, "table2", profile.Name, fmt.Sprint(rep))
			setup := sim.DefaultTransitivitySetup(profile.FeatureKinds, rng.New(repSeed, "setup"))
			setup.MaxDepth = paperMaxDepth
			runModels(agg, net, repSeed, o.Parallelism, setup, sim.SeedExperienceFromFeatures, "table2")
		}
		res.Cells = appendCells(res.Cells, profile.Name, 0, agg)
	}
	return res
}

// Table renders Table 2 in the paper's layout (method-major rows).
func (r table2Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Table 2: transitivity with real-world node properties as characteristics",
		Headers: []string{"Method", "Metric", "facebook", "gplus", "twitter"},
	}
	byKey := indexCells(r.Cells)
	for _, m := range []core.TrustModel{core.Traditional, core.Conservative, core.Aggressive} {
		rows := []struct {
			name string
			get  func(transitivityCell) string
		}{
			{"Success rate", func(c transitivityCell) string { return fmt.Sprintf("%.2f%%", 100*c.Success) }},
			{"Unavailable rate", func(c transitivityCell) string { return fmt.Sprintf("%.2f%%", 100*c.Unavailable) }},
			{"Num. potential trustees", func(c transitivityCell) string { return fmt.Sprintf("%.2f", c.AvgPotential) }},
		}
		for _, row := range rows {
			cells := []string{m.Name(), row.name}
			for _, p := range socialgen.Profiles() {
				cells = append(cells, row.get(byKey[cellKey{p.Name, m.Name(), 0}]))
			}
			t.AddRow(cells...)
		}
	}
	return t
}

// ShapeCheck verifies Table 2's ordering: per network, success and
// potential trustees rank aggressive ≥ conservative > traditional, and
// unavailability ranks the other way.
func (r table2Result) ShapeCheck() []error {
	c := &shapeCheck{experiment: "table2"}
	byKey := indexCells(r.Cells)
	for _, p := range socialgen.Profiles() {
		aggr := byKey[cellKey{p.Name, core.Aggressive.Name(), 0}]
		cons := byKey[cellKey{p.Name, core.Conservative.Name(), 0}]
		trad := byKey[cellKey{p.Name, core.Traditional.Name(), 0}]
		c.expect(aggr.Success >= cons.Success-0.03, "%s: aggressive success %.3f below conservative %.3f", p.Name, aggr.Success, cons.Success)
		c.expect(cons.Success > trad.Success, "%s: conservative success %.3f not above traditional %.3f", p.Name, cons.Success, trad.Success)
		c.expect(aggr.Unavailable <= cons.Unavailable+0.03, "%s: aggressive unavailability above conservative", p.Name)
		c.expect(cons.Unavailable < trad.Unavailable, "%s: conservative unavailability not below traditional", p.Name)
		c.expect(aggr.AvgPotential >= cons.AvgPotential-1e-9, "%s: aggressive potential below conservative", p.Name)
		c.expect(cons.AvgPotential > trad.AvgPotential, "%s: conservative potential not above traditional", p.Name)
	}
	return c.errs
}
