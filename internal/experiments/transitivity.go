package experiments

import (
	"fmt"
	"sort"

	"siot/internal/core"
	"siot/internal/report"
	"siot/internal/rng"
	"siot/internal/sim"
	"siot/internal/socialgen"
	"siot/internal/stats"
)

// policies lists the three trust-transfer methods in figure order.
var policies = []core.Policy{core.PolicyAggressive, core.PolicyConservative, core.PolicyTraditional}

// TransitivityConfig parameterizes the §5.5 sweep behind Figs. 9–11.
type TransitivityConfig struct {
	Seed uint64
	// CharCounts is the sweep over "the total number of different
	// characteristics of the tasks in the network" (4–7 in the paper).
	CharCounts []int
	// Repeats averages each cell over fresh seedings.
	Repeats int
	// MaxDepth bounds recommendation chains.
	MaxDepth int
	// Parallelism is the engine worker-pool width for the per-trustor
	// searches (0 = GOMAXPROCS, 1 = serial); results are bit-identical
	// across all values.
	Parallelism int
}

// DefaultTransitivityConfig returns the paper's sweep.
func DefaultTransitivityConfig(seed uint64) TransitivityConfig {
	return TransitivityConfig{Seed: seed, CharCounts: []int{4, 5, 6, 7}, Repeats: 5, MaxDepth: 3}
}

// TransitivityCell is one (network, policy, alphabet-size) measurement.
type TransitivityCell struct {
	Network      string
	Policy       core.Policy
	NumChars     int
	Success      float64
	Unavailable  float64
	AvgPotential float64
}

// TransitivityResult backs Figs. 9 (success rate), 10 (unavailable rate),
// and 11 (average number of potential trustees).
type TransitivityResult struct {
	Cells []TransitivityCell
}

// RunTransitivitySweep measures the three trust-transfer methods over the
// three networks and the characteristic-count sweep.
func RunTransitivitySweep(cfg TransitivityConfig) TransitivityResult {
	var res TransitivityResult
	for _, profile := range Networks() {
		net := socialgen.Generate(profile, cfg.Seed)
		for _, numChars := range cfg.CharCounts {
			agg := map[core.Policy]*sim.TransitivityStats{}
			for _, pol := range policies {
				agg[pol] = &sim.TransitivityStats{}
			}
			for rep := 0; rep < cfg.Repeats; rep++ {
				repSeed := rng.Mix(cfg.Seed, "transitivity", profile.Name, fmt.Sprint(numChars), fmt.Sprint(rep))
				pcfg := sim.DefaultPopulationConfig(repSeed)
				pcfg.Parallelism = cfg.Parallelism
				p := sim.NewPopulation(net, pcfg)
				r := rng.New(repSeed, "setup")
				setup := sim.DefaultTransitivitySetup(numChars, r)
				setup.MaxDepth = cfg.MaxDepth
				sim.SeedExperience(p, setup, repSeed)
				eng := sim.NewEngine(p, "figs9-11")
				// One frozen-epoch capture serves all three policies: the
				// searches are pure, so the stores cannot change between
				// runs within a rep. Releasing the epoch recycles its
				// arenas into the next repetition's capture.
				ep := eng.TransitivityEpoch(setup)
				for _, pol := range policies {
					st := ep.RunModel(pol.Model(), repSeed)
					merge(agg[pol], st)
				}
				ep.Release()
			}
			for _, pol := range policies {
				st := agg[pol]
				res.Cells = append(res.Cells, TransitivityCell{
					Network: profile.Name, Policy: pol, NumChars: numChars,
					Success:      st.SuccessRate(),
					Unavailable:  st.UnavailableRate(),
					AvgPotential: st.AvgPotentialTrustees(),
				})
			}
		}
	}
	return res
}

func merge(dst *sim.TransitivityStats, src sim.TransitivityStats) {
	dst.Requests += src.Requests
	dst.Successes += src.Successes
	dst.Unavailable += src.Unavailable
	dst.PotentialTrustees += src.PotentialTrustees
	dst.InquiredPerTrustor = append(dst.InquiredPerTrustor, src.InquiredPerTrustor...)
}

// series extracts one curve per (network, policy).
func (r TransitivityResult) series(metric func(TransitivityCell) float64) []stats.Series {
	type key struct {
		network string
		policy  core.Policy
	}
	byKey := map[key]*stats.Series{}
	var order []key
	for _, c := range r.Cells {
		k := key{c.Network, c.Policy}
		s, ok := byKey[k]
		if !ok {
			s = &stats.Series{Name: fmt.Sprintf("%s %s", c.Network, c.Policy)}
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

// SuccessSeries returns Fig. 9's curves.
func (r TransitivityResult) SuccessSeries() []stats.Series {
	return r.series(func(c TransitivityCell) float64 { return c.Success })
}

// UnavailableSeries returns Fig. 10's curves.
func (r TransitivityResult) UnavailableSeries() []stats.Series {
	return r.series(func(c TransitivityCell) float64 { return c.Unavailable })
}

// PotentialSeries returns Fig. 11's curves.
func (r TransitivityResult) PotentialSeries() []stats.Series {
	return r.series(func(c TransitivityCell) float64 { return c.AvgPotential })
}

// Table renders all cells.
func (r TransitivityResult) Table() *report.Table {
	t := &report.Table{
		Title:   "Figs. 9-11: transitivity methods vs number of characteristics",
		Headers: []string{"Network", "Method", "Chars", "Success", "Unavailable", "AvgPotentialTrustees"},
	}
	for _, c := range r.Cells {
		t.AddRow(c.Network, c.Policy.String(), fmt.Sprint(c.NumChars),
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
func (r TransitivityResult) ShapeCheck() []error {
	c := &shapeCheck{experiment: "figs9-11"}
	cells := map[string]TransitivityCell{}
	keyOf := func(n string, p core.Policy, k int) string { return fmt.Sprintf("%s/%s/%d", n, p, k) }
	charSet := map[int]bool{}
	for _, cell := range r.Cells {
		cells[keyOf(cell.Network, cell.Policy, cell.NumChars)] = cell
		charSet[cell.NumChars] = true
	}
	var chars []int
	for k := range charSet {
		chars = append(chars, k)
	}
	sort.Ints(chars)
	for _, p := range Networks() {
		for _, k := range chars {
			aggr := cells[keyOf(p.Name, core.PolicyAggressive, k)]
			cons := cells[keyOf(p.Name, core.PolicyConservative, k)]
			trad := cells[keyOf(p.Name, core.PolicyTraditional, k)]
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
			for _, pol := range policies {
				a := cells[keyOf(p.Name, pol, first)]
				b := cells[keyOf(p.Name, pol, last)]
				c.expect(b.Success <= a.Success+0.03,
					"%s %s: success did not fall across the sweep (%.3f → %.3f)", p.Name, pol, a.Success, b.Success)
				c.expect(b.Unavailable >= a.Unavailable-0.03,
					"%s %s: unavailability did not rise across the sweep (%.3f → %.3f)", p.Name, pol, a.Unavailable, b.Unavailable)
			}
		}
	}
	return c.errs
}

// Fig12Config parameterizes the search-overhead measurement.
type Fig12Config struct {
	Seed uint64
	// Network selects the sub-network (the paper uses Facebook).
	Network string
	// NumChars is the characteristic-alphabet size.
	NumChars int
	// MaxDepth bounds recommendation chains.
	MaxDepth int
	// Parallelism is the engine worker-pool width (0 = GOMAXPROCS).
	Parallelism int
}

// DefaultFig12Config mirrors the paper (Facebook subnetwork).
func DefaultFig12Config(seed uint64) Fig12Config {
	return Fig12Config{Seed: seed, Network: "facebook", NumChars: 5, MaxDepth: 3}
}

// Fig12Result reproduces Fig. 12, "Comparison of the numbers of inquired
// nodes with different trust transitivity methods": the per-trustor count
// of interrogated nodes, sorted ascending per method.
type Fig12Result struct {
	// Sorted per-trustor inquired-node counts, by policy.
	PerPolicy map[core.Policy][]int
}

// RunFig12 measures search overhead per trustor.
func RunFig12(cfg Fig12Config) Fig12Result {
	profile, err := socialgen.ProfileByName(cfg.Network)
	if err != nil {
		panic(err)
	}
	net := socialgen.Generate(profile, cfg.Seed)
	pcfg := sim.DefaultPopulationConfig(cfg.Seed)
	pcfg.Parallelism = cfg.Parallelism
	p := sim.NewPopulation(net, pcfg)
	r := rng.New(cfg.Seed, "fig12-setup")
	setup := sim.DefaultTransitivitySetup(cfg.NumChars, r)
	setup.MaxDepth = cfg.MaxDepth
	sim.SeedExperience(p, setup, cfg.Seed)

	eng := sim.NewEngine(p, "fig12")
	ep := eng.TransitivityEpoch(setup)
	defer ep.Release()
	res := Fig12Result{PerPolicy: map[core.Policy][]int{}}
	for _, pol := range policies {
		st := ep.RunModel(pol.Model(), cfg.Seed)
		counts := append([]int(nil), st.InquiredPerTrustor...)
		sort.Ints(counts)
		res.PerPolicy[pol] = counts
	}
	return res
}

// Table summarizes the search-overhead distribution per method.
func (r Fig12Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Fig. 12: inquired nodes per trustor (distribution)",
		Headers: []string{"Method", "Median", "p90", "Max", "Total"},
	}
	for _, pol := range policies {
		counts := r.PerPolicy[pol]
		y := make([]float64, len(counts))
		total := 0
		for i, v := range counts {
			y[i] = float64(v)
			total += v
		}
		_, hi := stats.MinMax(y)
		t.AddRow(pol.String(),
			fmt.Sprintf("%.0f", stats.Quantile(y, 0.5)),
			fmt.Sprintf("%.0f", stats.Quantile(y, 0.9)),
			fmt.Sprintf("%.0f", hi),
			fmt.Sprintf("%d", total))
	}
	return t
}

// Series returns one sorted curve per policy (x = sorted trustor index).
func (r Fig12Result) Series() []stats.Series {
	var out []stats.Series
	for _, pol := range policies {
		counts := r.PerPolicy[pol]
		y := make([]float64, len(counts))
		for i, v := range counts {
			y[i] = float64(v)
		}
		out = append(out, stats.NewSeries(pol.String(), y))
	}
	return out
}

// ShapeCheck verifies Fig. 12's claim: aggressive interrogates the most
// nodes, traditional the fewest, comparing totals.
func (r Fig12Result) ShapeCheck() []error {
	c := &shapeCheck{experiment: "fig12"}
	total := func(p core.Policy) int {
		sum := 0
		for _, v := range r.PerPolicy[p] {
			sum += v
		}
		return sum
	}
	aggr, cons, trad := total(core.PolicyAggressive), total(core.PolicyConservative), total(core.PolicyTraditional)
	c.expect(aggr >= cons, "aggressive total %d below conservative %d", aggr, cons)
	c.expect(cons > trad, "conservative total %d not above traditional %d", cons, trad)
	return c.errs
}

// Table2Config parameterizes the real-node-property variant.
type Table2Config struct {
	Seed uint64
	// Repeats averages each network over fresh seedings.
	Repeats  int
	MaxDepth int
	// Parallelism is the engine worker-pool width (0 = GOMAXPROCS).
	Parallelism int
}

// DefaultTable2Config mirrors the paper.
func DefaultTable2Config(seed uint64) Table2Config {
	return Table2Config{Seed: seed, Repeats: 5, MaxDepth: 3}
}

// Table2Cell is one (network, method) row of Table 2.
type Table2Cell struct {
	Network      string
	Policy       core.Policy
	Success      float64
	Unavailable  float64
	AvgPotential float64
}

// Table2Result reproduces Table 2, "Comparison of success rates,
// unavailable rates, and average numbers of potential trustees with
// real-world network node properties".
type Table2Result struct {
	Cells []Table2Cell
}

// RunTable2 runs the transitivity comparison with node profile features as
// task characteristics.
func RunTable2(cfg Table2Config) Table2Result {
	var res Table2Result
	for _, profile := range Networks() {
		net := socialgen.Generate(profile, cfg.Seed)
		agg := map[core.Policy]*sim.TransitivityStats{}
		for _, pol := range policies {
			agg[pol] = &sim.TransitivityStats{}
		}
		for rep := 0; rep < cfg.Repeats; rep++ {
			repSeed := rng.Mix(cfg.Seed, "table2", profile.Name, fmt.Sprint(rep))
			pcfg := sim.DefaultPopulationConfig(repSeed)
			pcfg.Parallelism = cfg.Parallelism
			p := sim.NewPopulation(net, pcfg)
			r := rng.New(repSeed, "setup")
			setup := sim.DefaultTransitivitySetup(profile.FeatureKinds, r)
			setup.MaxDepth = cfg.MaxDepth
			sim.SeedExperienceFromFeatures(p, setup, repSeed)
			eng := sim.NewEngine(p, "table2")
			ep := eng.TransitivityEpoch(setup)
			for _, pol := range policies {
				st := ep.RunModel(pol.Model(), repSeed)
				merge(agg[pol], st)
			}
			ep.Release()
		}
		for _, pol := range policies {
			st := agg[pol]
			res.Cells = append(res.Cells, Table2Cell{
				Network: profile.Name, Policy: pol,
				Success:      st.SuccessRate(),
				Unavailable:  st.UnavailableRate(),
				AvgPotential: st.AvgPotentialTrustees(),
			})
		}
	}
	return res
}

// Table renders Table 2 in the paper's layout (method-major rows).
func (r Table2Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Table 2: transitivity with real-world node properties as characteristics",
		Headers: []string{"Method", "Metric", "facebook", "gplus", "twitter"},
	}
	byKey := map[string]Table2Cell{}
	for _, c := range r.Cells {
		byKey[c.Network+"/"+c.Policy.String()] = c
	}
	for _, pol := range []core.Policy{core.PolicyTraditional, core.PolicyConservative, core.PolicyAggressive} {
		rows := []struct {
			name string
			get  func(Table2Cell) string
		}{
			{"Success rate", func(c Table2Cell) string { return fmt.Sprintf("%.2f%%", 100*c.Success) }},
			{"Unavailable rate", func(c Table2Cell) string { return fmt.Sprintf("%.2f%%", 100*c.Unavailable) }},
			{"Num. potential trustees", func(c Table2Cell) string { return fmt.Sprintf("%.2f", c.AvgPotential) }},
		}
		for _, row := range rows {
			cells := []string{pol.String(), row.name}
			for _, p := range Networks() {
				cells = append(cells, row.get(byKey[p.Name+"/"+pol.String()]))
			}
			t.AddRow(cells...)
		}
	}
	return t
}

// ShapeCheck verifies Table 2's ordering: per network, success and
// potential trustees rank aggressive ≥ conservative > traditional, and
// unavailability ranks the other way.
func (r Table2Result) ShapeCheck() []error {
	c := &shapeCheck{experiment: "table2"}
	byKey := map[string]Table2Cell{}
	for _, cell := range r.Cells {
		byKey[cell.Network+"/"+cell.Policy.String()] = cell
	}
	for _, p := range Networks() {
		aggr := byKey[p.Name+"/aggressive"]
		cons := byKey[p.Name+"/conservative"]
		trad := byKey[p.Name+"/traditional"]
		c.expect(aggr.Success >= cons.Success-0.03, "%s: aggressive success %.3f below conservative %.3f", p.Name, aggr.Success, cons.Success)
		c.expect(cons.Success > trad.Success, "%s: conservative success %.3f not above traditional %.3f", p.Name, cons.Success, trad.Success)
		c.expect(aggr.Unavailable <= cons.Unavailable+0.03, "%s: aggressive unavailability above conservative", p.Name)
		c.expect(cons.Unavailable < trad.Unavailable, "%s: conservative unavailability not below traditional", p.Name)
		c.expect(aggr.AvgPotential >= cons.AvgPotential-1e-9, "%s: aggressive potential below conservative", p.Name)
		c.expect(cons.AvgPotential > trad.AvgPotential, "%s: conservative potential not above traditional", p.Name)
	}
	return c.errs
}
