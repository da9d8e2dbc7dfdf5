package experiments

import (
	"fmt"

	"siot/internal/report"
	"siot/internal/socialgen"
)

// Table1Row pairs the measured connectivity statistics of one generated
// network with the values the paper reports.
type Table1Row struct {
	Network string
	Got     socialgen.Stats
	Paper   socialgen.Stats
}

// Table1Result reproduces Table 1, "Connectivity characteristics of the
// three sub-networks of social networks".
type Table1Result struct {
	Rows []Table1Row
}

// runTable1 generates the three evaluation networks and measures their
// connectivity characteristics.
func runTable1(o Options) Table1Result {
	var res Table1Result
	for _, p := range socialgen.Profiles() {
		res.Rows = append(res.Rows, MeasureTable1Row(socialgen.Generate(p, o.Seed), o.Seed))
	}
	return res
}

// MeasureTable1Row measures one generated network's connectivity
// characteristics next to the values the paper reports for its profile.
func MeasureTable1Row(net *socialgen.Network, seed uint64) Table1Row {
	return Table1Row{
		Network: net.Profile.Name,
		Got:     socialgen.ComputeStats(net.Graph, seed),
		Paper:   net.Profile.Paper,
	}
}

// Table renders the result in the paper's row order, with measured and
// paper values side by side.
func (r Table1Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Table 1: Connectivity characteristics of the three sub-networks",
		Headers: []string{"Metric"},
	}
	for _, row := range r.Rows {
		t.Headers = append(t.Headers, row.Network, row.Network+" (paper)")
	}
	metric := func(name string, got func(socialgen.Stats) string) {
		cells := []string{name}
		for _, row := range r.Rows {
			cells = append(cells, got(row.Got), got(row.Paper))
		}
		t.AddRow(cells...)
	}
	metric("Number of Nodes", func(s socialgen.Stats) string { return fmt.Sprintf("%d", s.Nodes) })
	metric("Number of Edges", func(s socialgen.Stats) string { return fmt.Sprintf("%d", s.Edges) })
	metric("Average Degree", func(s socialgen.Stats) string { return fmt.Sprintf("%.2f", s.AvgDegree) })
	metric("Diameter", func(s socialgen.Stats) string { return fmt.Sprintf("%d", s.Diameter) })
	metric("Average Path Length", func(s socialgen.Stats) string { return fmt.Sprintf("%.2f", s.AvgPathLength) })
	metric("Average Clustering Coefficient", func(s socialgen.Stats) string { return fmt.Sprintf("%.2f", s.AvgClustering) })
	metric("Modularity", func(s socialgen.Stats) string { return fmt.Sprintf("%.2f", s.Modularity) })
	metric("Number of Communities", func(s socialgen.Stats) string { return fmt.Sprintf("%d", s.Communities) })
	return t
}

// ShapeCheck verifies the substrate matches the paper where the experiments
// depend on it: exact node/edge counts, clustering in the right band, and
// the cross-network ordering of density (Facebook > Google+ > Twitter in
// average degree, as in the paper).
func (r Table1Result) ShapeCheck() []error {
	c := &shapeCheck{experiment: "table1"}
	for _, row := range r.Rows {
		c.expect(row.Got.Nodes == row.Paper.Nodes, "%s: nodes %d != %d", row.Network, row.Got.Nodes, row.Paper.Nodes)
		c.expect(row.Got.Edges == row.Paper.Edges, "%s: edges %d != %d", row.Network, row.Got.Edges, row.Paper.Edges)
		diff := row.Got.AvgClustering - row.Paper.AvgClustering
		if diff < 0 {
			diff = -diff
		}
		c.expect(diff < 0.15, "%s: clustering %.2f far from %.2f", row.Network, row.Got.AvgClustering, row.Paper.AvgClustering)
	}
	if len(r.Rows) == 3 {
		c.expect(r.Rows[0].Got.AvgDegree > r.Rows[1].Got.AvgDegree,
			"facebook not denser than gplus")
		c.expect(r.Rows[1].Got.AvgDegree > r.Rows[2].Got.AvgDegree,
			"gplus not denser than twitter")
	}
	return c.errs
}
