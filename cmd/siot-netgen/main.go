// Command siot-netgen generates the synthetic social networks used by the
// simulations and prints their connectivity characteristics side by side
// with the paper's Table 1 (the table siot-bench -exp table1 prints) plus
// extended analytics, or characterizes a real SNAP edge list.
//
// Usage:
//
//	siot-netgen [-seed N] [-net facebook|gplus|twitter|all] [-edges FILE]
//	siot-netgen -model all
//
// With -edges, the file is loaded as a whitespace-separated edge list and
// characterized instead of generating a synthetic network. With -model, the
// named registered trust model's descriptor (combine rule, gating, training
// kind) is printed instead.
package main

import (
	"flag"
	"fmt"
	"os"

	"siot/internal/cliutil"
	"siot/internal/core"
	"siot/internal/experiments"
	"siot/internal/report"
	"siot/internal/socialgen"
)

func main() {
	seed := flag.Uint64("seed", 1, "generation seed")
	netName := flag.String("net", "all", "network profile: facebook, gplus, twitter, or all")
	edgeFile := flag.String("edges", "", "characterize a SNAP edge-list file instead of generating")
	modelName := flag.String("model", "", "print a registered trust model's descriptor instead of generating; 'all' lists every model")
	flag.Parse()

	if *modelName != "" {
		names := []string{*modelName}
		if *modelName == "all" {
			names = core.ModelNames()
		}
		for _, n := range names {
			m, err := core.ParseModel(n)
			if err != nil {
				cliutil.Usage("siot-netgen", err)
			}
			spec := m.Spec()
			kind := "closed-form"
			if _, ok := m.(core.EpochTrainable); ok {
				kind = "epoch-trained"
			}
			fmt.Printf("%-18s combine=%-8s omega-gated=%-5v per-characteristic=%-5v %s\n",
				m.Name(), spec.Combine, spec.OmegaGated, spec.PerCharacteristic, kind)
		}
		return
	}

	if *edgeFile != "" {
		if err := characterizeFile(*edgeFile, *seed); err != nil {
			cliutil.Runtime("siot-netgen", err)
		}
		return
	}

	var profiles []socialgen.Profile
	if *netName == "all" {
		profiles = socialgen.Profiles()
	} else {
		p, err := socialgen.ProfileByName(*netName)
		if err != nil {
			cliutil.Usage("siot-netgen", err)
		}
		profiles = []socialgen.Profile{p}
	}

	// Each network is generated once and feeds both tables.
	var table1 experiments.Table1Result
	ext := &report.Table{
		Title:   "Extended analytics (not in the paper's Table 1)",
		Headers: []string{"Metric"},
		Rows:    [][]string{{"Density"}, {"Degree Assortativity"}, {"Degeneracy (max core)"}, {"Triangles"}},
	}
	for _, p := range profiles {
		net := socialgen.Generate(p, *seed)
		table1.Rows = append(table1.Rows, experiments.MeasureTable1Row(net, *seed))
		g := net.Graph
		ext.Headers = append(ext.Headers, p.Name)
		for i, v := range []string{
			fmt.Sprintf("%.3f", g.Density()),
			fmt.Sprintf("%.3f", g.DegreeAssortativity()),
			fmt.Sprintf("%d", g.Degeneracy()),
			fmt.Sprintf("%d", g.TriangleCount()),
		} {
			ext.Rows[i] = append(ext.Rows[i], v)
		}
	}

	if err := experiments.Render(os.Stdout, table1, false); err != nil {
		cliutil.Runtime("siot-netgen", err)
	}
	fmt.Println()
	if err := ext.Render(os.Stdout); err != nil {
		cliutil.Runtime("siot-netgen", err)
	}
}

func characterizeFile(path string, seed uint64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := socialgen.LoadEdgeList(f)
	if err != nil {
		return err
	}
	s := socialgen.ComputeStats(g, seed)
	fmt.Printf("Nodes %d  Edges %d  AvgDegree %.2f  Diameter %d  APL %.2f  Clustering %.2f  Modularity %.2f  Communities %d\n",
		s.Nodes, s.Edges, s.AvgDegree, s.Diameter, s.AvgPathLength, s.AvgClustering, s.Modularity, s.Communities)
	return nil
}
