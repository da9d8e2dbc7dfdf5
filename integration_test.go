package siot_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"siot"
	"siot/internal/experiments"
	"siot/internal/report"
	"siot/internal/rng"
	"siot/internal/sim"
	"siot/internal/socialgen"
	"siot/internal/task"
)

// Integration tests: cross-module pipelines a downstream user would run.

// TestIntegrationEdgeListToExperiment feeds a loaded edge list (the path
// real SNAP data would take) through population building, experience
// seeding, and a transitivity run.
func TestIntegrationEdgeListToExperiment(t *testing.T) {
	// Build a synthetic "dataset file" from a generated graph, round-trip
	// it through the SNAP loader, and verify the loaded graph behaves.
	src := socialgen.Generate(socialgen.Twitter(), 9)
	var buf bytes.Buffer
	for _, e := range src.Graph.EdgeList() {
		fmt.Fprintf(&buf, "%d %d\n", e[0], e[1])
	}
	g, err := socialgen.LoadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != src.Graph.NumNodes() || g.NumEdges() != src.Graph.NumEdges() {
		t.Fatalf("loader dropped data: %d/%d vs %d/%d",
			g.NumNodes(), g.NumEdges(), src.Graph.NumNodes(), src.Graph.NumEdges())
	}

	// Wrap the loaded graph as a network and run a full transitivity round.
	net := &socialgen.Network{Graph: g, Profile: socialgen.Profile{Name: "loaded"}}
	p := sim.NewPopulation(net, sim.DefaultPopulationConfig(9))
	r := rng.New(9, "integration")
	setup := sim.DefaultTransitivitySetup(5, r)
	sim.SeedExperience(p, setup, 9)
	st := sim.NewEngine(p, "integration").TransitivityRunModel(setup, siot.Aggressive, 9)
	if st.Requests == 0 {
		t.Fatal("no requests over the loaded graph")
	}
	if st.SuccessRate() < 0.2 {
		t.Fatalf("implausible success rate %v on a healthy graph", st.SuccessRate())
	}
}

// TestIntegrationChartsRender renders every charting experiment's curves to
// make sure the full result → chart path holds together.
func TestIntegrationChartsRender(t *testing.T) {
	res, err := siot.RunExperiment("fig15", 2)
	if err != nil {
		t.Fatal(err)
	}
	charts := res.(experiments.Charter).Charts()
	if len(charts) == 0 {
		t.Fatal("fig15 offers no charts")
	}
	var b strings.Builder
	for _, c := range charts {
		c := c
		if err := c.Render(&b); err != nil {
			t.Fatal(err)
		}
	}
	out := b.String()
	if !strings.Contains(out, "proposed method") {
		t.Fatalf("legend missing:\n%s", out)
	}
}

// TestIntegrationCSVExport exercises the CSV path the bench CLI uses.
func TestIntegrationCSVExport(t *testing.T) {
	dir := t.TempDir()
	res, err := siot.RunExperiment("table1", 3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Table().WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Average Degree") {
		t.Fatalf("csv content wrong:\n%s", data)
	}
	// Series CSV for a charting experiment.
	f15, err := siot.RunExperiment("fig15", 3)
	if err != nil {
		t.Fatal(err)
	}
	charts := f15.(experiments.Charter).Charts()
	var sb strings.Builder
	if err := report.SeriesCSV(&sb, charts[0].Series...); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "series,x,y\n") {
		t.Fatal("series csv header missing")
	}
}

// TestIntegrationStorePersistenceAcrossSimulation snapshots mid-simulation
// trust state, restores it, and verifies the restored population continues
// to make the same decisions.
func TestIntegrationStorePersistenceAcrossSimulation(t *testing.T) {
	net := socialgen.Generate(socialgen.Twitter(), 4)
	p := sim.NewPopulation(net, sim.DefaultPopulationConfig(4))
	tk := task.Uniform(1, task.CharCompute)
	eng := sim.NewEngine(p, "integration")
	var c sim.MutualityCounters
	for round := 0; round < 10; round++ {
		eng.MutualityRound(round, tk, &c)
	}
	// Snapshot the first trustor's store and restore it.
	x := p.Trustors[0]
	var buf bytes.Buffer
	if err := p.Agent(x).Store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := siot.LoadStore(&buf, p.Agent(x).Store.Config())
	if err != nil {
		t.Fatal(err)
	}
	// The restored store ranks every neighbor identically.
	for _, y := range p.Neighbors(x) {
		origTW, origOK := p.Agent(x).Store.BestTW(y, tk)
		gotTW, gotOK := restored.BestTW(y, tk)
		if origOK != gotOK || (origOK && origTW != gotTW) {
			t.Fatalf("restored store ranks trustee %d differently: %v/%v vs %v/%v",
				y, gotTW, gotOK, origTW, origOK)
		}
	}
}

// TestIntegrationRegistryTablesRender makes sure every registered
// experiment result can render its table (running only the cheap ones at
// full scale; the expensive ones at a reduced scale are covered in the
// experiments package).
func TestIntegrationRegistryTablesRender(t *testing.T) {
	for _, name := range []string{"table1", "fig15", "ablation-eq7", "ablation-cannikin"} {
		res, err := siot.RunExperiment(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := res.Table().Render(&b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.Len() == 0 {
			t.Fatalf("%s rendered empty table", name)
		}
	}
}
