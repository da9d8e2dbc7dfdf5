package siot_test

import (
	"strings"
	"testing"

	"siot"
)

// The facade tests exercise the public API end to end, the way a downstream
// user would.

func TestFacadeQuickstartFlow(t *testing.T) {
	store := siot.NewStore(1, siot.DefaultUpdateConfig())
	tk := siot.UniformTask(1, siot.CharGPS, siot.CharImage)
	store.Observe(2, tk, siot.Outcome{Success: true, Gain: 0.9, Cost: 0.1}, siot.PerfectEnv())
	tw, ok := store.BestTW(2, tk)
	if !ok {
		t.Fatal("no trustworthiness after observation")
	}
	if tw <= 0 || tw > 1 {
		t.Fatalf("tw = %v", tw)
	}
}

func TestFacadeInference(t *testing.T) {
	store := siot.NewStore(1, siot.DefaultUpdateConfig())
	gps := siot.UniformTask(1, siot.CharGPS)
	img := siot.UniformTask(2, siot.CharImage)
	for i := 0; i < 30; i++ {
		store.Observe(7, gps, siot.Outcome{Success: true, Gain: 0.9, Cost: 0.1}, siot.PerfectEnv())
		store.Observe(7, img, siot.Outcome{Success: true, Gain: 0.9, Cost: 0.1}, siot.PerfectEnv())
	}
	traffic := siot.UniformTask(3, siot.CharGPS, siot.CharImage)
	tw, ok := store.InferTW(7, traffic)
	if !ok || tw < 0.5 {
		t.Fatalf("inference failed: %v %v", tw, ok)
	}
}

func TestFacadeCombinators(t *testing.T) {
	if siot.CombinePair(1, 0.7) != 0.7 {
		t.Fatal("CombinePair identity broken")
	}
	if siot.ProductSerial(0.5, 0.5) != 0.25 {
		t.Fatal("ProductSerial broken")
	}
	if got := siot.CombineSerial(0.9, 0.9); got <= 0.8 {
		t.Fatalf("CombineSerial = %v", got)
	}
	if _, ok := siot.TransitSameType(0.9, 0.9, 0.7, 0.7); !ok {
		t.Fatal("TransitSameType blocked a valid transition")
	}
}

func TestFacadeNetworkGeneration(t *testing.T) {
	net := siot.GenerateNetwork(siot.TwitterProfile(), 1)
	if net.Graph.NumNodes() != 244 || net.Graph.NumEdges() != 2478 {
		t.Fatalf("network size %d/%d", net.Graph.NumNodes(), net.Graph.NumEdges())
	}
	st := siot.ComputeNetworkStats(net.Graph, 1)
	if st.AvgDegree < 15 || st.AvgDegree > 25 {
		t.Fatalf("avg degree %v", st.AvgDegree)
	}
	if len(siot.NetworkProfiles()) != 3 {
		t.Fatal("profile count wrong")
	}
}

func TestFacadeLoadEdgeList(t *testing.T) {
	g, err := siot.LoadEdgeList(strings.NewReader("0 1\n1 2\n"))
	if err != nil || g.NumEdges() != 2 {
		t.Fatalf("load: %v %v", g, err)
	}
}

func TestFacadePopulation(t *testing.T) {
	net := siot.GenerateNetwork(siot.TwitterProfile(), 2)
	p := siot.NewPopulation(net, siot.DefaultPopulationConfig(2))
	if len(p.Trustors) == 0 || len(p.Trustees) == 0 {
		t.Fatal("roles not assigned")
	}
}

func TestFacadeTestbed(t *testing.T) {
	tb := siot.BuildTestbed(siot.DefaultTestbedConfig(3))
	if len(tb.Trustors) != 10 {
		t.Fatalf("trustors = %d", len(tb.Trustors))
	}
}

func TestFacadeSelection(t *testing.T) {
	cands := []siot.Candidate{{ID: 1, TW: 0.9}, {ID: 2, TW: 0.5}}
	got, ok := siot.SelectMutual(cands, nil)
	if !ok || got.ID != 1 {
		t.Fatalf("selected %v", got)
	}
	self := siot.Expectation{S: 0.5, G: 0.5, D: 0.5, C: 0.1}
	strong := siot.ExpCandidate{ID: 9, Exp: siot.Expectation{S: 0.95, G: 0.95, D: 0.05, C: 0.05}}
	dec, delegated := siot.DecideWithSelf(self, 0, []siot.ExpCandidate{strong})
	if !delegated || dec.ID != 9 {
		t.Fatal("decision broken")
	}
	if siot.ShouldDelegate(self, self) {
		t.Fatal("equal-profit delegation accepted")
	}
	if _, ok := siot.BestBySuccessRate(nil); ok {
		t.Fatal("empty candidates selected")
	}
}

func TestFacadeEnvironment(t *testing.T) {
	if siot.CombineEnv(1, 0.4, 0.9) != 0.4 {
		t.Fatal("CombineEnv broken")
	}
	if got := siot.RemoveEnv(0.32, 1, 1, 0.4); got < 0.8-1e-9 || got > 0.8+1e-9 {
		t.Fatalf("RemoveEnv = %v", got)
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	names := siot.ExperimentNames()
	if len(names) != 18 {
		t.Fatalf("experiments = %v", names)
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{"attack-badmouth", "attack-onoff", "attack-whitewash", "attack-collusion", "model-matrix"} {
		if !have[want] {
			t.Fatalf("facade registry missing %q: %v", want, names)
		}
	}
	if _, err := siot.RunExperiment("not-an-experiment", 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	res, err := siot.RunExperiment("table1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if errs := res.ShapeCheck(); len(errs) != 0 {
		t.Fatalf("table1 shape errors: %v", errs)
	}
	var b strings.Builder
	if err := res.Table().Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Table 1") {
		t.Fatal("table render missing title")
	}
}

func TestFacadeTaskConstruction(t *testing.T) {
	if _, err := siot.NewTask(1, nil); err == nil {
		t.Fatal("empty task accepted")
	}
	tk, err := siot.NewTask(1, map[siot.Characteristic]float64{siot.CharGPS: 1})
	if err != nil || !tk.Has(siot.CharGPS) {
		t.Fatal("task construction broken")
	}
	if siot.CharName(siot.CharGPS) != "gps" {
		t.Fatal("char name broken")
	}
}

func TestFacadeUpdate(t *testing.T) {
	cfg := siot.DefaultUpdateConfig()
	cfg.Betas = siot.UniformBetas(0)
	e := siot.Update(siot.Expectation{}, siot.Outcome{Success: true, Gain: 1}, siot.PerfectEnv(), cfg)
	if e.S != 1 || e.G != 1 {
		t.Fatalf("update = %+v", e)
	}
	if e.NetProfit() != 1 {
		t.Fatalf("profit = %v", e.NetProfit())
	}
	if e.Trustworthiness(siot.UnitNormalizer()) != 1 {
		t.Fatal("trustworthiness wrong")
	}
}

func TestFacadeModelRegistry(t *testing.T) {
	names := siot.ModelNames()
	if len(names) < 5 {
		t.Fatalf("models = %v", names)
	}
	for _, want := range []string{"traditional", "conservative", "aggressive", "hellinger-mf", "feature-weighted"} {
		m, err := siot.ParseModel(want)
		if err != nil {
			t.Fatalf("ParseModel(%q): %v", want, err)
		}
		if m.Name() != want {
			t.Fatalf("ParseModel(%q).Name() = %q", want, m.Name())
		}
	}
	if _, err := siot.ParseModel("not-a-model"); err == nil {
		t.Fatal("unknown model accepted")
	}
	if m, err := siot.ParseModel(siot.Aggressive.Name()); err != nil || m.Name() != "aggressive" {
		t.Fatal("aggressive not registered under its name")
	}
}
