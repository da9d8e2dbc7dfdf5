package siot_test

import (
	"crypto/sha256"
	"encoding/binary"
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

// TestFacadeCaptureRoundView captures a round view the way an outside
// module must: a RoundSource built by field assignment over a few facade
// Stores and a hand-made CSR adjacency. The view answers BestTW and
// ReverseTW exactly as the live stores do, and a capture that copies from
// its predecessor after one write is byte-identical to a fresh capture.
func TestFacadeCaptureRoundView(t *testing.T) {
	cfg := siot.DefaultUpdateConfig()
	cfg.Catalog = siot.NewTaskCatalog()
	// Triangle 0—1—2 with a pendant 2—3; rows ascending by target.
	adjOff := []int32{0, 2, 4, 7, 8}
	adjTo := []siot.AgentID{1, 2, 0, 2, 0, 1, 3, 2}
	stores := make([]*siot.Store, len(adjOff)-1)
	for i := range stores {
		stores[i] = siot.NewStore(siot.AgentID(i), cfg)
	}
	norm := stores[0].Config().Norm
	gps := siot.UniformTask(1, siot.CharGPS)
	img := siot.UniformTask(2, siot.CharImage)
	both := siot.UniformTask(3, siot.CharGPS, siot.CharImage)
	good := siot.Outcome{Success: true, Gain: 0.9, Cost: 0.1}
	bad := siot.Outcome{Damage: 0.7, Cost: 0.2}
	for u, s := range stores {
		for _, w := range adjTo[adjOff[u]:adjOff[u+1]] {
			s.Observe(w, gps, good, siot.PerfectEnv())
			if (u+int(w))%2 == 0 {
				s.Observe(w, img, bad, siot.PerfectEnv())
			}
			s.ObserveUsage(w, u == 2)
		}
	}

	var src siot.RoundSource
	src.Catalog = cfg.Catalog
	src.Count = func(holder, about siot.AgentID) int { return stores[holder].RecordCount(about) }
	src.Append = func(holder, about siot.AgentID, buf []siot.CompactRecord) []siot.CompactRecord {
		return stores[holder].AppendCompact(about, cfg.Catalog, buf)
	}
	src.Version = func(holder siot.AgentID) uint64 { return stores[holder].Version() }
	src.Usage = func(holder, about siot.AgentID) siot.UsageLog { return stores[holder].Usage(about) }
	capture := func(prev *siot.RoundView) *siot.RoundView {
		t.Helper()
		v, err := siot.CaptureRoundView(adjOff, adjTo, src, norm, 2, nil, prev)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	matchesStores := func(v *siot.RoundView) {
		t.Helper()
		for u, s := range stores {
			for _, w := range adjTo[adjOff[u]:adjOff[u+1]] {
				e, ok := v.EdgeIndex(siot.AgentID(u), w)
				if !ok {
					t.Fatalf("edge %d→%d missing from the view", u, w)
				}
				for _, tk := range []siot.Task{gps, img, both} {
					got, gotOK := v.BestTW(e, tk)
					want, wantOK := s.BestTW(w, tk)
					if got != want || gotOK != wantOK {
						t.Fatalf("BestTW(%d→%d, %v) = (%v, %v), store says (%v, %v)", u, w, tk, got, gotOK, want, wantOK)
					}
				}
				if got, want := v.ReverseTW(e), s.ReverseTW(w); got != want {
					t.Fatalf("ReverseTW(%d→%d) = %v, store says %v", u, w, got, want)
				}
			}
		}
	}
	digest := func(v *siot.RoundView) [sha256.Size]byte {
		h := sha256.New()
		for e := int32(0); int(e) < v.NumEdges(); e++ {
			l := v.Usage(e)
			for _, data := range []any{v.EdgeRecords(e), [2]int64{int64(l.Responsible), int64(l.Abusive)}} {
				if err := binary.Write(h, binary.LittleEndian, data); err != nil {
					t.Fatal(err)
				}
			}
		}
		var sum [sha256.Size]byte
		copy(sum[:], h.Sum(nil))
		return sum
	}

	prev := capture(nil)
	matchesStores(prev)
	stores[1].Observe(2, img, bad, siot.PerfectEnv())
	delta := capture(prev)
	fresh := capture(nil)
	if got := delta.RowsRecaptured(); got != 1 {
		t.Fatalf("capture after one write reread %d rows, want 1", got)
	}
	if digest(prev) == digest(fresh) {
		t.Fatal("the write did not reach the capture")
	}
	if digest(delta) != digest(fresh) {
		t.Fatal("capture copied from its predecessor differs from a fresh capture")
	}
	matchesStores(delta)
}
