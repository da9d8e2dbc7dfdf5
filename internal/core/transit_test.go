package core

import (
	"math"
	"testing"
	"testing/quick"

	"siot/internal/task"
)

// identityNorm maps profits in [0,1] straight to trustworthiness, so test
// fixtures can dial in exact TW values via Expectation{S: 1, G: tw}.
var identityNorm = Normalizer{ProfitLo: 0, ProfitHi: 1}

// expFor returns an expectation whose TW under identityNorm equals tw.
func expFor(tw float64) Expectation { return Expectation{S: 1, G: tw} }

func TestCombinePairEq7(t *testing.T) {
	a, b := 0.9, 0.8
	want := a*b + (1-a)*(1-b)
	if got := CombinePair(a, b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("CombinePair = %v, want %v", got, want)
	}
}

func TestCombinePairIdentityAndSymmetry(t *testing.T) {
	if CombinePair(1, 0.3) != 0.3 {
		t.Fatal("1 is not the identity")
	}
	if CombinePair(0.2, 0.7) != CombinePair(0.7, 0.2) {
		t.Fatal("not symmetric")
	}
	// The mistrust-product effect the paper highlights: two distrusted hops
	// yield high combined trust (both "probably wrong" cancel).
	if got := CombinePair(0.1, 0.1); math.Abs(got-0.82) > 1e-12 {
		t.Fatalf("CombinePair(0.1,0.1) = %v, want 0.82", got)
	}
}

func TestCombineSerial(t *testing.T) {
	if CombineSerial() != 1 {
		t.Fatal("empty chain != 1")
	}
	if CombineSerial(0.7) != 0.7 {
		t.Fatal("single hop wrong")
	}
	want := CombinePair(CombinePair(0.9, 0.8), 0.7)
	if got := CombineSerial(0.9, 0.8, 0.7); math.Abs(got-want) > 1e-12 {
		t.Fatalf("serial = %v, want %v", got, want)
	}
}

func TestProductSerial(t *testing.T) {
	if ProductSerial() != 1 {
		t.Fatal("empty product != 1")
	}
	if got := ProductSerial(0.5, 0.5); got != 0.25 {
		t.Fatalf("product = %v", got)
	}
}

func TestEq7DominatesEq5AboveHalf(t *testing.T) {
	// For hops above 0.5 the eq. 7 combination always exceeds the plain
	// product — the neglected term is strictly positive.
	for _, pair := range [][2]float64{{0.9, 0.9}, {0.6, 0.8}, {0.51, 0.99}} {
		e7 := CombinePair(pair[0], pair[1])
		e5 := pair[0] * pair[1]
		if e7 <= e5 {
			t.Fatalf("eq7(%v,%v)=%v not above product %v", pair[0], pair[1], e7, e5)
		}
	}
}

func TestTransitSameType(t *testing.T) {
	if _, ok := TransitSameType(0.6, 0.9, 0.7, 0.7); ok {
		t.Fatal("recommender below ω1 transited")
	}
	if _, ok := TransitSameType(0.9, 0.6, 0.7, 0.7); ok {
		t.Fatal("trustee below ω2 transited")
	}
	tw, ok := TransitSameType(0.9, 0.8, 0.7, 0.7)
	if !ok || math.Abs(tw-CombinePair(0.9, 0.8)) > 1e-12 {
		t.Fatalf("transit = %v, %v", tw, ok)
	}
}

func TestCharTW(t *testing.T) {
	recs := []Record{
		{Task: task.Uniform(1, task.CharGPS), Exp: expFor(1)},                 // weight 1
		{Task: task.Uniform(2, task.CharGPS, task.CharImage), Exp: expFor(0)}, // weight 0.5
	}
	got, ok := CharTW(recs, task.CharGPS, identityNorm)
	if !ok {
		t.Fatal("CharTW failed")
	}
	want := (1.0*1 + 0.5*0) / 1.5
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("CharTW = %v, want %v", got, want)
	}
	if _, ok := CharTW(recs, task.CharAudio, identityNorm); ok {
		t.Fatal("uncovered characteristic inferred")
	}
}

func TestInferFromRecordsCoverage(t *testing.T) {
	recs := []Record{{Task: task.Uniform(1, task.CharGPS), Exp: expFor(0.8)}}
	if _, ok := InferFromRecords(recs, task.Uniform(9, task.CharGPS, task.CharImage), identityNorm); ok {
		t.Fatal("partial coverage inferred")
	}
	tw, ok := InferFromRecords(recs, task.Uniform(9, task.CharGPS), identityNorm)
	if !ok || math.Abs(tw-0.8) > 1e-12 {
		t.Fatalf("inference = %v, %v", tw, ok)
	}
}

// fakeNet is an in-memory trust network for searcher tests.
type fakeNet struct {
	adj  map[AgentID][]AgentID
	recs map[[2]AgentID][]Record
}

func newFakeNet() *fakeNet {
	return &fakeNet{adj: map[AgentID][]AgentID{}, recs: map[[2]AgentID][]Record{}}
}

// edge adds an undirected social edge.
func (f *fakeNet) edge(u, v AgentID) {
	f.adj[u] = append(f.adj[u], v)
	f.adj[v] = append(f.adj[v], u)
}

// record notes that holder has experience of task tk with trustee at tw.
func (f *fakeNet) record(holder, about AgentID, tk task.Task, tw float64) {
	key := [2]AgentID{holder, about}
	f.recs[key] = append(f.recs[key], Record{Task: tk, Exp: expFor(tw), Count: 1})
}

func (f *fakeNet) searcher(depth int, w1, w2 float64) *mapSearcher {
	return &mapSearcher{
		Neighbors: func(a AgentID) []AgentID { return f.adj[a] },
		Records:   func(h, a AgentID) []Record { return f.recs[[2]AgentID{h, a}] },
		Norm:      identityNorm,
		MaxDepth:  depth,
		Omega1:    w1,
		Omega2:    w2,
	}
}

const (
	nodeA AgentID = iota
	nodeB
	nodeC
	nodeD
	nodeE
)

func TestTraditionalChain(t *testing.T) {
	// A-B-C, records of type 1 all along: C found at product TW.
	f := newFakeNet()
	f.edge(nodeA, nodeB)
	f.edge(nodeB, nodeC)
	t1 := task.Uniform(1, task.CharGPS)
	f.record(nodeA, nodeB, t1, 0.9)
	f.record(nodeB, nodeC, t1, 0.8)

	res := f.searcher(3, 0.7, 0.7).Find(nodeA, t1, Traditional)
	if len(res.Candidates) != 2 {
		t.Fatalf("candidates = %v", res.Candidates)
	}
	twByID := map[AgentID]float64{}
	for _, c := range res.Candidates {
		twByID[c.ID] = c.TW
	}
	if math.Abs(twByID[nodeB]-0.9) > 1e-12 {
		t.Fatalf("TW(B) = %v", twByID[nodeB])
	}
	if math.Abs(twByID[nodeC]-0.72) > 1e-12 {
		t.Fatalf("TW(C) = %v, want 0.9*0.8", twByID[nodeC])
	}
}

func TestTraditionalRequiresExactType(t *testing.T) {
	// B's record about C is a different task type: transfer blocked even
	// though the characteristics match.
	f := newFakeNet()
	f.edge(nodeA, nodeB)
	f.edge(nodeB, nodeC)
	t1 := task.Uniform(1, task.CharGPS)
	t2 := task.Uniform(2, task.CharGPS)
	f.record(nodeA, nodeB, t1, 0.9)
	f.record(nodeB, nodeC, t2, 0.9)

	res := f.searcher(3, 0, 0).Find(nodeA, t1, Traditional)
	for _, c := range res.Candidates {
		if c.ID == nodeC {
			t.Fatal("traditional transfer crossed task types")
		}
	}
	// Conservative inference crosses it, because the characteristics match.
	res = f.searcher(3, 0.5, 0.5).Find(nodeA, t1, Conservative)
	found := false
	for _, c := range res.Candidates {
		if c.ID == nodeC {
			found = true
			want := CombinePair(0.9, 0.9)
			if math.Abs(c.TW-want) > 1e-12 {
				t.Fatalf("TW(C) = %v, want %v", c.TW, want)
			}
		}
	}
	if !found {
		t.Fatal("conservative inference failed to reach C")
	}
}

func TestConservativeRequiresAllCharacteristics(t *testing.T) {
	// Hop records cover only GPS; a GPS+image task must not transfer.
	f := newFakeNet()
	f.edge(nodeA, nodeB)
	f.record(nodeA, nodeB, task.Uniform(1, task.CharGPS), 0.9)
	probe := task.Uniform(5, task.CharGPS, task.CharImage)

	res := f.searcher(2, 0.5, 0.5).Find(nodeA, probe, Conservative)
	if len(res.Candidates) != 0 {
		t.Fatalf("conservative found %v without coverage", res.Candidates)
	}
}

func TestConservativeThresholdBlocksWeakRecommender(t *testing.T) {
	f := newFakeNet()
	f.edge(nodeA, nodeB)
	f.edge(nodeB, nodeC)
	t1 := task.Uniform(1, task.CharGPS)
	f.record(nodeA, nodeB, t1, 0.6) // below ω1 = 0.7
	f.record(nodeB, nodeC, t1, 0.95)

	res := f.searcher(3, 0.7, 0.7).Find(nodeA, t1, Conservative)
	for _, c := range res.Candidates {
		if c.ID == nodeC {
			t.Fatal("weak recommender relayed trust")
		}
	}
	// B itself is also below ω2=0.7, so no candidates at all.
	if len(res.Candidates) != 0 {
		t.Fatalf("candidates = %v", res.Candidates)
	}
}

// diamond builds Fig. 5(b): B trusts C and C trusts E on task τ (char a1);
// B trusts D and D trusts E on task τ′ (char a2). The probe task τ″ needs
// both characteristics.
func diamond() (*fakeNet, task.Task) {
	f := newFakeNet()
	f.edge(nodeB, nodeC)
	f.edge(nodeB, nodeD)
	f.edge(nodeC, nodeE)
	f.edge(nodeD, nodeE)
	tau := task.Uniform(1, task.CharGPS)    // characteristic a1
	tauP := task.Uniform(2, task.CharImage) // characteristic a2
	f.record(nodeB, nodeC, tau, 0.9)
	f.record(nodeC, nodeE, tau, 0.8)
	f.record(nodeB, nodeD, tauP, 0.85)
	f.record(nodeD, nodeE, tauP, 0.75)
	probe := task.Uniform(3, task.CharGPS, task.CharImage) // τ″
	return f, probe
}

func TestAggressiveAssemblesAcrossPaths(t *testing.T) {
	f, probe := diamond()
	s := f.searcher(3, 0.7, 0.7)

	// Conservative cannot reach E: no single path covers both characteristics.
	res := s.Find(nodeB, probe, Conservative)
	for _, c := range res.Candidates {
		if c.ID == nodeE {
			t.Fatal("conservative crossed the diamond")
		}
	}

	// Aggressive assembles a1 via C and a2 via D (eq. 17).
	res = s.Find(nodeB, probe, Aggressive)
	var got *Candidate
	for i := range res.Candidates {
		if res.Candidates[i].ID == nodeE {
			got = &res.Candidates[i]
		}
	}
	if got == nil {
		t.Fatalf("aggressive did not find E: %v", res.Candidates)
	}
	want := 0.5*CombinePair(0.9, 0.8) + 0.5*CombinePair(0.85, 0.75)
	if math.Abs(got.TW-want) > 1e-12 {
		t.Fatalf("TW(E) = %v, want %v", got.TW, want)
	}
}

func TestAggressiveRequiresFullCoverage(t *testing.T) {
	f, probe := diamond()
	// Remove the a2 leg: D has no record about E anymore.
	delete(f.recs, [2]AgentID{nodeD, nodeE})
	res := f.searcher(3, 0.7, 0.7).Find(nodeB, probe, Aggressive)
	for _, c := range res.Candidates {
		if c.ID == nodeE {
			t.Fatal("aggressive minted candidate with uncovered characteristic")
		}
	}
}

func TestInquiredCounts(t *testing.T) {
	f, probe := diamond()
	res := f.searcher(3, 0.7, 0.7).Find(nodeB, probe, Aggressive)
	// C, D (relays with relevant records) and E are interrogated.
	if res.Inquired != 3 {
		t.Fatalf("inquired = %d, want 3", res.Inquired)
	}
	// Traditional only contacts nodes with exact-type records: none for
	// the probe type.
	res = f.searcher(3, 0, 0).Find(nodeB, probe, Traditional)
	if res.Inquired != 0 {
		t.Fatalf("traditional inquired = %d, want 0", res.Inquired)
	}
}

func TestMaxDepthLimits(t *testing.T) {
	f := newFakeNet()
	f.edge(nodeA, nodeB)
	f.edge(nodeB, nodeC)
	t1 := task.Uniform(1, task.CharGPS)
	f.record(nodeA, nodeB, t1, 0.9)
	f.record(nodeB, nodeC, t1, 0.9)

	res := f.searcher(1, 0, 0).Find(nodeA, t1, Traditional)
	if len(res.Candidates) != 1 || res.Candidates[0].ID != nodeB {
		t.Fatalf("depth-1 candidates = %v", res.Candidates)
	}
}

func TestSearchResultBest(t *testing.T) {
	r := SearchResult{}
	if _, ok := r.Best(); ok {
		t.Fatal("Best of empty result")
	}
	r = SearchResult{Candidates: []Candidate{{ID: 1, TW: 0.9}, {ID: 2, TW: 0.5}}}
	best, ok := r.Best()
	if !ok || best.ID != 1 {
		t.Fatalf("Best = %v", best)
	}
}

// TestPaperModels pins the paper's three models: their names key journal
// headers and the sweeps' rng labels, and their specs select the search's
// combine rule, ω gating and per-characteristic paths.
func TestPaperModels(t *testing.T) {
	for _, tc := range []struct {
		m    TrustModel
		name string
		spec ModelSpec
	}{
		{Traditional, "traditional", ModelSpec{Combine: combineProduct}},
		{Conservative, "conservative", ModelSpec{Combine: combineMistrust, OmegaGated: true}},
		{Aggressive, "aggressive", ModelSpec{Combine: combineMistrust, OmegaGated: true, PerCharacteristic: true}},
	} {
		if got := tc.m.Name(); got != tc.name {
			t.Errorf("Name = %q, want %q", got, tc.name)
		}
		if got := tc.m.Spec(); got != tc.spec {
			t.Errorf("%s: Spec = %+v, want %+v", tc.name, got, tc.spec)
		}
		if got, err := ParseModel(tc.name); err != nil || got != tc.m {
			t.Errorf("ParseModel(%q) = %v, %v; want the registered model", tc.name, got, err)
		}
	}
}

func TestCycleDoesNotLoopForever(t *testing.T) {
	// A triangle with records everywhere must terminate and not revisit the
	// trustor.
	f := newFakeNet()
	f.edge(nodeA, nodeB)
	f.edge(nodeB, nodeC)
	f.edge(nodeC, nodeA)
	t1 := task.Uniform(1, task.CharGPS)
	for _, pair := range [][2]AgentID{{nodeA, nodeB}, {nodeB, nodeC}, {nodeC, nodeA}, {nodeB, nodeA}, {nodeC, nodeB}, {nodeA, nodeC}} {
		f.record(pair[0], pair[1], t1, 0.9)
	}
	res := f.searcher(6, 0.5, 0.5).Find(nodeA, t1, Conservative)
	for _, c := range res.Candidates {
		if c.ID == nodeA {
			t.Fatal("trustor is its own candidate")
		}
	}
	if len(res.Candidates) != 2 {
		t.Fatalf("candidates = %v", res.Candidates)
	}
}

func TestQuickCombinePairBounds(t *testing.T) {
	// CombinePair maps [0,1]² into [0,1].
	f := func(a, b float64) bool {
		x := math.Mod(math.Abs(a), 1)
		y := math.Mod(math.Abs(b), 1)
		v := CombinePair(x, y)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCombinePairMonotoneAboveHalf(t *testing.T) {
	// For b > 0.5 fixed, CombinePair(·, b) is increasing — the property the
	// best-first propagation relies on when ω ≥ 0.5.
	f := func(a1, a2, b float64) bool {
		x1 := math.Mod(math.Abs(a1), 1)
		x2 := math.Mod(math.Abs(a2), 1)
		y := 0.5 + math.Mod(math.Abs(b), 0.5)
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		return CombinePair(x1, y) <= CombinePair(x2, y)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
