package socialgen

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"siot/internal/graph"
)

func TestGenerateExactCounts(t *testing.T) {
	for _, p := range Profiles() {
		net := Generate(p, 1)
		if net.Graph.NumNodes() != p.Nodes {
			t.Errorf("%s: nodes = %d, want %d", p.Name, net.Graph.NumNodes(), p.Nodes)
		}
		if net.Graph.NumEdges() != p.Edges {
			t.Errorf("%s: edges = %d, want %d", p.Name, net.Graph.NumEdges(), p.Edges)
		}
	}
}

func TestGenerateConnected(t *testing.T) {
	for _, p := range Profiles() {
		net := Generate(p, 2)
		comps := net.Graph.ConnectedComponents()
		if len(comps) != 1 {
			t.Errorf("%s: %d components, want 1", p.Name, len(comps))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Facebook(), 42)
	b := Generate(Facebook(), 42)
	ea, eb := a.Graph.EdgeList(), b.Graph.EdgeList()
	if len(ea) != len(eb) {
		t.Fatal("different edge counts across identical seeds")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := Generate(Twitter(), 1)
	b := Generate(Twitter(), 2)
	same := 0
	for _, e := range a.Graph.EdgeList() {
		if b.Graph.HasEdge(e[0], e[1]) {
			same++
		}
	}
	if same == a.Graph.NumEdges() {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestGenerateValidGraph(t *testing.T) {
	for _, p := range Profiles() {
		if err := Generate(p, 3).Graph.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestCommunityAssignmentCoversAllNodes(t *testing.T) {
	net := Generate(GooglePlus(), 4)
	if len(net.Community) != net.Graph.NumNodes() {
		t.Fatalf("community assign length %d, want %d", len(net.Community), net.Graph.NumNodes())
	}
	seen := map[int]int{}
	for _, c := range net.Community {
		if c < 0 || c >= net.Profile.Communities {
			t.Fatalf("community id %d out of range", c)
		}
		seen[c]++
	}
	if len(seen) != net.Profile.Communities {
		t.Fatalf("planted %d communities, want %d", len(seen), net.Profile.Communities)
	}
	for c, n := range seen {
		if n < 3 {
			t.Fatalf("community %d has only %d members", c, n)
		}
	}
}

func TestFeaturesPresent(t *testing.T) {
	net := Generate(Facebook(), 5)
	if len(net.Features) != net.Graph.NumNodes() {
		t.Fatal("feature list length mismatch")
	}
	for n, feats := range net.Features {
		if len(feats) == 0 {
			t.Fatalf("node %d has no features", n)
		}
		for i, f := range feats {
			if f < 0 || f >= net.Profile.FeatureKinds {
				t.Fatalf("node %d feature %d out of range", n, f)
			}
			if i > 0 && feats[i-1] >= f {
				t.Fatalf("node %d features not strictly sorted: %v", n, feats)
			}
		}
	}
}

// TestCalibrationAgainstTable1 checks that the generated networks land near
// the paper's Table 1 statistics. The bounds are deliberately loose — the
// goal is preserving the regime (dense, clustered, modular, small-world),
// not decimal-exact replication of SNAP extracts we cannot ship.
func TestCalibrationAgainstTable1(t *testing.T) {
	for _, p := range Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			net := Generate(p, 1)
			st := ComputeStats(net.Graph, 1)
			want := p.Paper
			if st.Nodes != want.Nodes || st.Edges != want.Edges {
				t.Errorf("counts: got %d/%d want %d/%d", st.Nodes, st.Edges, want.Nodes, want.Edges)
			}
			if math.Abs(st.AvgDegree-want.AvgDegree) > 0.1 {
				t.Errorf("avg degree: got %.2f want %.2f", st.AvgDegree, want.AvgDegree)
			}
			if math.Abs(st.AvgClustering-want.AvgClustering) > 0.15 {
				t.Errorf("clustering: got %.2f want %.2f±0.15", st.AvgClustering, want.AvgClustering)
			}
			if math.Abs(st.Modularity-want.Modularity) > 0.18 {
				t.Errorf("modularity: got %.2f want %.2f±0.18", st.Modularity, want.Modularity)
			}
			if math.Abs(st.AvgPathLength-want.AvgPathLength) > 1.6 {
				t.Errorf("APL: got %.2f want %.2f±1.6", st.AvgPathLength, want.AvgPathLength)
			}
			if st.Diameter < 3 || st.Diameter > want.Diameter+5 {
				t.Errorf("diameter: got %d want around %d", st.Diameter, want.Diameter)
			}
			// Community count is the loosest target: reproducing clustering ~0.5
			// at average degree ~29 requires overlapping circles, which Louvain
			// partly merges. No experiment consumes the detected community count.
			if st.Communities < want.Communities/4 || st.Communities > want.Communities*3 {
				t.Errorf("communities: got %d want around %d", st.Communities, want.Communities)
			}
		})
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("twitter")
	if err != nil || p.Name != "twitter" {
		t.Fatalf("ProfileByName(twitter) = %v, %v", p.Name, err)
	}
	if _, err := ProfileByName("myspace"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

// TestProfileValidate: every profile Generate cannot build is rejected by
// Validate with an ErrProfile, and Generate panics with that same error
// instead of failing deep inside placement; buildable profiles pass.
func TestProfileValidate(t *testing.T) {
	spine := largeTestProfile(streamingNodeThreshold, streamingNodeThreshold)
	spine.Communities, spine.ChainCommunities = 250, 3
	bad := []struct {
		name string
		p    Profile
	}{
		{"no nodes", Profile{Name: "bench0k", Nodes: 0, Edges: 0, Communities: 4}},
		{"one node", Profile{Name: "bench0k", Nodes: 1, Edges: 8, Communities: 4}},
		{"too many edges", Profile{Name: "bench0k", Nodes: 3, Edges: 24, Communities: 4}},
		{"unseatable communities", Profile{Name: "tiny", Nodes: 10, Edges: 20, Communities: 4}},
		{"streaming spine", spine},
		{"streaming seating", largeTestProfile(streamingNodeThreshold, 4*streamingNodeThreshold)},
	}
	bad[5].p.Communities = streamingNodeThreshold/3 + 1
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if !errors.Is(err, ErrProfile) {
				t.Fatalf("Validate() = %v, want an ErrProfile", err)
			}
			defer func() {
				if got, _ := recover().(error); got == nil || got.Error() != err.Error() {
					t.Fatalf("Generate panicked with %v, want %v", got, err)
				}
			}()
			Generate(tc.p, 1)
		})
	}
	for _, p := range append(Profiles(), largeTestProfile(streamingNodeThreshold, streamingNodeThreshold+50)) {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: Validate() = %v, want nil", p.Name, err)
		}
	}
	// The smallest buildable profile: one community of 3, a path.
	tri := Profile{Name: "tri", Nodes: 3, Edges: 2}
	if err := tri.Validate(); err != nil {
		t.Fatalf("tri: Validate() = %v, want nil", err)
	}
	if g := Generate(tri, 1).Graph; g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("tri: generated %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
}

func TestLoadEdgeList(t *testing.T) {
	src := `# comment
0 1
1 2
2 0
2 2
3 0
`
	g, err := LoadEdgeList(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 {
		t.Fatalf("nodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 4 { // self-loop dropped
		t.Fatalf("edges = %d, want 4", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(graph.NodeID(3), 0) {
		t.Fatal("expected edges missing")
	}
}

func TestLoadEdgeListRelabels(t *testing.T) {
	// Spellings of one integer ("1", "01", "+1") name one node.
	for _, src := range []string{"100 200\n200 300\n", "1 2\n01 3\n", "1 2\n+1 3\n", "+01 2\n3 1\n"} {
		g, err := LoadEdgeList(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		if g.NumNodes() != 3 || g.NumEdges() != 2 {
			t.Fatalf("%q: got %d nodes %d edges, want 3 and 2", src, g.NumNodes(), g.NumEdges())
		}
	}
}

// FuzzLoadEdgeList feeds arbitrary text to the edge-list loader, which
// siot-netgen points at user files: it must never panic, and an accepted
// list must yield a valid graph with one node per distinct integer ID and
// at most one edge per non-self-loop line.
func FuzzLoadEdgeList(f *testing.F) {
	f.Add("# comment\n0 1\n1 2\n2 0\n2 2\n3 0\n")
	f.Add("1 2\n01 3\n+1 -1\n")
	f.Add("7 7\n")
	f.Add("0 1 extra\r\n\n1\t0\n")
	f.Add("a b\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, src string) {
		g, err := LoadEdgeList(strings.NewReader(src))
		if err != nil {
			return // rejected input is fine
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("invalid graph: %v", err)
		}
		ids := map[int]bool{}
		lines := 0
		for _, text := range strings.Split(src, "\n") {
			text = strings.TrimSpace(text)
			if text == "" || strings.HasPrefix(text, "#") {
				continue
			}
			fields := strings.Fields(text)
			u, errU := strconv.Atoi(fields[0])
			v, errV := strconv.Atoi(fields[1])
			if errU != nil || errV != nil {
				t.Fatalf("accepted a line with a bad id: %q", text)
			}
			ids[u], ids[v] = true, true
			if u != v {
				lines++
			}
		}
		if g.NumNodes() != len(ids) {
			t.Fatalf("%d nodes, want %d distinct ids", g.NumNodes(), len(ids))
		}
		if g.NumEdges() > lines {
			t.Fatalf("%d edges from %d non-self-loop lines", g.NumEdges(), lines)
		}
	})
}

func TestLoadEdgeListErrors(t *testing.T) {
	if _, err := LoadEdgeList(strings.NewReader("0\n")); err == nil {
		t.Fatal("single-field line accepted")
	}
	if _, err := LoadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Fatal("non-numeric ids accepted")
	}
}

func TestLoadEdgeListDuplicateEdges(t *testing.T) {
	g, err := LoadEdgeList(strings.NewReader("0 1\n1 0\n0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("duplicates not merged: %d edges", g.NumEdges())
	}
}
