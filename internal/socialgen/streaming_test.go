package socialgen

import (
	"testing"
)

// largeTestProfile is a streaming-path profile shaped like the benchmark
// networks (community-structured, average degree 2·Edges/Nodes).
func largeTestProfile(nodes, edges int) Profile {
	communities := nodes / 80
	if communities < 4 {
		communities = 4
	}
	return Profile{
		Name: "proptest", Nodes: nodes, Edges: edges,
		Communities: communities, IntraFrac: 0.7, FoF: 0.5, SizeSkew: 1.0,
		Overlap: 0.2, ChainCommunities: 1, FeatureKinds: 6, FeaturesPerNode: 2,
	}
}

// checkGenerateProperties asserts the Generate contract at one scale:
// exactly p.Nodes nodes and p.Edges edges, simple (Validate), connected,
// deterministic across two runs with the same seed, and community
// assignments that cover every node with the planted community count.
func checkGenerateProperties(t *testing.T, p Profile, seed uint64) {
	t.Helper()
	net := Generate(p, seed)
	g := net.Graph
	if g.NumNodes() != p.Nodes {
		t.Errorf("nodes = %d, want %d", g.NumNodes(), p.Nodes)
	}
	if g.NumEdges() != p.Edges {
		t.Errorf("edges = %d, want %d", g.NumEdges(), p.Edges)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("invalid graph: %v", err)
	}
	if comps := g.ConnectedComponents(); len(comps) != 1 {
		t.Errorf("%d components, want 1", len(comps))
	}
	// Community sizes sum to p.Nodes (every node assigned exactly once) and
	// every planted community is inhabited.
	if len(net.Community) != p.Nodes {
		t.Fatalf("community assignment covers %d nodes, want %d", len(net.Community), p.Nodes)
	}
	seen := make([]int, p.Communities)
	for n, c := range net.Community {
		if c < 0 || c >= p.Communities {
			t.Fatalf("node %d in community %d, want [0,%d)", n, c, p.Communities)
		}
		seen[c]++
	}
	sum := 0
	for c, n := range seen {
		if n < 3 {
			t.Errorf("community %d has %d members, want >= 3", c, n)
		}
		sum += n
	}
	if sum != p.Nodes {
		t.Errorf("community sizes sum to %d, want %d", sum, p.Nodes)
	}
	// Determinism: a second run with the same seed is edge-for-edge equal.
	again := Generate(p, seed)
	ea, eb := g.EdgeList(), again.Graph.EdgeList()
	if len(ea) != len(eb) {
		t.Fatalf("rerun edge count %d, want %d", len(eb), len(ea))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("rerun edge %d = %v, want %v", i, eb[i], ea[i])
		}
	}
}

// TestGenerateProperties10k exercises the 10k-node scale, which stays on
// the calibrated path (below streamingNodeThreshold).
func TestGenerateProperties10k(t *testing.T) {
	checkGenerateProperties(t, largeTestProfile(10000, 80000), 42)
}

// TestGenerateProperties100k exercises the streaming path at full scale.
func TestGenerateProperties100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node generation property sweep skipped in -short mode")
	}
	checkGenerateProperties(t, largeTestProfile(100000, 500000), 42)
}

// TestGenerateProperties1M exercises the streaming path at the million-node
// frontier: 1M nodes, 6M edges. The full property contract holds — exact
// counts, simplicity, connectivity, determinism across reruns — at the scale
// the million-node sweep serves. Slow (two full generations plus a connectivity
// scan) and memory-heavy, so it skips under -short and under the race
// detector.
func TestGenerateProperties1M(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-node generation property sweep skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("1M-node generation property sweep skipped under -race")
	}
	checkGenerateProperties(t, largeTestProfile(1_000_000, 6_000_000), 42)
}

// TestGenerateStreamingThresholdBoundary pins the dispatch and the
// streaming contract right at the threshold, plus a near-tree edge budget
// (the tightest exact-count case: the connectivity spine alone nearly
// exhausts the budget).
func TestGenerateStreamingThresholdBoundary(t *testing.T) {
	p := largeTestProfile(streamingNodeThreshold, 4*streamingNodeThreshold)
	checkGenerateProperties(t, p, 7)
	sparse := largeTestProfile(streamingNodeThreshold, streamingNodeThreshold+50)
	checkGenerateProperties(t, sparse, 7)
}

// TestGenerateStreamingInfeasibleRejected pins the exact-count contract's
// guard: a budget with no room for the connectivity spine (intra spanning
// trees + bridges + chain links can exceed N for multi-link chains) must
// be rejected loudly, not met approximately.
func TestGenerateStreamingInfeasibleRejected(t *testing.T) {
	p := largeTestProfile(streamingNodeThreshold, streamingNodeThreshold)
	p.Communities = 250
	p.ChainCommunities = 3 // spine needs N - K + (coreK-1) + 6 > N edges
	defer func() {
		if recover() == nil {
			t.Fatal("infeasible streaming profile accepted")
		}
	}()
	Generate(p, 1)
}

// TestGenerateStreamingSeedsDiffer mirrors TestGenerateSeedsDiffer on the
// streaming path.
func TestGenerateStreamingSeedsDiffer(t *testing.T) {
	p := largeTestProfile(streamingNodeThreshold, 3*streamingNodeThreshold)
	a, b := Generate(p, 1), Generate(p, 2)
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
