package benchnet

import (
	"os"
	"testing"

	"siot/internal/socialgen"
)

// TestScaleSmoke1M is the CI scale gate for the million-node path: generate
// the canonical 1M-node / 6M-edge network, populate it, and seed transitivity
// experience — the full setup half of BenchmarkSweep1M — under whatever
// memory budget the environment imposes (CI sets GOMEMLIMIT). It runs only
// when SIOT_SCALE1M is set: at ~6 GB peak it has no place in the default
// test sweep.
func TestScaleSmoke1M(t *testing.T) {
	if os.Getenv("SIOT_SCALE1M") == "" {
		t.Skip("set SIOT_SCALE1M=1 to run the million-node scale smoke")
	}
	profile := Net1M()
	net := socialgen.Generate(profile, Seed)
	if got := net.Graph.NumNodes(); got != profile.Nodes {
		t.Fatalf("generated %d nodes, want %d", got, profile.Nodes)
	}
	if got := net.Graph.NumEdges(); got != profile.Edges {
		t.Fatalf("generated %d edges, want %d", got, profile.Edges)
	}
	p, _ := Populate(net)
	if got := p.Net.Graph.NumNodes(); got != profile.Nodes {
		t.Fatalf("population covers %d nodes, want %d", got, profile.Nodes)
	}
	if len(p.Trustors) == 0 {
		t.Fatal("populated network has no trustors")
	}
}
