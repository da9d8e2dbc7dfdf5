package graph

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestDensity(t *testing.T) {
	if complete(5).Density() != 1 {
		t.Fatal("K5 density != 1")
	}
	if New(3).Density() != 0 {
		t.Fatal("edgeless density != 0")
	}
	if New(1).Density() != 0 {
		t.Fatal("single-node density != 0")
	}
	g := path(4) // 3 edges of 6 possible
	if math.Abs(g.Density()-0.5) > 1e-12 {
		t.Fatalf("path density = %v", g.Density())
	}
}

func TestDegreeAssortativityRegular(t *testing.T) {
	// All degrees equal: correlation undefined, reported as 0.
	if got := complete(5).DegreeAssortativity(); got != 0 {
		t.Fatalf("K5 assortativity = %v", got)
	}
	if got := New(4).DegreeAssortativity(); got != 0 {
		t.Fatalf("edgeless assortativity = %v", got)
	}
}

func TestDegreeAssortativityStar(t *testing.T) {
	// A star is maximally disassortative: hubs connect only to leaves.
	g := New(6)
	for i := 1; i < 6; i++ {
		_ = g.AddEdge(0, NodeID(i))
	}
	if got := g.DegreeAssortativity(); got >= 0 {
		t.Fatalf("star assortativity = %v, want negative", got)
	}
}

func TestDegreeAssortativityBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 1))
		g := New(20)
		for e := 0; e < 40; e++ {
			u, v := NodeID(r.IntN(20)), NodeID(r.IntN(20))
			if u != v {
				_ = g.AddEdge(u, v)
			}
		}
		a := g.DegreeAssortativity()
		return a >= -1-1e-9 && a <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestKCore(t *testing.T) {
	// Triangle with a pendant: 2-core is the triangle.
	g := New(4)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(0, 2)
	_ = g.AddEdge(2, 3)
	core := g.KCore(2)
	if len(core) != 3 {
		t.Fatalf("2-core = %v", core)
	}
	for _, u := range core {
		if u == 3 {
			t.Fatal("pendant survived the 2-core")
		}
	}
	if len(g.KCore(3)) != 0 {
		t.Fatal("3-core of a triangle-with-tail should be empty")
	}
	if len(g.KCore(0)) != 4 {
		t.Fatal("0-core must include everything")
	}
}

func TestKCoreCascade(t *testing.T) {
	// A chain collapses entirely under k=2: removals must cascade.
	g := path(6)
	if len(g.KCore(2)) != 0 {
		t.Fatal("path has a non-empty 2-core")
	}
}

func TestDegeneracy(t *testing.T) {
	if got := complete(5).Degeneracy(); got != 4 {
		t.Fatalf("K5 degeneracy = %d", got)
	}
	if got := path(5).Degeneracy(); got != 1 {
		t.Fatalf("path degeneracy = %d", got)
	}
	if got := New(3).Degeneracy(); got != 0 {
		t.Fatalf("edgeless degeneracy = %d", got)
	}
}

func TestTriangleCount(t *testing.T) {
	if got := complete(4).TriangleCount(); got != 4 {
		t.Fatalf("K4 triangles = %d, want 4", got)
	}
	if got := path(5).TriangleCount(); got != 0 {
		t.Fatalf("path triangles = %d", got)
	}
	g := New(4)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(0, 2)
	_ = g.AddEdge(2, 3)
	if got := g.TriangleCount(); got != 1 {
		t.Fatalf("triangles = %d, want 1", got)
	}
}

func TestQuickTriangleVsClustering(t *testing.T) {
	// A graph has triangles iff some node has nonzero clustering.
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 2))
		g := New(15)
		for e := 0; e < 25; e++ {
			u, v := NodeID(r.IntN(15)), NodeID(r.IntN(15))
			if u != v {
				_ = g.AddEdge(u, v)
			}
		}
		hasTriangles := g.TriangleCount() > 0
		hasClustering := false
		for u := 0; u < 15; u++ {
			if g.ClusteringCoefficient(NodeID(u)) > 0 {
				hasClustering = true
				break
			}
		}
		return hasTriangles == hasClustering
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
