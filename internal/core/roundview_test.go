package core

import (
	"math/rand/v2"
	"testing"

	"siot/internal/task"
)

// roundFixture builds a random population of live stores plus the CSR
// adjacency of a random simple graph, the substrate for round-view capture
// tests: stores hold records only along edges (as the simulation guarantees)
// and usage logs for arbitrary neighbor pairs.
type roundFixture struct {
	n      int
	adjOff []int32
	adjTo  []AgentID
	stores []*Store
	tasks  []task.Task
}

func buildRoundFixture(t *testing.T, seed uint64) *roundFixture {
	t.Helper()
	return newRoundFixture(rand.New(rand.NewPCG(seed, 0xf1)), 24, 3*24)
}

// newRoundFixture draws a fixture of n stores over up to links undirected
// edges.
func newRoundFixture(r *rand.Rand, n, links int) *roundFixture {
	adj := make(map[AgentID][]AgentID)
	addEdge := func(a, b AgentID) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	seen := map[[2]AgentID]bool{}
	for k := 0; k < links; k++ {
		a, b := AgentID(r.IntN(n)), AgentID(r.IntN(n))
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]AgentID{a, b}] {
			continue
		}
		seen[[2]AgentID{a, b}] = true
		addEdge(a, b)
	}
	f := &roundFixture{n: n, adjOff: make([]int32, n+1)}
	for u := 0; u < n; u++ {
		row := adj[AgentID(u)]
		sortAgentIDs(row)
		f.adjOff[u+1] = f.adjOff[u] + int32(len(row))
		f.adjTo = append(f.adjTo, row...)
	}
	f.tasks = []task.Task{
		task.Uniform(1, task.CharGPS),
		task.Uniform(2, task.CharImage),
		task.Uniform(3, task.CharGPS, task.CharCompute),
		task.Uniform(4, task.CharCompute, task.CharStorage),
	}
	cfg := DefaultUpdateConfig()
	cfg.Catalog = task.NewCatalog() // shared across the fixture's stores
	f.stores = make([]*Store, n)
	for u := range f.stores {
		f.stores[u] = NewStore(AgentID(u), cfg)
	}
	// Records along edges only; usage logs for a random subset of neighbors.
	for u := 0; u < n; u++ {
		for _, w := range adj[AgentID(u)] {
			for _, tk := range f.tasks {
				if r.Float64() < 0.4 {
					s := r.Float64()
					f.stores[u].Seed(w, tk, Expectation{S: s, G: s, D: 1 - s, C: 0.1 * r.Float64()})
				}
			}
			for k := r.IntN(4); k > 0; k-- {
				f.stores[u].ObserveUsage(w, r.Float64() < 0.3)
			}
		}
	}
	return f
}

func sortAgentIDs(s []AgentID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func (f *roundFixture) source() RoundSource {
	cat := f.stores[0].Catalog()
	return RoundSource{
		Catalog: cat,
		Count: func(holder, about AgentID) int {
			return f.stores[holder].RecordCount(about)
		},
		Append: func(holder, about AgentID, buf []CompactRecord) []CompactRecord {
			return f.stores[holder].AppendCompact(about, cat, buf)
		},
		Version: func(holder AgentID) uint64 {
			return f.stores[holder].Version()
		},
		Usage: func(holder, about AgentID) UsageLog {
			return f.stores[holder].Usage(about)
		},
	}
}

// mustRoundView is CaptureRoundView failing the test on error.
func mustRoundView(t *testing.T, f *roundFixture, workers int, pool *ArenaPool) *RoundView {
	t.Helper()
	v, err := CaptureRoundView(f.adjOff, f.adjTo, f.source(), UnitNormalizer(), workers, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestRoundViewMatchesLiveStores pins the round view's read API bit-for-bit
// against the live stores it was captured from, for every directed edge,
// every task (direct hit, inferable, and uncovered), and every usage log —
// the equivalence the engine's snapshot round rests on.
func TestRoundViewMatchesLiveStores(t *testing.T) {
	for _, workers := range []int{1, 4} {
		f := buildRoundFixture(t, 7)
		v := mustRoundView(t, f, workers, nil)
		probe := append(f.tasks, task.Uniform(9, task.CharAudio)) // uncovered type
		for u := 0; u < f.n; u++ {
			holder := AgentID(u)
			for _, w := range f.adjTo[f.adjOff[u]:f.adjOff[u+1]] {
				e, ok := v.EdgeIndex(holder, w)
				if !ok {
					t.Fatalf("edge %d->%d not found", holder, w)
				}
				for _, tk := range probe {
					gotTW, gotOK := v.BestTW(e, tk)
					wantTW, wantOK := f.stores[u].BestTW(w, tk)
					if gotTW != wantTW || gotOK != wantOK {
						t.Fatalf("BestTW(%d->%d, task %d) = (%v, %v), store says (%v, %v)",
							holder, w, tk.Type(), gotTW, gotOK, wantTW, wantOK)
					}
				}
				if got, want := v.Usage(e), f.stores[u].Usage(w); got != want {
					t.Fatalf("Usage(%d->%d) = %+v, store says %+v", holder, w, got, want)
				}
				if got, want := v.ReverseTW(e), f.stores[u].ReverseTW(w); got != want {
					t.Fatalf("ReverseTW(%d->%d) = %v, store says %v", holder, w, got, want)
				}
			}
		}
	}
}

// TestRoundViewFrozenAcrossMutation: the view is a snapshot — store writes
// after capture must not show through it.
func TestRoundViewFrozenAcrossMutation(t *testing.T) {
	f := buildRoundFixture(t, 8)
	v := mustRoundView(t, f, 2, nil)
	u := 0
	for f.adjOff[u] == f.adjOff[u+1] {
		u++
	}
	w := f.adjTo[f.adjOff[u]]
	e, _ := v.EdgeIndex(AgentID(u), w)
	beforeTW, beforeOK := v.BestTW(e, f.tasks[0])
	beforeUsage := v.Usage(e)
	f.stores[u].Observe(w, f.tasks[0], Outcome{Success: true, Gain: 1}, EnvContext{})
	f.stores[u].ObserveUsage(w, true)
	if tw, ok := v.BestTW(e, f.tasks[0]); tw != beforeTW || ok != beforeOK {
		t.Fatalf("view leaked a post-capture record write: (%v, %v) != (%v, %v)", tw, ok, beforeTW, beforeOK)
	}
	if got := v.Usage(e); got != beforeUsage {
		t.Fatalf("view leaked a post-capture usage write: %+v != %+v", got, beforeUsage)
	}
	v.Release()
}

// TestRoundViewEdgeIndexMisses: EdgeIndex reports ok=false for non-edges
// (including self-loops), never a bogus hit.
func TestRoundViewEdgeIndexMisses(t *testing.T) {
	f := buildRoundFixture(t, 9)
	v := mustRoundView(t, f, 1, nil)
	defer v.Release()
	neighbors := make(map[[2]AgentID]bool)
	for u := 0; u < f.n; u++ {
		for _, w := range f.adjTo[f.adjOff[u]:f.adjOff[u+1]] {
			neighbors[[2]AgentID{AgentID(u), w}] = true
		}
	}
	for u := 0; u < f.n; u++ {
		for w := 0; w < f.n; w++ {
			e, ok := v.EdgeIndex(AgentID(u), AgentID(w))
			if ok != neighbors[[2]AgentID{AgentID(u), AgentID(w)}] {
				t.Fatalf("EdgeIndex(%d, %d) ok=%v, adjacency says %v", u, w, ok, !ok)
			}
			if ok && v.adjTo[e] != AgentID(w) {
				t.Fatalf("EdgeIndex(%d, %d) points at edge to %d", u, w, v.adjTo[e])
			}
		}
	}
}

// TestRoundViewPooledRelease: a released round view returns its usage
// arenas (not just the trust-view arenas) to the pool, and a fresh capture
// of the same population reuses them without stale data.
func TestRoundViewPooledRelease(t *testing.T) {
	f := buildRoundFixture(t, 10)
	pool := NewArenaPool()
	v1 := mustRoundView(t, f, 2, pool)
	resp1 := &v1.resp[0]
	v1.Release()
	// Mutate usage, recapture: must reuse the arena and show the new counts.
	u := 0
	for f.adjOff[u] == f.adjOff[u+1] {
		u++
	}
	w := f.adjTo[f.adjOff[u]]
	f.stores[u].ObserveUsage(w, true)
	v2 := mustRoundView(t, f, 2, pool)
	defer v2.Release()
	if &v2.resp[0] != resp1 {
		t.Fatal("pooled usage arena was not reused")
	}
	e, _ := v2.EdgeIndex(AgentID(u), w)
	if got, want := v2.Usage(e), f.stores[u].Usage(w); got != want {
		t.Fatalf("recaptured usage %+v, store says %+v (stale arena?)", got, want)
	}
}
