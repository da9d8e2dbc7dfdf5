// Package community implements Newman modularity and the Louvain community
// detection method (Blondel et al., "Fast unfolding of communities in large
// networks", 2008) — the algorithms cited by the paper for the "Modularity"
// and "Number of Communities" rows of Table 1.
package community

import (
	"fmt"

	"siot/internal/graph"
	"siot/internal/rng"
)

// Partition assigns each node to a community. Community IDs are dense in
// [0, NumCommunities).
type Partition struct {
	// Assign maps node ID to community ID.
	Assign []int
	// NumCommunities is the number of distinct communities.
	NumCommunities int
}

// Communities returns the node sets per community, indexed by community ID.
func (p Partition) Communities() [][]graph.NodeID {
	out := make([][]graph.NodeID, p.NumCommunities)
	for n, c := range p.Assign {
		out[c] = append(out[c], graph.NodeID(n))
	}
	return out
}

// normalize relabels communities to dense IDs in first-seen order and fixes
// NumCommunities.
func (p *Partition) normalize() {
	relabel := make(map[int]int)
	for i, c := range p.Assign {
		id, ok := relabel[c]
		if !ok {
			id = len(relabel)
			relabel[c] = id
		}
		p.Assign[i] = id
	}
	p.NumCommunities = len(relabel)
}

// modularity computes Newman's modularity Q of the partition on g:
//
//	Q = (1/2m) * Σ_ij [A_ij − k_i k_j / 2m] δ(c_i, c_j)
//
// Higher values mean denser intra-community connectivity than expected at
// random. Q is 0 for a single community and can reach ~1 for strongly
// modular graphs.
func modularity(g *graph.Graph, p Partition) float64 {
	m2 := float64(2 * g.NumEdges())
	if m2 == 0 {
		return 0
	}
	if len(p.Assign) != g.NumNodes() {
		panic(fmt.Sprintf("community: partition over %d nodes, graph has %d", len(p.Assign), g.NumNodes()))
	}
	// Sum of degrees per community and intra-community edge endpoints.
	degSum := make([]float64, p.NumCommunities)
	var intra float64
	for u := 0; u < g.NumNodes(); u++ {
		cu := p.Assign[u]
		degSum[cu] += float64(g.Degree(graph.NodeID(u)))
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			if p.Assign[v] == cu {
				intra++ // counts each intra edge twice, as the formula wants
			}
		}
	}
	q := intra / m2
	for _, d := range degSum {
		q -= float64((d / m2) * (d / m2))
	}
	return q
}

// louvain runs the Louvain method on g with a deterministic node-visit order
// derived from seed, and returns the final partition. The two classic phases
// (local moving, graph aggregation) repeat until modularity stops improving.
func louvain(g *graph.Graph, seed uint64) Partition {
	// Working representation: weighted multigraph via edge maps, because the
	// aggregation phase introduces weights and self-loops.
	n := g.NumNodes()
	w := make([]map[int]float64, n)
	selfLoop := make([]float64, n)
	for u := 0; u < n; u++ {
		w[u] = make(map[int]float64, g.Degree(graph.NodeID(u)))
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			w[u][int(v)] = 1
		}
	}
	// membership[level node] -> community at that level; we compose levels.
	assign := make([]int, n)
	for i := range assign {
		assign[i] = i
	}

	level := 0
	for {
		moved, part := localMove(w, selfLoop, rng.New(seed, "louvain", fmt.Sprint(level)))
		// Compose the level partition into the global assignment.
		for i := range assign {
			assign[i] = part[assign[i]]
		}
		if !moved {
			break
		}
		// Aggregate: build the community graph for the next level.
		w, selfLoop = aggregate(w, selfLoop, part)
		level++
		if len(w) <= 1 {
			break
		}
	}
	p := Partition{Assign: assign}
	p.normalize()
	return p
}

// localMove performs the Louvain local-moving phase on the weighted graph
// (w, selfLoop). It returns whether any node changed community and the dense
// community assignment of this level's nodes.
func localMove(w []map[int]float64, selfLoop []float64, r interface{ Perm(int) []int }) (bool, []int) {
	n := len(w)
	comm := make([]int, n)
	for i := range comm {
		comm[i] = i
	}
	// Total weighted degree (incl. self-loops counted twice) and totals per
	// community.
	deg := make([]float64, n)
	var m2 float64
	for u := 0; u < n; u++ {
		for _, wt := range w[u] {
			deg[u] += wt
		}
		deg[u] += 2 * selfLoop[u]
		m2 += deg[u]
	}
	if m2 == 0 {
		return false, comm
	}
	commTot := append([]float64(nil), deg...)

	anyMoved := false
	for pass := 0; pass < 64; pass++ { // safety bound; converges much sooner
		movedThisPass := false
		for _, u := range r.Perm(n) {
			cu := comm[u]
			// Weights from u to each neighboring community.
			toComm := make(map[int]float64)
			for v, wt := range w[u] {
				toComm[comm[v]] += wt
			}
			// Remove u from its community.
			commTot[cu] -= deg[u]
			bestC, bestGain := cu, 0.0
			for c, wuc := range toComm {
				// ΔQ of moving u into c (constant terms dropped).
				gain := wuc - commTot[c]*deg[u]/m2
				base := toComm[cu] - commTot[cu]*deg[u]/m2
				delta := gain - base
				if delta > bestGain+1e-12 || (delta > bestGain-1e-12 && c < bestC && delta > 1e-12) {
					bestGain = delta
					bestC = c
				}
			}
			commTot[bestC] += deg[u]
			if bestC != cu {
				comm[u] = bestC
				movedThisPass = true
				anyMoved = true
			}
		}
		if !movedThisPass {
			break
		}
	}
	// Densify community IDs.
	relabel := make(map[int]int)
	for i, c := range comm {
		id, ok := relabel[c]
		if !ok {
			id = len(relabel)
			relabel[c] = id
		}
		comm[i] = id
	}
	return anyMoved, comm
}

// aggregate builds the community-level weighted graph after a local-moving
// phase. Edge weights between communities are summed; intra-community
// weights become self-loops.
func aggregate(w []map[int]float64, selfLoop []float64, part []int) ([]map[int]float64, []float64) {
	nc := 0
	for _, c := range part {
		if c+1 > nc {
			nc = c + 1
		}
	}
	nw := make([]map[int]float64, nc)
	nself := make([]float64, nc)
	for i := range nw {
		nw[i] = make(map[int]float64)
	}
	for u := range w {
		cu := part[u]
		nself[cu] += selfLoop[u]
		for v, wt := range w[u] {
			cv := part[v]
			if cu == cv {
				// Each intra edge visited from both endpoints: wt/2 each.
				nself[cu] += float64(wt / 2)
			} else {
				nw[cu][cv] += wt
			}
		}
	}
	return nw, nself
}

// Detect is the convenience entry point used by Table 1: it runs Louvain and
// returns the partition together with its modularity.
func Detect(g *graph.Graph, seed uint64) (Partition, float64) {
	p := louvain(g, seed)
	return p, modularity(g, p)
}
