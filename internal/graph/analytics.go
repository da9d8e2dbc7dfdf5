package graph

import "math"

// This file holds the secondary network-analysis metrics used to
// characterize generated and loaded social networks beyond the Table 1 set.

// Density returns the fraction of possible edges present, 2E/(N(N−1)).
func (g *Graph) Density() float64 {
	n := g.NumNodes()
	if n < 2 {
		return 0
	}
	return 2 * float64(g.edges) / (float64(n) * float64(n-1))
}

// DegreeAssortativity returns the Pearson correlation of degrees across
// edges (Newman's degree assortativity coefficient). Social networks are
// typically assortative (high-degree nodes befriend each other); the
// coefficient is 0 when degrees are uncorrelated and undefined (returned as
// 0) when every node has the same degree.
func (g *Graph) DegreeAssortativity() float64 {
	var sx, sy, sxy, sx2, sy2 float64
	m := 0
	for u := 0; u < g.NumNodes(); u++ {
		du := float64(g.Degree(NodeID(u)))
		for _, v := range g.Neighbors(NodeID(u)) {
			// Each undirected edge contributes both (du, dv) and (dv, du),
			// which symmetrizes the correlation.
			dv := float64(g.Degree(v))
			sx += du
			sy += dv
			sxy += float64(du * dv)
			sx2 += float64(du * du)
			sy2 += float64(dv * dv)
			m++
		}
	}
	if m == 0 {
		return 0
	}
	fm := float64(m)
	num := sxy/fm - float64((sx/fm)*(sy/fm))
	den := math.Sqrt(sx2/fm-float64((sx/fm)*(sx/fm))) * math.Sqrt(sy2/fm-float64((sy/fm)*(sy/fm)))
	if den == 0 {
		return 0
	}
	return num / den
}

// KCore returns the maximal subgraph node set in which every node has at
// least k neighbors within the set (the k-core), using the standard
// peeling algorithm.
func (g *Graph) KCore(k int) []NodeID {
	n := g.NumNodes()
	deg := make([]int, n)
	removed := make([]bool, n)
	queue := make([]NodeID, 0, n)
	for u := 0; u < n; u++ {
		deg[u] = g.Degree(NodeID(u))
		if deg[u] < k {
			removed[u] = true
			queue = append(queue, NodeID(u))
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if removed[v] {
				continue
			}
			deg[v]--
			if deg[v] < k {
				removed[v] = true
				queue = append(queue, v)
			}
		}
	}
	var core []NodeID
	for u := 0; u < n; u++ {
		if !removed[u] {
			core = append(core, NodeID(u))
		}
	}
	return core
}

// Degeneracy returns the largest k for which the k-core is non-empty — a
// standard measure of how deeply nested the dense part of the network is.
func (g *Graph) Degeneracy() int {
	k := 0
	for len(g.KCore(k+1)) > 0 {
		k++
	}
	return k
}

// TriangleCount returns the number of triangles in the graph.
func (g *Graph) TriangleCount() int {
	count := 0
	for u := 0; u < g.NumNodes(); u++ {
		nbrs := g.Neighbors(NodeID(u))
		for i := 0; i < len(nbrs); i++ {
			if nbrs[i] <= NodeID(u) {
				continue
			}
			for j := i + 1; j < len(nbrs); j++ {
				if nbrs[j] > nbrs[i] && g.HasEdge(nbrs[i], nbrs[j]) {
					count++
				}
			}
		}
	}
	return count
}
