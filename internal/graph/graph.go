// Package graph implements the undirected-graph substrate underlying the
// social IoT simulations: adjacency storage, traversal, shortest paths, and
// the connectivity statistics reported in Table 1 of the paper (degree,
// diameter, average path length, clustering coefficient).
//
// Graphs are simple (no self-loops, no multi-edges) and node IDs are dense
// integers in [0, N). The sizes used by the paper (a few hundred nodes, a few
// thousand edges) make exact all-pairs BFS affordable, so all metrics here
// are exact rather than sampled.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// NodeID identifies a node within a Graph. IDs are dense in [0, N).
type NodeID int32

// Graph is a simple undirected graph over dense integer node IDs.
// The zero value is an empty graph with no nodes; use New to create a graph
// with a fixed node count.
type Graph struct {
	adj   [][]NodeID
	edges int
}

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Graph{adj: make([][]NodeID, n)}
}

// ErrNoSuchNode is returned by operations addressing a node outside [0, N).
var ErrNoSuchNode = errors.New("graph: node does not exist")

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.edges }

// valid reports whether u is a node of g.
func (g *Graph) valid(u NodeID) bool { return u >= 0 && int(u) < len(g.adj) }

// AddEdge inserts the undirected edge {u, v}. It is a no-op if the edge
// already exists. Self-loops are rejected.
func (g *Graph) AddEdge(u, v NodeID) error {
	if !g.valid(u) || !g.valid(v) {
		return fmt.Errorf("%w: edge {%d,%d} on graph of %d nodes", ErrNoSuchNode, u, v, len(g.adj))
	}
	if u == v {
		return fmt.Errorf("graph: self-loop on node %d rejected", u)
	}
	if g.HasEdge(u, v) {
		return nil
	}
	g.adj[u] = insertSorted(g.adj[u], v)
	g.adj[v] = insertSorted(g.adj[v], u)
	g.edges++
	return nil
}

// NewFromSortedEdges bulk-loads a graph from a deduplicated edge list
// sorted by (u, v) with u < v for every pair. It is the streaming
// generator's fast path: degrees are counted in one pass, every adjacency
// slice is allocated at exact capacity, and both directions come out
// sorted without any per-insert shifting — O(N + E) total, where AddEdge
// in a loop is O(E·deg). The preconditions (sorted, unique, u < v, no
// self-loops, IDs in range) are checked and violations are rejected.
func NewFromSortedEdges(n int, edges [][2]NodeID) (*Graph, error) {
	g := New(n)
	deg := make([]int32, n)
	var prev [2]NodeID
	for i, e := range edges {
		u, v := e[0], e[1]
		if !g.valid(u) || !g.valid(v) {
			return nil, fmt.Errorf("%w: edge {%d,%d} on graph of %d nodes", ErrNoSuchNode, u, v, n)
		}
		if u >= v {
			return nil, fmt.Errorf("graph: edge %d {%d,%d} not in canonical u < v order", i, u, v)
		}
		if i > 0 && (u < prev[0] || (u == prev[0] && v <= prev[1])) {
			return nil, fmt.Errorf("graph: edge %d {%d,%d} out of order after {%d,%d}", i, u, v, prev[0], prev[1])
		}
		prev = e
		deg[u]++
		deg[v]++
	}
	for u := range g.adj {
		g.adj[u] = make([]NodeID, 0, deg[u])
	}
	// Appending in sorted-key order keeps both directions sorted: for fixed
	// u the v's ascend, and for fixed v the u's ascend as the outer u does.
	for _, e := range edges {
		g.adj[e[0]] = append(g.adj[e[0]], e[1])
		g.adj[e[1]] = append(g.adj[e[1]], e[0])
	}
	g.edges = len(edges)
	return g, nil
}

// insertSorted inserts v into the sorted slice s, keeping it sorted.
func insertSorted(s []NodeID, v NodeID) []NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// HasEdge reports whether the undirected edge {u, v} exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if !g.valid(u) || !g.valid(v) || u == v {
		return false
	}
	// Search the shorter adjacency list.
	a := g.adj[u]
	if len(g.adj[v]) < len(a) {
		a, v = g.adj[v], u
	}
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	return i < len(a) && a[i] == v
}

// RemoveEdge deletes the undirected edge {u, v} if present and reports
// whether an edge was removed.
func (g *Graph) RemoveEdge(u, v NodeID) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	g.adj[u] = removeSorted(g.adj[u], v)
	g.adj[v] = removeSorted(g.adj[v], u)
	g.edges--
	return true
}

func removeSorted(s []NodeID, v NodeID) []NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

// Degree returns the number of neighbors of u, or 0 for an invalid node.
func (g *Graph) Degree(u NodeID) int {
	if !g.valid(u) {
		return 0
	}
	return len(g.adj[u])
}

// Neighbors returns the sorted neighbor list of u. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	if !g.valid(u) {
		return nil
	}
	return g.adj[u]
}

// EdgeList returns all edges as (u, v) pairs with u < v, sorted.
func (g *Graph) EdgeList() [][2]NodeID {
	out := make([][2]NodeID, 0, g.edges)
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if NodeID(u) < v {
				out = append(out, [2]NodeID{NodeID(u), v})
			}
		}
	}
	return out
}

// AvgDegree returns the mean node degree, 2E/N. It returns 0 for an empty
// graph.
func (g *Graph) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.edges) / float64(len(g.adj))
}

// BFS runs a breadth-first traversal from src and returns the hop distance
// to every node; unreachable nodes get distance -1.
func (g *Graph) BFS(src NodeID) []int32 {
	dist := make([]int32, len(g.adj))
	for i := range dist {
		dist[i] = -1
	}
	if !g.valid(src) {
		return dist
	}
	dist[src] = 0
	queue := make([]NodeID, 0, len(g.adj))
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// ConnectedComponents returns the node sets of all connected components,
// largest first.
func (g *Graph) ConnectedComponents() [][]NodeID {
	seen := make([]bool, len(g.adj))
	var comps [][]NodeID
	for s := range g.adj {
		if seen[s] {
			continue
		}
		var comp []NodeID
		queue := []NodeID{NodeID(s)}
		seen[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool {
		if len(comps[i]) != len(comps[j]) {
			return len(comps[i]) > len(comps[j])
		}
		return comps[i][0] < comps[j][0]
	})
	return comps
}

// ClusteringCoefficient returns the local clustering coefficient of u: the
// fraction of pairs of u's neighbors that are themselves connected. Nodes of
// degree < 2 have coefficient 0 by convention.
func (g *Graph) ClusteringCoefficient(u NodeID) float64 {
	if !g.valid(u) {
		return 0
	}
	nbrs := g.adj[u]
	k := len(nbrs)
	if k < 2 {
		return 0
	}
	links := 0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if g.HasEdge(nbrs[i], nbrs[j]) {
				links++
			}
		}
	}
	return 2 * float64(links) / float64(k*(k-1))
}

// AvgClustering returns the mean local clustering coefficient over all
// nodes (the "average clustering coefficient" of Table 1).
func (g *Graph) AvgClustering() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	var sum float64
	for u := range g.adj {
		sum += g.ClusteringCoefficient(NodeID(u))
	}
	return sum / float64(len(g.adj))
}

// PathStats holds exact shortest-path statistics of a graph.
type PathStats struct {
	// Diameter is the largest shortest-path length between any connected
	// pair of nodes.
	Diameter int
	// AvgPathLength is the mean shortest-path length over all connected
	// ordered pairs of distinct nodes.
	AvgPathLength float64
	// ReachablePairs counts connected ordered pairs of distinct nodes.
	ReachablePairs int
}

// Paths computes exact diameter and average path length with all-pairs BFS.
// Unreachable pairs are excluded from the average, matching the convention
// of network-analysis tools such as Gephi used by the paper.
func (g *Graph) Paths() PathStats {
	var st PathStats
	var total int64
	for u := range g.adj {
		dist := g.BFS(NodeID(u))
		for v, d := range dist {
			if v == u || d < 0 {
				continue
			}
			total += int64(d)
			st.ReachablePairs++
			if int(d) > st.Diameter {
				st.Diameter = int(d)
			}
		}
	}
	if st.ReachablePairs > 0 {
		st.AvgPathLength = float64(total) / float64(st.ReachablePairs)
	}
	return st
}

// Validate checks internal invariants (sorted adjacency, symmetry, edge
// count, no self-loops) and returns a descriptive error on the first
// violation. It is used by tests and the generators.
func (g *Graph) Validate() error {
	count := 0
	for u := range g.adj {
		prev := NodeID(-1)
		for _, v := range g.adj[u] {
			if v <= prev {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted", u)
			}
			prev = v
			if v == NodeID(u) {
				return fmt.Errorf("graph: self-loop at %d", u)
			}
			if !g.valid(v) {
				return fmt.Errorf("graph: dangling neighbor %d of %d", v, u)
			}
			if !g.HasEdge(v, NodeID(u)) {
				return fmt.Errorf("graph: edge {%d,%d} not symmetric", u, v)
			}
			count++
		}
	}
	if count != 2*g.edges {
		return fmt.Errorf("graph: edge count %d inconsistent with adjacency total %d", g.edges, count)
	}
	return nil
}
