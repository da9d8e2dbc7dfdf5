// Package socialgen builds the social-network substrate for the simulations.
//
// The paper uses sub-networks extracted from the SNAP ego-network datasets
// (Facebook, Google+, Twitter) whose connectivity characteristics are listed
// in its Table 1. Those datasets are not redistributable inside this offline
// repository, so this package provides two interchangeable sources:
//
//   - Generate: a synthetic generator calibrated per network profile to
//     reproduce Table 1's statistics (node and edge counts exactly; average
//     degree, path length, clustering, modularity, and community count
//     approximately). The generator plants a skewed community structure,
//     fills communities with a friend-of-a-friend process (which creates the
//     triangles behind the clustering coefficient), overlaps circle
//     memberships (high clustering at moderate modularity, as in ego
//     networks), wires core communities with uniform bridges (small-world
//     core), and hangs a thin chain of peripheral communities off the core
//     (long diameter).
//
//   - LoadEdgeList: a loader for the real SNAP edge lists when available.
//
// Every experiment consumes the graph only through its adjacency structure,
// so matching the connectivity statistics preserves the behavior the paper's
// evaluation exercises (discovery reach, path multiplicity, neighborhood
// overlap).
package socialgen

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"

	"siot/internal/community"
	"siot/internal/graph"
	"siot/internal/rng"
)

// Profile parameterizes the synthetic generator for one of the paper's three
// sub-networks.
type Profile struct {
	// Name identifies the network ("facebook", "gplus", "twitter").
	Name string
	// Nodes and Edges are matched exactly.
	Nodes int
	Edges int
	// Communities is the number of planted communities.
	Communities int
	// IntraFrac is the fraction of edges placed inside communities.
	IntraFrac float64
	// FoF is the probability that an intra-community edge closes a triangle
	// (friend-of-a-friend attachment) instead of joining a random pair.
	FoF float64
	// Overlap is the fraction of extra "borrowed" members each core
	// community receives from other core communities. Ego-network circles
	// overlap heavily:
	// overlap is what lets the graph combine high clustering (dense shared
	// neighborhoods) with only moderate modularity (no partition separates
	// the overlapped groups cleanly), as in Table 1.
	Overlap float64
	// ChainCommunities is the number of smallest communities strung into a
	// peripheral chain. The chain reproduces the long diameter and elevated
	// average path length of the paper's extracts without disturbing the
	// dense core.
	ChainCommunities int
	// SizeSkew shapes the community-size distribution; larger values give a
	// heavier head (a few big communities and many small ones).
	SizeSkew float64
	// FeatureKinds is the number of distinct profile features (used as
	// real-world task characteristics in Table 2's experiment).
	FeatureKinds int
	// FeaturesPerNode is the mean number of features per node.
	FeaturesPerNode float64
	// Paper holds the statistics the paper reports for this sub-network
	// (Table 1), for side-by-side comparison in reports.
	Paper Stats
}

// Stats is one row of Table 1.
type Stats struct {
	Nodes         int
	Edges         int
	AvgDegree     float64
	Diameter      int
	AvgPathLength float64
	AvgClustering float64
	Modularity    float64
	Communities   int
}

// Facebook returns the generation profile calibrated to the paper's Facebook
// sub-network (347 nodes, 5038 edges, clustering 0.49, 29 communities).
func Facebook() Profile {
	return Profile{
		Name: "facebook", Nodes: 347, Edges: 5038,
		Communities: 29, IntraFrac: 0.82, FoF: 0.88, SizeSkew: 1.1,
		Overlap: 0.16, ChainCommunities: 5,
		FeatureKinds: 8, FeaturesPerNode: 2.6,
		Paper: Stats{347, 5038, 29.04, 11, 3.75, 0.49, 0.46, 29},
	}
}

// GooglePlus returns the profile for the Google+ sub-network
// (358 nodes, 4178 edges, clustering 0.39, 22 communities).
func GooglePlus() Profile {
	return Profile{
		Name: "gplus", Nodes: 358, Edges: 4178,
		Communities: 22, IntraFrac: 0.8, FoF: 0.7, SizeSkew: 1.1,
		Overlap: 0.2, ChainCommunities: 6,
		FeatureKinds: 8, FeaturesPerNode: 2.4,
		Paper: Stats{358, 4178, 23.34, 12, 3.9, 0.39, 0.45, 22},
	}
}

// Twitter returns the profile for the Twitter sub-network
// (244 nodes, 2478 edges, clustering 0.27, 16 communities).
func Twitter() Profile {
	return Profile{
		Name: "twitter", Nodes: 244, Edges: 2478,
		Communities: 16, IntraFrac: 0.72, FoF: 0.4, SizeSkew: 1.05,
		Overlap: 0.2, ChainCommunities: 3,
		FeatureKinds: 8, FeaturesPerNode: 2.2,
		Paper: Stats{244, 2478, 20.31, 8, 2.96, 0.27, 0.38, 16},
	}
}

// Profiles returns all three paper profiles in the order the paper reports
// them.
func Profiles() []Profile {
	return []Profile{Facebook(), GooglePlus(), Twitter()}
}

// ProfileByName returns the profile with the given name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("socialgen: unknown network profile %q (want facebook, gplus, or twitter)", name)
}

// ErrProfile is wrapped by every error Validate returns.
var ErrProfile = errors.New("socialgen: invalid profile")

// Validate reports whether Generate can build the profile: at least two
// nodes, no more edges than a simple graph on them holds, every planted
// community seated with at least 3 members, and — on the streaming path —
// enough edges for the connectivity spine.
func (p Profile) Validate() error {
	if p.Nodes < 2 {
		return fmt.Errorf("%w: %q has %d nodes, want at least 2", ErrProfile, p.Name, p.Nodes)
	}
	if maxEdges := p.Nodes * (p.Nodes - 1) / 2; p.Edges > maxEdges {
		return fmt.Errorf("%w: %q wants %d edges, max %d for %d nodes", ErrProfile, p.Name, p.Edges, maxEdges, p.Nodes)
	}
	k := max(p.Communities, 1)
	if p.Nodes < 3*k {
		return fmt.Errorf("%w: %q cannot seat %d communities of >= 3 in %d nodes", ErrProfile, p.Name, k, p.Nodes)
	}
	if p.Nodes >= streamingNodeThreshold {
		if spine := spineEdges(p.Nodes, k, p.ChainCommunities); p.Edges < spine {
			return fmt.Errorf("%w: streaming %q wants %d edges but its connectivity spine needs up to %d (%d nodes, %d communities); raise Edges or lower Communities/ChainCommunities",
				ErrProfile, p.Name, p.Edges, spine, p.Nodes, k)
		}
	}
	return nil
}

// Network is a generated (or loaded) social network: the graph plus the node
// metadata the experiments need.
type Network struct {
	Graph *graph.Graph
	// Community is the planted community of each node (generator output;
	// Louvain runs its own detection for the Table 1 statistics).
	Community []int
	// Features lists the profile-feature IDs of each node. Feature
	// memberships are community-correlated, as in real ego networks.
	Features [][]int
	// Profile records the generation parameters.
	Profile Profile
}

// Generate builds a synthetic network for the profile, deterministically
// from seed. The returned graph is connected, simple, and has exactly
// p.Nodes nodes and p.Edges edges.
//
// Profiles of streamingNodeThreshold nodes or more take the streaming
// large-N path (see streaming.go): same macro-structure, built as a flat
// sorted edge-key list with structural (never repaired) connectivity.
// Smaller profiles — including the three calibrated paper networks — use
// the rejection-and-refinement path below, unchanged.
//
// Generate panics with Validate's error on a profile it cannot build;
// callers taking profiles from input call Validate first.
func Generate(p Profile, seed uint64) *Network {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if p.Nodes >= streamingNodeThreshold {
		return generateStreaming(p, seed)
	}
	r := rng.New(seed, "socialgen", p.Name)

	sizes := communitySizes(p, r)
	assign := make([]int, p.Nodes)
	node := 0
	for c, s := range sizes {
		for i := 0; i < s; i++ {
			assign[node] = c
			node++
		}
	}
	members := make([][]graph.NodeID, len(sizes))
	for n, c := range assign {
		members[c] = append(members[c], graph.NodeID(n))
	}
	coreK := coreCommunities(len(sizes), p.ChainCommunities)
	extended := overlapMembers(members, coreK, p, r)

	g := graph.New(p.Nodes)
	targetIntra := int(p.IntraFrac * float64(p.Edges))

	placeIntraEdges(g, extended, targetIntra, p.FoF, r)
	chainPeriphery(g, members, p.ChainCommunities, r)
	var core []graph.NodeID
	for c := 0; c < coreK; c++ {
		core = append(core, members[c]...)
	}
	placeInterEdges(g, assign, core, p.Edges-g.NumEdges(), r)
	repairConnectivity(g, r)
	trimToEdgeCount(g, assign, p.Edges, r)
	if p.Paper.AvgClustering > 0 {
		tuneClustering(g, assign, p.Paper.AvgClustering, 0.02, r)
	}
	reconnectBySwap(g, r)

	if err := g.Validate(); err != nil {
		panic("socialgen: generated invalid graph: " + err.Error())
	}
	return &Network{
		Graph:     g,
		Community: assign,
		Features:  assignFeatures(p, assign, r),
		Profile:   p,
	}
}

// communitySizes draws a skewed size distribution summing to p.Nodes with
// every community of size at least 3.
func communitySizes(p Profile, r *rand.Rand) []int {
	k := p.Communities
	if k < 1 {
		k = 1
	}
	weights := make([]float64, k)
	var total float64
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -p.SizeSkew)
		total += weights[i]
	}
	sizes := make([]int, k)
	assigned := 0
	for i := range sizes {
		sizes[i] = 3
		assigned += 3
	}
	// Distribute the remainder proportionally to the weights with random
	// rounding for variety.
	for assigned < p.Nodes {
		x := r.Float64() * total
		for i, w := range weights {
			x -= w
			if x <= 0 {
				sizes[i]++
				assigned++
				break
			}
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}

// placeIntraEdges fills communities with edges. A fraction fof of edges
// close triangles by connecting a node to a neighbor-of-a-neighbor; the rest
// join uniform random intra-community pairs. Budgets scale superlinearly
// with community size so that large communities are denser in absolute terms
// but sparser in relative density, as in ego networks.
func placeIntraEdges(g *graph.Graph, members [][]graph.NodeID, budget int, fof float64, r *rand.Rand) {
	if budget <= 0 {
		return
	}
	weights := make([]float64, len(members))
	var total float64
	for c, m := range members {
		s := float64(len(m))
		weights[c] = float64(s * math.Sqrt(s)) // ∝ s^1.5
		total += weights[c]
	}
	placed := 0
	for c, m := range members {
		if len(m) < 2 {
			continue
		}
		share := int(math.Round(float64(budget) * weights[c] / total))
		maxC := len(m) * (len(m) - 1) / 2
		if share > maxC {
			share = maxC
		}
		placed += fillCommunity(g, m, share, fof, r)
	}
	// Top up any rounding shortfall with random intra pairs in the largest
	// communities that still have room.
	for tries := 0; placed < budget && tries < budget*50; tries++ {
		m := members[r.IntN(len(members))]
		if len(m) < 2 {
			continue
		}
		u, v := m[r.IntN(len(m))], m[r.IntN(len(m))]
		if u != v && !g.HasEdge(u, v) {
			_ = g.AddEdge(u, v)
			placed++
		}
	}
}

// fillCommunity places want edges among members and returns how many were
// placed.
func fillCommunity(g *graph.Graph, members []graph.NodeID, want int, fof float64, r *rand.Rand) int {
	placed := 0
	misses := 0
	for placed < want && misses < 60*want+200 {
		var u, v graph.NodeID
		if placed > len(members) && r.Float64() < fof {
			// Friend-of-a-friend: u -- w -- v, close the triangle u -- v.
			w := members[r.IntN(len(members))]
			nbrs := g.Neighbors(w)
			if len(nbrs) < 2 {
				misses++
				continue
			}
			u = nbrs[r.IntN(len(nbrs))]
			v = nbrs[r.IntN(len(nbrs))]
		} else {
			u = members[r.IntN(len(members))]
			v = members[r.IntN(len(members))]
		}
		if u == v || g.HasEdge(u, v) {
			misses++
			continue
		}
		_ = g.AddEdge(u, v)
		placed++
	}
	return placed
}

// overlapMembers returns per-community membership lists extended with
// "borrowed" members from the ring-adjacent communities. Intra-community
// edges placed over the extended lists create the overlapping-circle
// structure of ego networks: nodes embedded in two dense groups at once.
func overlapMembers(members [][]graph.NodeID, coreK int, p Profile, r *rand.Rand) [][]graph.NodeID {
	k := len(members)
	out := make([][]graph.NodeID, k)
	for c := range members {
		out[c] = append([]graph.NodeID(nil), members[c]...)
	}
	if p.Overlap <= 0 || coreK < 2 {
		return out
	}
	// Only core communities overlap; the peripheral chain stays thin.
	// Donors are random core communities: spreading the overlap keeps any
	// single community pair weakly coupled, so Louvain can still separate
	// the dense homes.
	for c := 0; c < coreK; c++ {
		borrow := int(p.Overlap * float64(len(members[c])))
		for i := 0; i < borrow; i++ {
			src := r.IntN(coreK)
			if src == c {
				continue
			}
			donor := members[src]
			out[c] = append(out[c], donor[r.IntN(len(donor))])
		}
	}
	return out
}

// chainPeriphery strings the chainLen smallest communities into a path
// hanging off the core: core — c_{k-chainLen} — ... — c_{k-1}. Each link is
// a couple of edges. This reproduces the long diameter and elevated average
// path length of the paper's extracts without disturbing the dense core.
func chainPeriphery(g *graph.Graph, members [][]graph.NodeID, chainLen int, r *rand.Rand) {
	k := len(members)
	if chainLen < 1 || k < chainLen+1 {
		return
	}
	// members is sorted by decreasing size, so the chain uses the tail.
	prev := members[r.IntN(k-chainLen)] // anchor in a random core community
	for c := k - chainLen; c < k; c++ {
		cur := members[c]
		for links := 0; links < 2; links++ {
			u := prev[r.IntN(len(prev))]
			v := cur[r.IntN(len(cur))]
			_ = g.AddEdge(u, v)
		}
		prev = cur
	}
}

// placeInterEdges wires core communities together with uniform random
// bridges over the core node set. Uniform spreading keeps any single
// community pair weakly coupled, so the planted communities stay separable
// while the core becomes a small world. The peripheral chain is excluded so
// bridges do not shortcut its long paths.
func placeInterEdges(g *graph.Graph, assign []int, core []graph.NodeID, budget int, r *rand.Rand) {
	if len(core) < 2 {
		return
	}
	placed := 0
	misses := 0
	for placed < budget && misses < 80*budget+400 {
		u := core[r.IntN(len(core))]
		v := core[r.IntN(len(core))]
		if u == v || assign[u] == assign[v] || g.HasEdge(u, v) {
			misses++
			continue
		}
		_ = g.AddEdge(u, v)
		placed++
	}
	// Fall back to arbitrary core pairs if placement stalls.
	for placed < budget && misses < 160*budget+800 {
		u, v := core[r.IntN(len(core))], core[r.IntN(len(core))]
		if u == v || g.HasEdge(u, v) {
			misses++
			continue
		}
		_ = g.AddEdge(u, v)
		placed++
	}
}

// commonNeighbors counts the shared neighbors of u and v using the sorted
// adjacency lists.
func commonNeighbors(g *graph.Graph, u, v graph.NodeID) int {
	a, b := g.Neighbors(u), g.Neighbors(v)
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// tuneClustering rewires the graph toward the target average clustering
// coefficient while preserving the exact edge count. Raising clustering
// swaps a low-triangle edge for a triangle-closing edge; lowering it does
// the reverse. The loop stops within tol of the target or after a bounded
// number of batches.
func tuneClustering(g *graph.Graph, assign []int, target, tol float64, r *rand.Rand) {
	n := g.NumNodes()
	const batch = 40
	for pass := 0; pass < 120; pass++ {
		cc := g.AvgClustering()
		if math.Abs(cc-target) <= tol {
			return
		}
		raise := cc < target
		// Each swap removes and adds an edge of the same planted class
		// (intra- or inter-community), so the intra/inter balance — and
		// with it modularity — is not disturbed by the adjustment.
		for i := 0; i < batch; i++ {
			if raise {
				// Add a triangle-closing edge...
				w := graph.NodeID(r.IntN(n))
				nbrs := g.Neighbors(w)
				if len(nbrs) < 2 {
					continue
				}
				u, v := nbrs[r.IntN(len(nbrs))], nbrs[r.IntN(len(nbrs))]
				if u == v || g.HasEdge(u, v) {
					continue
				}
				sameClass := func(a, b graph.NodeID) bool {
					return (assign[a] == assign[b]) == (assign[u] == assign[v])
				}
				// ...paid for by removing a low-triangle edge of the same class.
				if !removeEdgeBy(g, r, sameClass, func(a, b graph.NodeID) int { return -commonNeighbors(g, a, b) }) {
					continue
				}
				_ = g.AddEdge(u, v)
			} else {
				// Remove a high-triangle edge, add a same-class edge between
				// strangers.
				u, v := graph.NodeID(r.IntN(n)), graph.NodeID(r.IntN(n))
				if u == v || g.HasEdge(u, v) || commonNeighbors(g, u, v) > 0 {
					continue
				}
				sameClass := func(a, b graph.NodeID) bool {
					return (assign[a] == assign[b]) == (assign[u] == assign[v])
				}
				if !removeEdgeBy(g, r, sameClass, func(a, b graph.NodeID) int { return commonNeighbors(g, a, b) }) {
					continue
				}
				_ = g.AddEdge(u, v)
			}
		}
	}
}

// removeEdgeBy samples a handful of edges passing the filter, scores them,
// and removes the highest-scoring one whose endpoints both keep degree >= 2.
// A nil filter accepts every edge. It reports whether an edge was removed.
func removeEdgeBy(g *graph.Graph, r *rand.Rand, filter func(u, v graph.NodeID) bool, score func(u, v graph.NodeID) int) bool {
	n := g.NumNodes()
	bestU, bestV := graph.NodeID(-1), graph.NodeID(-1)
	bestScore := 0
	found := false
	for tries := 0; tries < 32; tries++ {
		u := graph.NodeID(r.IntN(n))
		nbrs := g.Neighbors(u)
		if len(nbrs) == 0 {
			continue
		}
		v := nbrs[r.IntN(len(nbrs))]
		if g.Degree(u) <= 2 || g.Degree(v) <= 2 {
			continue
		}
		if filter != nil && !filter(u, v) {
			continue
		}
		s := score(u, v)
		if !found || s > bestScore {
			found, bestScore, bestU, bestV = true, s, u, v
		}
	}
	if !found {
		return false
	}
	return g.RemoveEdge(bestU, bestV)
}

// reconnectBySwap restores connectivity without changing the edge count:
// for every stray component it removes a removable edge inside the giant
// component and adds a bridge to the stray one.
func reconnectBySwap(g *graph.Graph, r *rand.Rand) {
	for guard := 0; guard < 64; guard++ {
		comps := g.ConnectedComponents()
		if len(comps) <= 1 {
			return
		}
		giant, stray := comps[0], comps[1]
		if !removeEdgeBy(g, r, nil, func(a, b graph.NodeID) int { return commonNeighbors(g, a, b) }) {
			// Cannot free an edge safely; add one (edge count grows by one,
			// which trimToEdgeCount-level exactness tests would catch — in
			// practice dense profiles never hit this branch).
			_ = g.AddEdge(giant[r.IntN(len(giant))], stray[r.IntN(len(stray))])
			continue
		}
		_ = g.AddEdge(giant[r.IntN(len(giant))], stray[r.IntN(len(stray))])
	}
}

// repairConnectivity joins all components to the largest one so that path
// statistics (diameter, APL) are well defined across the whole graph.
func repairConnectivity(g *graph.Graph, r *rand.Rand) {
	comps := g.ConnectedComponents()
	if len(comps) <= 1 {
		return
	}
	giant := comps[0]
	for _, comp := range comps[1:] {
		u := comp[r.IntN(len(comp))]
		v := giant[r.IntN(len(giant))]
		_ = g.AddEdge(u, v)
	}
}

// trimToEdgeCount adjusts the graph to exactly want edges. Removal prefers
// intra-community edges of well-connected nodes so connectivity is
// preserved; additions are uniform random non-edges.
func trimToEdgeCount(g *graph.Graph, assign []int, want int, r *rand.Rand) {
	n := g.NumNodes()
	for g.NumEdges() < want {
		u, v := graph.NodeID(r.IntN(n)), graph.NodeID(r.IntN(n))
		if u != v && !g.HasEdge(u, v) {
			_ = g.AddEdge(u, v)
		}
	}
	if g.NumEdges() <= want {
		return
	}
	edges := g.EdgeList()
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, e := range edges {
		if g.NumEdges() <= want {
			break
		}
		u, v := e[0], e[1]
		// Keep bridges that would disconnect low-degree nodes.
		if g.Degree(u) <= 1 || g.Degree(v) <= 1 {
			continue
		}
		if assign[u] != assign[v] {
			continue // prefer trimming intra-community edges
		}
		g.RemoveEdge(u, v)
	}
	// If still above target (everything left is inter-community or a
	// bridge), trim any removable edge.
	for _, e := range edges {
		if g.NumEdges() <= want {
			break
		}
		if g.Degree(e[0]) > 1 && g.Degree(e[1]) > 1 && g.HasEdge(e[0], e[1]) {
			g.RemoveEdge(e[0], e[1])
		}
	}
}

// assignFeatures gives each node a community-correlated feature set: every
// community has a few "home" features its members carry with high
// probability, plus uniform background features.
func assignFeatures(p Profile, assign []int, r *rand.Rand) [][]int {
	if p.FeatureKinds <= 0 {
		return make([][]int, len(assign))
	}
	k := 0
	for _, c := range assign {
		if c+1 > k {
			k = c + 1
		}
	}
	home := make([][]int, k)
	for c := range home {
		// Two home features per community.
		a := r.IntN(p.FeatureKinds)
		b := r.IntN(p.FeatureKinds)
		home[c] = []int{a, b}
	}
	out := make([][]int, len(assign))
	has := make([]bool, p.FeatureKinds) // the feature set of node n
	for n, c := range assign {
		clear(has)
		size := 0
		add := func(f int) {
			if !has[f] {
				has[f] = true
				size++
			}
		}
		for _, f := range home[c] {
			if r.Float64() < 0.7 {
				add(f)
			}
		}
		// Background features to reach the mean.
		for size < 1 || r.Float64() < (p.FeaturesPerNode-float64(size))/p.FeaturesPerNode {
			add(r.IntN(p.FeatureKinds))
			if size >= p.FeatureKinds {
				break
			}
		}
		feats := make([]int, 0, size)
		for f, in := range has {
			if in {
				feats = append(feats, f)
			}
		}
		out[n] = feats
	}
	return out
}

// ComputeStats measures the Table 1 row of a graph: exact counts and path
// statistics, plus Louvain modularity and community count.
func ComputeStats(g *graph.Graph, seed uint64) Stats {
	paths := g.Paths()
	part, q := community.Detect(g, seed)
	return Stats{
		Nodes:         g.NumNodes(),
		Edges:         g.NumEdges(),
		AvgDegree:     g.AvgDegree(),
		Diameter:      paths.Diameter,
		AvgPathLength: paths.AvgPathLength,
		AvgClustering: g.AvgClustering(),
		Modularity:    q,
		Communities:   part.NumCommunities,
	}
}

// LoadEdgeList reads a whitespace-separated edge list (the SNAP format:
// one "u v" pair per line, '#' comments allowed) and returns the graph with
// node IDs densely relabeled in first-appearance order. IDs are integers,
// so "1", "01" and "+1" name the same node.
func LoadEdgeList(src io.Reader) (*graph.Graph, error) {
	type edge struct{ u, v int }
	var edges []edge
	ids := map[int]int{}
	intern := func(raw int) int {
		if id, ok := ids[raw]; ok {
			return id
		}
		id := len(ids)
		ids[raw] = id
		return id
	}
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("socialgen: edge list line %d: want two fields, got %q", line, text)
		}
		var uv [2]int
		for i, tok := range fields[:2] {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("socialgen: edge list line %d: bad node id %q: %w", line, tok, err)
			}
			uv[i] = intern(n)
		}
		edges = append(edges, edge{uv[0], uv[1]})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("socialgen: reading edge list: %w", err)
	}
	g := graph.New(len(ids))
	for _, e := range edges {
		if e.u == e.v {
			continue // SNAP files occasionally contain self-loops; drop them
		}
		if err := g.AddEdge(graph.NodeID(e.u), graph.NodeID(e.v)); err != nil {
			return nil, err
		}
	}
	return g, nil
}
