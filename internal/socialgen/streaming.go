package socialgen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"

	"siot/internal/graph"
	"siot/internal/rng"
)

// This file is the large-N generation path. The calibrated small-profile
// path (generateCalibrated) leans on rejection sampling, whole-graph
// rewiring (tuneClustering), and repair passes that re-scan the edge list —
// fine at a few hundred nodes, hostile at 100k. The streaming path keeps
// the same macro-structure (skewed planted communities, friend-of-a-friend
// triangles, a peripheral chain, uniform core bridges, community-correlated
// features) but builds the graph as a flat list of packed u64 edge keys:
//
//   - connectivity is planted structurally (per-community spanning trees +
//     a spanning forest of community bridges), never repaired after the
//     fact;
//   - placement is degree-budgeted: random attachment rejects endpoints
//     already far above the profile's average degree, which keeps the
//     degree tail bounded without any trimming pass;
//   - dedup is batch-wise over sorted u64 keys (sort + compact + merge
//     scan against the sorted base) instead of per-pair HasEdge probes, so
//     reaching the exact edge count is O(E log E) total;
//   - the final graph is bulk-loaded from the sorted key list
//     (graph.NewFromSortedEdges), skipping per-insert adjacency shifting.
//
// The result is connected, simple, has exactly p.Nodes nodes and p.Edges
// edges, and is deterministic from seed. Clustering comes from the FoF
// process alone; the tuneClustering refinement (which needs whole-graph
// rescans) is deliberately not applied at this scale.

// streamingNodeThreshold is the node count at and above which Generate
// switches to the streaming path. The paper profiles (a few hundred nodes)
// and the historical 1k/10k benchmark networks stay on the calibrated
// path, so their graphs — and everything pinned to them (golden figures,
// benchmark timings) — are unchanged.
const streamingNodeThreshold = 20000

// packEdge encodes the undirected pair {u, v} as a canonical sortable key.
func packEdge(u, v graph.NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// unpackEdge reverses packEdge.
func unpackEdge(k uint64) (u, v graph.NodeID) {
	return graph.NodeID(k >> 32), graph.NodeID(uint32(k))
}

// coreCommunities is how many of k communities form the core, the rest
// being strung into the peripheral chain (all of them when the chain would
// leave no core).
func coreCommunities(k, chain int) int {
	if coreK := k - chain; coreK >= 1 {
		return coreK
	}
	return k
}

// spineEdges bounds the edges the streaming connectivity spine places
// before any budget is spent: a spanning tree per community, bridges over
// the core, two links per chain community. A profile without room for it
// cannot meet the exact-count contract (the spine is never trimmed), so
// Validate rejects it up front.
func spineEdges(nodes, k, chain int) int {
	coreK := coreCommunities(k, chain)
	return nodes - k + max(coreK-1, 0) + 2*(k-coreK)
}

// generateStreaming builds a large synthetic network for the profile,
// deterministically from seed (Generate has validated it).
func generateStreaming(p Profile, seed uint64) *Network {
	r := rng.New(seed, "socialgen-stream", p.Name)

	sizes := apportionSizes(p)
	assign := make([]int, p.Nodes)
	start := make([]int, len(sizes)+1)
	for c, s := range sizes {
		for i := 0; i < s; i++ {
			assign[start[c]+i] = c
		}
		start[c+1] = start[c] + s
	}
	coreK := coreCommunities(len(sizes), p.ChainCommunities)

	deg := make([]int32, p.Nodes)
	// Degree budget: random attachment stops feeding nodes already far
	// above the average degree, bounding the tail without a trimming pass.
	degCap := int32(8 * (2*p.Edges/p.Nodes + 1))
	keys := make([]uint64, 0, p.Edges+p.Edges/8)
	addKey := func(u, v graph.NodeID) {
		keys = append(keys, packEdge(u, v))
		deg[u]++
		deg[v]++
	}

	// Connectivity spine: a spanning tree inside every community, a
	// spanning forest of bridges over the core communities, and the
	// peripheral chain. Spine edges are placed first and survive every
	// later pass untouched, so connectivity is structural, not repaired.
	for c, s := range sizes {
		base := graph.NodeID(start[c])
		for i := 1; i < s; i++ {
			addKey(base+graph.NodeID(i), base+graph.NodeID(r.IntN(i)))
		}
	}
	for c := 1; c < coreK; c++ {
		dst := r.IntN(c) // bridge to a random earlier core community
		addKey(randMember(r, start, c), randMember(r, start, dst))
	}
	prev := r.IntN(coreK) // chain anchor in a random core community
	for c := coreK; c < len(sizes); c++ {
		for links := 0; links < 2; links++ {
			addKey(randMember(r, start, prev), randMember(r, start, c))
		}
		prev = c
	}

	// Intra-community fill: budgets ∝ s^1.5 as on the calibrated path
	// (large communities denser absolutely, sparser relatively). A FoF
	// fraction closes triangles over a community-local adjacency; an
	// Overlap fraction reaches into a random other core community, which
	// stands in for the calibrated path's overlapping circle memberships.
	// The spine (mostly intra spanning-tree edges) counts against the intra
	// fraction, and the whole fill is capped by the remaining edge budget so
	// the accumulated keys can never exceed p.Edges even for near-tree
	// profiles — dedup only ever removes, and the top-up only refills.
	targetIntra := int(p.IntraFrac*float64(p.Edges)) - len(keys)
	if rem := p.Edges - len(keys); targetIntra > rem {
		targetIntra = rem
	}
	if targetIntra > 0 {
		weights := make([]float64, len(sizes))
		var total float64
		for c, s := range sizes {
			weights[c] = float64(float64(s) * math.Sqrt(float64(s)))
			total += weights[c]
		}
		budget := targetIntra
		for c, s := range sizes {
			if s < 2 || budget <= 0 {
				continue
			}
			share := int(math.Round(float64(targetIntra) * weights[c] / total))
			if share > budget {
				share = budget
			}
			if maxC := s * (s - 1) / 2; share > maxC {
				share = maxC
			}
			budget -= fillCommunityStreaming(r, p, start, c, coreK, share, deg, degCap, addKey)
		}
	}

	// Inter-community bridges up to the exact edge budget, batch-deduped
	// over sorted keys. Every round: sort + compact the accumulated keys,
	// then draw a batch of core-to-core candidates, drop the ones already
	// present (merge scan), shuffle the survivors, and keep just enough.
	slices.Sort(keys)
	keys = slices.Compact(keys)
	for round := 0; len(keys) < p.Edges; round++ {
		if round >= 64 {
			panic(fmt.Sprintf("socialgen: streaming placement for %q stalled at %d/%d edges", p.Name, len(keys), p.Edges))
		}
		deficit := p.Edges - len(keys)
		// Late rounds (or degenerate single-core profiles) relax the
		// structural preferences — different communities, degree budget —
		// so the exact count is always reachable; simplicity and node
		// bounds stay hard constraints.
		relax := coreK < 2 || round >= 8
		batch := make([]uint64, 0, deficit+deficit/4+16)
		for i := 0; i < cap(batch); i++ {
			var u, v graph.NodeID
			if relax {
				u, v = graph.NodeID(r.IntN(p.Nodes)), graph.NodeID(r.IntN(p.Nodes))
			} else {
				u, v = randMember(r, start, r.IntN(coreK)), randMember(r, start, r.IntN(coreK))
			}
			if u == v {
				continue
			}
			if !relax && (assign[u] == assign[v] || deg[u] >= degCap || deg[v] >= degCap) {
				continue
			}
			batch = append(batch, packEdge(u, v))
		}
		slices.Sort(batch)
		batch = slices.Compact(batch)
		fresh := rejectPresent(batch, keys)
		r.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
		if len(fresh) > deficit {
			fresh = fresh[:deficit]
		}
		for _, k := range fresh {
			u, v := unpackEdge(k)
			deg[u]++
			deg[v]++
		}
		keys = append(keys, fresh...)
		slices.Sort(keys)
	}

	pairs := make([][2]graph.NodeID, len(keys))
	for i, k := range keys {
		u, v := unpackEdge(k)
		pairs[i] = [2]graph.NodeID{u, v}
	}
	g, err := graph.NewFromSortedEdges(p.Nodes, pairs)
	if err != nil {
		panic("socialgen: streaming generator produced an invalid edge list: " + err.Error())
	}
	return &Network{
		Graph:     g,
		Community: assign,
		Features:  assignFeatures(p, assign, r),
		Profile:   p,
	}
}

// apportionSizes distributes p.Nodes over p.Communities with the same
// i^-SizeSkew weighting as the calibrated path, but by deterministic
// largest-remainder apportionment instead of O(N·K) roulette sampling.
// Every community gets at least 3 members; sizes are returned descending.
func apportionSizes(p Profile) []int {
	k := max(p.Communities, 1)
	weights := make([]float64, k)
	var total float64
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -p.SizeSkew)
		total += weights[i]
	}
	sizes := make([]int, k)
	spare := p.Nodes - 3*k
	type frac struct {
		rem float64
		idx int
	}
	fracs := make([]frac, k)
	given := 0
	for i, w := range weights {
		exact := float64(spare) * w / total
		sizes[i] = 3 + int(exact)
		given += int(exact)
		fracs[i] = frac{rem: exact - math.Trunc(exact), idx: i}
	}
	sort.Slice(fracs, func(a, b int) bool {
		if fracs[a].rem != fracs[b].rem {
			return fracs[a].rem > fracs[b].rem
		}
		return fracs[a].idx < fracs[b].idx
	})
	for i := 0; i < spare-given; i++ {
		sizes[fracs[i%k].idx]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}

// randMember returns a uniform random member of community c.
func randMember(r *rand.Rand, start []int, c int) graph.NodeID {
	return graph.NodeID(start[c] + r.IntN(start[c+1]-start[c]))
}

// fillCommunityStreaming places up to want intra edges for community c over
// a community-local adjacency (for FoF triangle closure) and a local dedup
// set, with bounded attempts. It reports how many edges were placed; any
// shortfall is absorbed by the global inter-community top-up, keeping the
// total exact.
func fillCommunityStreaming(r *rand.Rand, p Profile, start []int, c, coreK, want int, deg []int32, degCap int32, addKey func(u, v graph.NodeID)) int {
	s := start[c+1] - start[c]
	base := graph.NodeID(start[c])
	local := make([][]int32, s) // local-index adjacency over this fill's own edges, grown as they place
	seen := make(map[uint64]struct{}, want+s)
	link := func(u, v graph.NodeID) {
		li, lj := int32(u-base), int32(v-base)
		local[li] = append(local[li], lj)
		local[lj] = append(local[lj], li)
	}
	overlap := c < coreK && coreK >= 2 && p.Overlap > 0
	placed := 0
	for misses := 0; placed < want && misses < 20*want+100; {
		if overlap && r.Float64() < p.Overlap*0.5 {
			// Overlapping-circle stand-in: a member reaches into a random
			// other core community. Deduped by the global batch pass, so a
			// rare collision there just shifts one edge to the top-up.
			other := r.IntN(coreK)
			if other == c {
				misses++
				continue
			}
			u, v := base+graph.NodeID(r.IntN(s)), randMember(r, start, other)
			if deg[u] >= degCap || deg[v] >= degCap {
				misses++
				continue
			}
			addKey(u, v)
			placed++
			continue
		}
		var li, lj int32
		if placed > s && r.Float64() < p.FoF {
			// Friend-of-a-friend: u -- w -- v, close the triangle u -- v.
			w := local[r.IntN(s)]
			if len(w) < 2 {
				misses++
				continue
			}
			li, lj = w[r.IntN(len(w))], w[r.IntN(len(w))]
		} else {
			li, lj = int32(r.IntN(s)), int32(r.IntN(s))
		}
		u, v := base+graph.NodeID(li), base+graph.NodeID(lj)
		if li == lj || deg[u] >= degCap || deg[v] >= degCap {
			misses++
			continue
		}
		k := packEdge(u, v)
		if _, dup := seen[k]; dup {
			misses++
			continue
		}
		seen[k] = struct{}{}
		link(u, v)
		addKey(u, v)
		placed++
	}
	return placed
}

// rejectPresent returns the elements of sorted batch that are absent from
// sorted base, by a single merge scan.
func rejectPresent(batch, base []uint64) []uint64 {
	out := batch[:0]
	i := 0
	for _, k := range batch {
		for i < len(base) && base[i] < k {
			i++
		}
		if i < len(base) && base[i] == k {
			continue
		}
		out = append(out, k)
	}
	return out
}
