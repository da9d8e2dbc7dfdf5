// Package benchnet builds the standard benchmark networks shared by the go
// test benchmarks (bench_test.go) and the benchmark/ workloads: one
// canonical community-structured profile per node count, with experience
// records seeded for the transitivity sweeps.
package benchnet

import (
	"fmt"

	"siot/internal/sim"
	"siot/internal/socialgen"
)

// Seed is the canonical benchmark seed; every benchmark network derives
// from it so numbers are comparable across runs and PRs.
const Seed = 42

// Profile returns the canonical benchmark network profile for a node
// count: average degree 16, community-structured, with the same mixing
// fractions at every scale (the 1k profile is the historical "bench1k"
// network of BenchmarkRoundsSerial, unchanged).
func Profile(nodes int) socialgen.Profile {
	communities := nodes / 80
	if communities < 4 {
		communities = 4
	}
	return socialgen.Profile{
		Name:  fmt.Sprintf("bench%dk", nodes/1000),
		Nodes: nodes, Edges: 8 * nodes,
		Communities: communities, IntraFrac: 0.7, FoF: 0.5, SizeSkew: 1.0,
		Overlap: 0.2, ChainCommunities: 1, FeatureKinds: 6, FeaturesPerNode: 2,
	}
}

// Net100k is the canonical 100k-node benchmark profile: 500k edges
// (average degree 10, the scale-out regime the ROADMAP's 100k milestone
// targets), community-structured like the smaller profiles. It generates
// on socialgen's streaming large-N path.
func Net100k() socialgen.Profile {
	return socialgen.Profile{
		Name:  "bench100k",
		Nodes: 100_000, Edges: 500_000,
		Communities: 1250, IntraFrac: 0.7, FoF: 0.5, SizeSkew: 1.0,
		Overlap: 0.2, ChainCommunities: 1, FeatureKinds: 6, FeaturesPerNode: 2,
	}
}

// Net1M is the canonical million-node benchmark profile: 1M nodes and 6M
// edges (average degree 12, within the ROADMAP's 5–10M-edge frontier band),
// community-structured like every smaller profile. It generates on
// socialgen's streaming path and is the network behind BenchmarkSweep1M
// and the CI scale-smoke job.
func Net1M() socialgen.Profile {
	return socialgen.Profile{
		Name:  "bench1m",
		Nodes: 1_000_000, Edges: 6_000_000,
		Communities: 12_500, IntraFrac: 0.7, FoF: 0.5, SizeSkew: 1.0,
		Overlap: 0.2, ChainCommunities: 1, FeatureKinds: 6, FeaturesPerNode: 2,
	}
}

// Population builds the benchmark population at the given node count with
// transitivity experience seeded (5-characteristic alphabet, depth-3
// chains), ready for delegation rounds and transitivity sweeps.
func Population(nodes int) (*sim.Population, sim.TransitivitySetup) {
	return PopulationFor(Profile(nodes))
}

// Population100k builds the canonical 100k-node benchmark population.
func Population100k() (*sim.Population, sim.TransitivitySetup) {
	return PopulationFor(Net100k())
}

// Population1M builds the canonical million-node benchmark population.
func Population1M() (*sim.Population, sim.TransitivitySetup) {
	return PopulationFor(Net1M())
}

// PopulationFor builds the seeded benchmark population over any profile.
func PopulationFor(profile socialgen.Profile) (*sim.Population, sim.TransitivitySetup) {
	return Populate(socialgen.Generate(profile, Seed))
}

// Populate builds the seeded benchmark population over an already
// generated network — the populate+seed half of PopulationFor, split out
// so the setup benchmarks (BenchmarkSetup100k, BenchmarkSweep1M) can time
// it without re-generating the network every op.
func Populate(net *socialgen.Network) (*sim.Population, sim.TransitivitySetup) {
	p := sim.NewPopulation(net, sim.DefaultPopulationConfig(Seed))
	setup := sim.DefaultTransitivitySetup(5, p.Rand("bench-rounds"))
	setup.MaxDepth = 3
	sim.SeedExperience(p, setup, Seed)
	return p, setup
}
