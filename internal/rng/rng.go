// Package rng provides deterministic, independently seeded random-number
// streams for simulations.
//
// Every experiment in this repository is reproducible: a run is identified by
// a single uint64 seed, and every component (network generation, agent
// behavior, task arrival, environment noise, ...) derives its own independent
// stream from that seed plus a string label. Derivation uses splitmix64 over
// an FNV-1a hash of the label, a construction with well-distributed outputs
// that guarantees two distinct labels yield decorrelated PCG streams.
package rng

import (
	"hash/fnv"
	"math/rand/v2"
)

// splitmix64 advances the given state and returns a well-mixed 64-bit value.
// It is the standard seeding mixer recommended for PCG/xoshiro generators.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix returns a mixed 64-bit value derived from seed and the labels. It is
// the key-derivation function behind New and can be used directly when a raw
// sub-seed is needed (for example to seed a remote worker).
func Mix(seed uint64, labels ...string) uint64 {
	h := fnv.New64a()
	for _, l := range labels {
		// The write to an FNV hash never fails.
		_, _ = h.Write([]byte(l))
		_, _ = h.Write([]byte{0})
	}
	state := seed ^ h.Sum64()
	return splitmix64(&state)
}

// New returns a deterministic generator derived from seed and an optional
// chain of labels. Calls with the same arguments always return generators
// that produce identical sequences; generators with different labels are
// statistically independent.
func New(seed uint64, labels ...string) *rand.Rand {
	state := Mix(seed, labels...)
	lo := splitmix64(&state)
	hi := splitmix64(&state)
	return rand.New(rand.NewPCG(lo, hi))
}

// Split derives a child generator from a parent seed with an index, for use
// in loops that need one independent stream per iteration (per experiment
// run, per agent, ...). It is the sub-stream behind the parallel setup
// pipeline: sim.NewPopulation and the seeding passes key one stream per
// node on (seed, phase label, node), so work sharded across goroutines
// draws identical randomness regardless of execution order — the same
// recipe Split2 provides for the engine's (round, agent) rounds. It is
// Split2 with j = -1, whose term (uint64(-1)+1)*… is 0.
func Split(seed uint64, label string, index int) *rand.Rand {
	return Split2(seed, label, index, -1)
}

// Split2 derives a child generator from a parent seed with two indices — the
// (round, agent) sub-streams of the parallel simulation engine. Each
// (label, i, j) triple yields an independent stream, so work sharded across
// goroutines draws identical randomness regardless of execution order.
func Split2(seed uint64, label string, i, j int) *rand.Rand {
	state := Mix(seed, label) ^ (uint64(i)+1)*0x9e3779b97f4a7c15 ^ (uint64(j)+1)*0xbf58476d1ce4e5b9
	lo := splitmix64(&state)
	hi := splitmix64(&state)
	return rand.New(rand.NewPCG(lo, hi))
}
