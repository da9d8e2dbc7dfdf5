package rng

import (
	"math/rand/v2"
	"testing"
)

func TestSplit2Deterministic(t *testing.T) {
	a := Split2(7, "round", 3, 41)
	b := Split2(7, "round", 3, 41)
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("identical (seed, label, i, j) produced different streams")
		}
	}
}

func TestSplit2IndependentAcrossIndices(t *testing.T) {
	// Distinct (i, j) pairs — including swapped pairs — must yield distinct
	// streams: the parallel engine keys its sub-streams on (round, agent).
	base := Split2(7, "round", 3, 41).Uint64()
	for _, pair := range [][2]int{{3, 42}, {4, 41}, {41, 3}, {0, 0}} {
		if Split2(7, "round", pair[0], pair[1]).Uint64() == base {
			t.Fatalf("pair %v collided with (3, 41)", pair)
		}
	}
	if Split2(8, "round", 3, 41).Uint64() == base {
		t.Fatal("different seed collided")
	}
	if Split2(7, "other", 3, 41).Uint64() == base {
		t.Fatal("different label collided")
	}
}

func TestSplitIndependentAcrossNodes(t *testing.T) {
	// The parallel setup pipeline keys one Split stream per node; adjacent
	// node indices (the common case inside one worker chunk) and the same
	// index under other labels or seeds must all yield distinct streams.
	base := Split(7, "seed-experience:facebook", 100).Uint64()
	for _, idx := range []int{0, 99, 101, 1 << 20} {
		if Split(7, "seed-experience:facebook", idx).Uint64() == base {
			t.Fatalf("node %d collided with node 100", idx)
		}
	}
	if Split(8, "seed-experience:facebook", 100).Uint64() == base {
		t.Fatal("different seed collided")
	}
	if Split(7, "population-behavior:facebook", 100).Uint64() == base {
		t.Fatal("different phase label collided")
	}
	// And the stream itself is reproducible.
	a, b := Split(7, "x", 5), Split(7, "x", 5)
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("identical (seed, label, index) produced different streams")
		}
	}
}

// TestSplitIsSplit2 pins Split's streams to Split2 with j = -1 and to the
// one-index derivation every recorded Split stream was drawn from, over
// random seeds, labels and indices.
func TestSplitIsSplit2(t *testing.T) {
	r := New(1, "split-identity")
	for c := 0; c < 2000; c++ {
		seed := r.Uint64()
		label := make([]byte, r.IntN(12))
		for i := range label {
			label[i] = byte(r.IntN(256))
		}
		index := int(r.Uint64()) >> r.IntN(64)
		state := Mix(seed, string(label)) ^ (uint64(index)+1)*0x9e3779b97f4a7c15
		lo := splitmix64(&state)
		hi := splitmix64(&state)
		want := rand.New(rand.NewPCG(lo, hi))
		got, got2 := Split(seed, string(label), index), Split2(seed, string(label), index, -1)
		for k := 0; k < 4; k++ {
			w := want.Uint64()
			if a, b := got.Uint64(), got2.Uint64(); a != w || b != w {
				t.Fatalf("seed %d label %q index %d draw %d: Split %x, Split2 %x, want %x",
					seed, label, index, k, a, b, w)
			}
		}
	}
}
