package sim

import (
	"fmt"
	"testing"

	"siot/internal/core"
)

// assertSameStats requires two transitivity runs to be bit-identical:
// every counter and the full per-trustor inquiry trace.
func assertSameStats(t *testing.T, label string, want, got TransitivityStats) {
	t.Helper()
	if want.Requests != got.Requests || want.Successes != got.Successes ||
		want.Unavailable != got.Unavailable || want.PotentialTrustees != got.PotentialTrustees {
		t.Fatalf("%s: stats %+v, want %+v", label, got, want)
	}
	if len(want.InquiredPerTrustor) != len(got.InquiredPerTrustor) {
		t.Fatalf("%s: %d inquiry entries, want %d", label, len(got.InquiredPerTrustor), len(want.InquiredPerTrustor))
	}
	for i := range want.InquiredPerTrustor {
		if want.InquiredPerTrustor[i] != got.InquiredPerTrustor[i] {
			t.Fatalf("%s: inquired[%d] = %d, want %d", label, i, got.InquiredPerTrustor[i], want.InquiredPerTrustor[i])
		}
	}
}

// sweepSharded captures a fresh epoch at the given worker count and plays
// one sharded run of the model on it.
func sweepSharded(p *Population, setup TransitivitySetup, m core.TrustModel, seed uint64, workers, shard int) TransitivityStats {
	ep := (&Engine{Pop: p, Parallelism: workers}).TransitivityEpoch(setup)
	defer ep.Release()
	return ep.SweepShardedModel(m, seed, shard)
}

// TestSweepShardedEquivalence pins the streaming-sweep contract: the sharded
// sweep is bit-identical to the monolithic run at every shard width (one
// trustor per shard, a width that does not divide the trustor count, one
// giant shard) crossed with every worker count — the determinism recipe the
// million-node path rests on.
func TestSweepShardedEquivalence(t *testing.T) {
	p, setup := viewTestPopulation(t, 23, 5)
	if len(p.Trustors) < 10 {
		t.Fatalf("fixture too small: %d trustors", len(p.Trustors))
	}
	for _, m := range []core.TrustModel{core.Traditional, core.Conservative, core.Aggressive} {
		// Reference: one shard, serial.
		want := sweepSharded(p, setup, m, 77, 1, 0)
		for _, shard := range []int{1, 7, 64, len(p.Trustors) + 1} {
			for _, workers := range []int{1, 8} {
				got := sweepSharded(p, setup, m, 77, workers, shard)
				assertSameStats(t, fmt.Sprintf("%s shard=%d workers=%d", m.Name(), shard, workers), want, got)
			}
		}
		// RunModel (default width) and a reused epoch route through the
		// same sharded implementation and must match.
		eng := NewEngine(p, "sweep-test")
		eng.Parallelism = 4
		ep := eng.TransitivityEpoch(setup)
		assertSameStats(t, fmt.Sprintf("%s epoch default-shard", m.Name()), want, ep.RunModel(m, 77))
		assertSameStats(t, fmt.Sprintf("%s epoch shard=13", m.Name()), want, ep.SweepShardedModel(m, 77, 13))
		ep.Release()
	}
}
