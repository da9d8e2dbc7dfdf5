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

// sweep captures a fresh epoch at the given worker count and plays one run
// of the model on it.
func sweep(p *Population, setup TransitivitySetup, m core.TrustModel, seed uint64, workers int) TransitivityStats {
	ep := (&Engine{Pop: p, Parallelism: workers}).TransitivityEpoch(setup)
	defer ep.Release()
	return ep.RunModel(m, seed)
}

// checkSweepWorkers pins the sweep's determinism contract for each model:
// the serial run is bit-identical to runs at 4 and 8 workers and at more
// workers than trustors, and to both runs of a reused epoch, whose second
// run reads the memo tables the first one built.
func checkSweepWorkers(t *testing.T, p *Population, setup TransitivitySetup, models []core.TrustModel) {
	t.Helper()
	for _, m := range models {
		want := sweep(p, setup, m, 77, 1)
		if want.Requests == 0 {
			t.Fatalf("%s: sweep made no requests — fixture too small to test", m.Name())
		}
		for _, workers := range []int{4, 8, len(p.Trustors) + 1} {
			got := sweep(p, setup, m, 77, workers)
			assertSameStats(t, fmt.Sprintf("%s workers=%d", m.Name(), workers), want, got)
		}
		eng := NewEngine(p, "sweep-test")
		eng.Parallelism = 4
		ep := eng.TransitivityEpoch(setup)
		assertSameStats(t, fmt.Sprintf("%s epoch run 1", m.Name()), want, ep.RunModel(m, 77))
		assertSameStats(t, fmt.Sprintf("%s epoch run 2", m.Name()), want, ep.RunModel(m, 77))
		ep.Release()
	}
}

// TestSweepWorkerEquivalence pins the sweep's determinism recipe for the
// paper's three models: bit-identical statistics at every worker count,
// fresh epoch or reused.
func TestSweepWorkerEquivalence(t *testing.T) {
	p, setup := viewTestPopulation(t, 23, 5)
	if len(p.Trustors) < 10 {
		t.Fatalf("fixture too small: %d trustors", len(p.Trustors))
	}
	checkSweepWorkers(t, p, setup, []core.TrustModel{core.Traditional, core.Conservative, core.Aggressive})
}
