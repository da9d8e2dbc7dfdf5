package sim

import (
	"math"
	"testing"

	"siot/internal/adversary"
	"siot/internal/core"
	"siot/internal/task"
)

// newModels resolves the two registered models beyond the paper's three —
// the zoo's additions.
func newModels(t *testing.T) []core.TrustModel {
	t.Helper()
	out := make([]core.TrustModel, 0, 2)
	for _, name := range []string{"hellinger-mf", "feature-weighted"} {
		m, err := core.ParseModel(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// TestSweepModelDeterminism extends the sweep's determinism
// contract to the models beyond the paper's three: for hellinger-mf
// (epoch-trained) and feature-weighted, the sweep is bit-identical at every
// worker count — the property the model-matrix golden's P=1 ≡ P=8 pin
// rests on.
func TestSweepModelDeterminism(t *testing.T) {
	p, setup := viewTestPopulation(t, 23, 5)
	checkSweepWorkers(t, p, setup, newModels(t))
}

// TestHellingerTrainWorkerDeterminism pins EpochTrainable's contract for
// the factorization model directly: tables trained on the same frozen view
// at 1, 4, and 8 workers hold bit-identical values, blocked entries (NaN)
// included, and training writes every entry of a table it is handed with
// arbitrary contents — and an edge with no experience records stays
// blocked (the factorization interpolates strength of evidence, never
// existence, which is what keeps an honest ring equivalent to no attack).
func TestHellingerTrainWorkerDeterminism(t *testing.T) {
	p, _ := viewTestPopulation(t, 23, 5)
	m, err := core.ParseModel("hellinger-mf")
	if err != nil {
		t.Fatal(err)
	}
	trainable := m.(core.EpochTrainable)
	norm := p.Config().Update.Norm
	view := p.RoundView(1, nil).TrustView
	train := func(workers int) []float64 {
		vals := make([]float64, view.NumEdges())
		for e := range vals {
			vals[e] = -1 // a pooled table's contents are arbitrary
		}
		trainable.TrainEpoch(view, norm, workers, vals)
		return vals
	}
	ref := train(1)
	for _, workers := range []int{4, 8} {
		got := train(workers)
		for e := range ref {
			if math.Float64bits(got[e]) != math.Float64bits(ref[e]) {
				t.Fatalf("workers=%d edge %d: trained %v, serial %v", workers, e, got[e], ref[e])
			}
		}
	}
	blocked, scored := 0, 0
	for e, v := range ref {
		if len(view.EdgeRecords(int32(e))) == 0 {
			if !math.IsNaN(v) {
				t.Fatalf("edge %d has no records but scored %v", e, v)
			}
			blocked++
			continue
		}
		if !(v >= 0 && v <= 1) {
			t.Fatalf("edge %d: trained score %v outside [0, 1]", e, v)
		}
		scored++
	}
	if scored == 0 {
		t.Fatal("trained table admitted no edges — fixture too small to test")
	}
	if blocked == 0 {
		t.Fatal("fixture has no evidence-less edges — blocking property untested")
	}
}

// TestModelProbeHonestRingIsNull extends the engine-level null-attack
// property to the cross-model probe: a ring running the Honest null model
// and a ring running OnOff{Duty: 1} (an attacker that never enters its
// malicious phase) must produce bit-identical PerceivedTrustModels values
// for every registered model — the like-for-like baseline the resilience
// matrix subtracts is exactly "the same machinery, minus the attack".
func TestModelProbeHonestRingIsNull(t *testing.T) {
	models := make([]core.TrustModel, 0, len(core.ModelNames()))
	for _, name := range core.ModelNames() {
		m, err := core.ParseModel(name)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	tk := task.Uniform(1, task.CharCompute)
	probe := func(model adversary.Attack) []Perceived {
		p := attackPopulation(t, 5, AttackConfig{Model: model, Attackers: 20}, 1)
		eng := NewEngine(p, "attack-test")
		var c MutualityCounters
		for round := 0; round < 20; round++ {
			eng.MutualityRound(round, tk, &c)
		}
		return eng.PerceivedTrustModels(20, tk, models)
	}
	honest := probe(adversary.Honest{})
	neverOn := probe(adversary.OnOff{Period: 10, Duty: 1})
	for mi, m := range models {
		if honest[mi] != neverOn[mi] {
			t.Fatalf("model %s: honest ring %+v != never-malicious ring %+v",
				m.Name(), honest[mi], neverOn[mi])
		}
		if honest[mi].Honest <= 0 || honest[mi].Attacker <= 0 {
			t.Fatalf("model %s: degenerate probe %+v (no candidates scored)", m.Name(), honest[mi])
		}
	}
}
