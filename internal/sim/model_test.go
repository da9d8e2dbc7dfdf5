package sim

import (
	"fmt"
	"testing"

	"siot/internal/adversary"
	"siot/internal/core"
	"siot/internal/task"
)

// newModels resolves the two non-adapter registered models — the zoo's
// additions beyond the paper's three policies.
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

// TestSweepShardedModelDeterminism extends the sharded-sweep determinism
// contract to the non-adapter models: for hellinger-mf (epoch-trained) and
// feature-weighted, the sweep is bit-identical at every worker count and
// shard width — the property the model-matrix golden's P=1 ≡ P=8 pin
// rests on.
func TestSweepShardedModelDeterminism(t *testing.T) {
	p, setup := viewTestPopulation(t, 23, 5)
	for _, m := range newModels(t) {
		want := sweepSharded(p, setup, m, 77, 1, 0)
		if want.Requests == 0 {
			t.Fatalf("%s: sweep made no requests — fixture too small to test", m.Name())
		}
		for _, shard := range []int{7, 64, len(p.Trustors) + 1} {
			for _, workers := range []int{1, 4, 8} {
				got := sweepSharded(p, setup, m, 77, workers, shard)
				assertSameStats(t, fmt.Sprintf("%s shard=%d workers=%d", m.Name(), shard, workers), want, got)
			}
		}
	}
}

// TestHellingerTrainWorkerDeterminism pins EpochTrainable's contract for
// the factorization model directly: scorers trained on the same frozen
// view at 1, 4, and 8 workers return bit-identical edge scores — and an
// edge with no experience records stays blocked (the factorization
// interpolates strength of evidence, never existence, which is what keeps
// an honest ring equivalent to no attack).
func TestHellingerTrainWorkerDeterminism(t *testing.T) {
	p, setup := viewTestPopulation(t, 23, 5)
	m, err := core.ParseModel("hellinger-mf")
	if err != nil {
		t.Fatal(err)
	}
	trainable := m.(core.EpochTrainable)
	norm := p.Config().Update.Norm
	view := p.RoundView(1, nil).TrustView
	probes := []task.Task{
		setup.Universe.Tasks[0],
		task.Uniform(99, task.CharGPS, task.CharCompute),
	}
	ref := trainable.TrainEpoch(view, norm, 1)
	blocked, scored := 0, 0
	for _, workers := range []int{4, 8} {
		got := trainable.TrainEpoch(view, norm, workers)
		for e := int32(0); e < int32(view.NumEdges()); e++ {
			for _, tk := range probes {
				wantV, wantOK := ref.EdgeTW(view, e, tk)
				gotV, gotOK := got.EdgeTW(view, e, tk)
				if gotV != wantV || gotOK != wantOK {
					t.Fatalf("workers=%d edge %d task %d: EdgeTW = (%v, %v), serial (%v, %v)",
						workers, e, tk.Type(), gotV, gotOK, wantV, wantOK)
				}
			}
		}
	}
	for e := int32(0); e < int32(view.NumEdges()); e++ {
		v, ok := ref.EdgeTW(view, e, probes[0])
		if len(view.EdgeRecords(e)) == 0 {
			if ok {
				t.Fatalf("edge %d has no records but scored %v", e, v)
			}
			blocked++
			continue
		}
		if ok {
			if v < 0 || v > 1 {
				t.Fatalf("edge %d: trained score %v outside [0, 1]", e, v)
			}
			scored++
		}
	}
	if scored == 0 {
		t.Fatal("trained scorer admitted no edges — fixture too small to test")
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
