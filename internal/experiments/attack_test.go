package experiments

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"siot/internal/adversary"
)

// scaledAttackConfig shrinks the default scenario for test speed.
func scaledAttackConfig(model adversary.Attack) AttackScenarioConfig {
	cfg := DefaultAttackConfig(model)
	cfg.Network = "twitter" // smallest evaluation network
	cfg.Rounds = 60
	cfg.Attackers = 20
	return cfg
}

func TestAttackScenarioShapes(t *testing.T) {
	for _, model := range []adversary.Attack{
		adversary.BadMouthing{},
		adversary.BallotStuffing{},
		adversary.SelfPromotion{},
		adversary.OnOff{Period: 16, Duty: 0.5},
		adversary.Whitewashing{RejoinEvery: 20},
		adversary.Collusion{Of: adversary.BadMouthing{}},
	} {
		t.Run(model.Name(), func(t *testing.T) {
			res := RunAttack(Options{Seed: 7}, scaledAttackConfig(model))
			noShapeErrors(t, res.ShapeCheck())
			if len(res.TrustGap.Y) != 60 || len(res.BaselineSuccess.Y) != 60 {
				t.Fatalf("series lengths %d/%d, want 60", len(res.TrustGap.Y), len(res.BaselineSuccess.Y))
			}
			if len(res.Charts()) != 2 {
				t.Fatalf("charts = %d, want 2", len(res.Charts()))
			}
		})
	}
}

// TestAttackRegistryEntries checks the four registered attack experiments
// at default scale and the golden seed and requires the acceptance
// property: every one shows a nonzero resilience metric (trust gap or
// success degradation). It reads the P=8 results TestGoldenFigures pins
// (runGolden computes each once per process).
func TestAttackRegistryEntries(t *testing.T) {
	for _, name := range []string{"attack-badmouth", "attack-onoff", "attack-whitewash", "attack-collusion"} {
		t.Run(name, func(t *testing.T) {
			res := runGolden(t, name, goldenSeed, 8)
			ar, ok := res.(AttackResult)
			if !ok {
				t.Fatalf("%s returned %T, want AttackResult", name, res)
			}
			noShapeErrors(t, ar.ShapeCheck())
			if ar.Resilience.TrustGap == 0 && ar.Resilience.MinTrustGap == 0 && ar.Resilience.SuccessDegradation == 0 {
				t.Fatalf("%s: all resilience metrics are zero: %+v", name, ar.Resilience)
			}
		})
	}
}

func TestRunUnknownExperimentSentinel(t *testing.T) {
	_, err := Run("no-such-experiment", 1)
	if err == nil {
		t.Fatal("expected an error")
	}
	if !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("error %v does not wrap ErrUnknownExperiment", err)
	}
	if !strings.Contains(err.Error(), "no-such-experiment") {
		t.Fatalf("error %v does not name the experiment", err)
	}
}

func TestNamesSortedAndCollisionFree(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			t.Fatalf("duplicate experiment name %q", names[i])
		}
	}
	for _, name := range []string{"attack-badmouth", "attack-onoff", "attack-whitewash", "attack-collusion"} {
		i := sort.SearchStrings(names, name)
		if i >= len(names) || names[i] != name {
			t.Fatalf("registry missing %q: %v", name, names)
		}
	}
}
