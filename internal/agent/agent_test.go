package agent

import (
	"math"
	"testing"

	"siot/internal/core"
	"siot/internal/rng"
	"siot/internal/task"
)

func TestCharCompetenceFallbackAndOverride(t *testing.T) {
	b := Behavior{
		BaseCompetence: 0.6,
		Competence:     map[task.Characteristic]float64{task.CharGPS: 0.9},
	}
	if got := b.CharCompetence(task.CharGPS); got != 0.9 {
		t.Fatalf("override = %v", got)
	}
	if got := b.CharCompetence(task.CharImage); got != 0.6 {
		t.Fatalf("fallback = %v", got)
	}
}

func TestCharCompetenceMalice(t *testing.T) {
	b := Behavior{
		BaseCompetence: 0.8,
		Malice:         MaliceCharacteristic,
		MaliceChars:    map[task.Characteristic]bool{task.CharImage: true},
	}
	if got := b.CharCompetence(task.CharGPS); got != 0.8 {
		t.Fatalf("unaffected characteristic degraded: %v", got)
	}
	if got := b.CharCompetence(task.CharImage); got > 0.2 {
		t.Fatalf("malicious characteristic competence = %v, want collapsed", got)
	}
}

func TestTaskCompetenceWeighted(t *testing.T) {
	b := Behavior{
		Competence: map[task.Characteristic]float64{
			task.CharGPS:   1.0,
			task.CharImage: 0.0,
		},
	}
	tk := task.MustNew(1, map[task.Characteristic]float64{
		task.CharGPS:   3,
		task.CharImage: 1,
	})
	if got := b.TaskCompetence(tk); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("task competence = %v, want 0.75", got)
	}
}

func TestUsesAbusivelyRate(t *testing.T) {
	b := Behavior{Responsibility: 0.8}
	r := rng.New(1, "abuse")
	abusive := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if b.UsesAbusively(r) {
			abusive++
		}
	}
	rate := float64(abusive) / n
	if math.Abs(rate-0.2) > 0.02 {
		t.Fatalf("abuse rate = %v, want ~0.2", rate)
	}
}

func TestActSuccessRateTracksCompetenceAndEnv(t *testing.T) {
	a := New(1, KindTrustee, Behavior{BaseCompetence: 0.8}, core.DefaultUpdateConfig())
	tk := task.Uniform(1, task.CharGPS)
	r := rng.New(2, "act")
	succ := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if a.Act(tk, 0.5, r).Success {
			succ++
		}
	}
	rate := float64(succ) / n
	if math.Abs(rate-0.4) > 0.02 { // 0.8 competence × 0.5 environment
		t.Fatalf("success rate = %v, want ~0.4", rate)
	}
}

func TestActOutcomeShape(t *testing.T) {
	a := New(1, KindTrustee, Behavior{BaseCompetence: 0.9}, core.DefaultUpdateConfig())
	tk := task.Uniform(1, task.CharGPS)
	r := rng.New(3, "shape")
	for i := 0; i < 1000; i++ {
		o := a.Act(tk, 1, r)
		if o.Success && o.Damage != 0 {
			t.Fatal("success carries damage")
		}
		if !o.Success && o.Gain != 0 {
			t.Fatal("failure carries gain")
		}
		if o.Cost <= 0 {
			t.Fatal("interaction without cost")
		}
		for _, v := range [...]float64{o.Gain, o.Damage, o.Cost} {
			if v < 0 || v > 1 {
				t.Fatalf("outcome component out of range: %+v", o)
			}
		}
	}
}

func TestFragmentStallInflatesCost(t *testing.T) {
	honest := New(1, KindTrustee, Behavior{BaseCompetence: 0.9}, core.DefaultUpdateConfig())
	staller := New(2, KindDishonestTrustee, Behavior{
		BaseCompetence: 0.9,
		Malice:         MaliceFragmentStall,
		StallCost:      0.6,
	}, core.DefaultUpdateConfig())
	tk := task.Uniform(1, task.CharGPS)
	r := rng.New(4, "stall")
	oh := honest.Act(tk, 1, r)
	os := staller.Act(tk, 1, r)
	if os.Cost <= oh.Cost {
		t.Fatalf("stall cost %v not above honest %v", os.Cost, oh.Cost)
	}
}

func TestOpportunistFailsMoreOften(t *testing.T) {
	honest := New(1, KindTrustee, Behavior{BaseCompetence: 0.9}, core.DefaultUpdateConfig())
	opp := New(2, KindDishonestTrustee, Behavior{
		BaseCompetence: 0.9,
		Malice:         MaliceOpportunist,
	}, core.DefaultUpdateConfig())
	tk := task.Uniform(1, task.CharGPS)
	count := func(a *Agent, label string) int {
		r := rng.New(5, label)
		succ := 0
		for i := 0; i < 5000; i++ {
			if a.Act(tk, 1, r).Success {
				succ++
			}
		}
		return succ
	}
	if count(opp, "opp") >= count(honest, "honest") {
		t.Fatal("opportunist succeeded as often as honest agent")
	}
}

func TestKindAndMaliceStrings(t *testing.T) {
	if KindTrustor.String() != "trustor" || KindDishonestTrustee.String() != "dishonest-trustee" {
		t.Fatal("kind strings wrong")
	}
	if Kind(42).String() != "unknown" {
		t.Fatal("unknown kind string wrong")
	}
	if MaliceFragmentStall.String() != "fragment-stall" || Malice(42).String() != "unknown" {
		t.Fatal("malice strings wrong")
	}
}

func TestAgentString(t *testing.T) {
	a := New(7, KindTrustee, Behavior{}, core.DefaultUpdateConfig())
	if a.String() != "agent#7(trustee)" {
		t.Fatalf("String = %q", a.String())
	}
}
