package core

import (
	"math"
	"testing"
	"testing/quick"

	"siot/internal/rng"
	"siot/internal/task"
)

// Property tests on the trust-model invariants.

func TestPropertyUpdateIsContraction(t *testing.T) {
	// Two different histories fed the same observation stream converge:
	// |e1 − e2| shrinks by the factor β per step, so initial disagreement
	// is forgotten geometrically. This is the property that makes the
	// trustworthiness update self-stabilizing.
	f := func(seed uint64, s1, s2 float64) bool {
		cfg := DefaultUpdateConfig()
		r := rng.New(seed, "contraction")
		e1 := Expectation{S: math.Mod(math.Abs(s1), 1)}
		e2 := Expectation{S: math.Mod(math.Abs(s2), 1)}
		gap0 := math.Abs(e1.S - e2.S)
		for i := 0; i < 50; i++ {
			obs := Outcome{Success: r.Float64() < 0.5, Gain: r.Float64(), Damage: r.Float64(), Cost: r.Float64()}
			e1 = Update(e1, obs, PerfectEnv(), cfg)
			e2 = Update(e2, obs, PerfectEnv(), cfg)
		}
		gap := math.Abs(e1.S - e2.S)
		want := gap0 * math.Pow(cfg.Betas.S, 50)
		return gap <= want+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyInferenceWithinRecordBounds(t *testing.T) {
	// The inferred trustworthiness of any task lies within the min/max
	// trustworthiness of the records it draws on — inference interpolates,
	// never extrapolates.
	f := func(seed uint64, nRecs uint8) bool {
		r := rng.New(seed, "infer-bounds")
		n := int(nRecs%5) + 1
		s := NewStore(1, DefaultUpdateConfig())
		lo, hi := 1.0, 0.0
		for i := 0; i < n; i++ {
			tw := r.Float64()
			// Expectation with TW == normalize(profit): pick S=1, G, C to
			// hit profit 3*tw-2 under the unit normalizer.
			profit := 3*tw - 2
			exp := Expectation{S: 1, G: math.Max(profit, 0), C: math.Max(-profit, 0)}
			chars := []task.Characteristic{task.Characteristic(r.IntN(4))}
			if r.IntN(2) == 0 {
				c2 := task.Characteristic(r.IntN(4))
				if c2 != chars[0] {
					chars = append(chars, c2)
				}
			}
			s.Seed(7, task.Uniform(task.Type(i), chars...), exp)
			got := exp.Trustworthiness(UnitNormalizer())
			if got < lo {
				lo = got
			}
			if got > hi {
				hi = got
			}
		}
		probe := task.Uniform(99, 0, 1, 2, 3)
		tw, ok := s.InferTW(7, probe)
		if !ok {
			return true // not all characteristics covered: nothing to check
		}
		return tw >= lo-1e-9 && tw <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertySearcherDeterministic(t *testing.T) {
	// Identical searches return identical results, including candidate
	// order: required for reproducibility and for fair method comparisons.
	f := newFakeNet()
	r := rng.New(3, "searcher-det")
	const n = 30
	for i := 0; i < 80; i++ {
		u, v := AgentID(r.IntN(n)), AgentID(r.IntN(n))
		if u != v {
			f.edge(u, v)
			f.record(u, v, task.Uniform(task.Type(r.IntN(4)), task.Characteristic(r.IntN(3))), r.Float64())
		}
	}
	s := f.searcher(3, 0.3, 0.3)
	probe := task.Uniform(9, 0, 1)
	for _, m := range []TrustModel{Traditional, Conservative, Aggressive} {
		a := s.Find(0, probe, m)
		b := s.Find(0, probe, m)
		if a.Inquired != b.Inquired || len(a.Candidates) != len(b.Candidates) {
			t.Fatalf("%s: nondeterministic result shape", m.Name())
		}
		for i := range a.Candidates {
			if a.Candidates[i] != b.Candidates[i] {
				t.Fatalf("%s: candidate %d differs", m.Name(), i)
			}
		}
	}
}

func TestPropertyAggressiveContainsConservative(t *testing.T) {
	// With ω1 = ω2 = 0, every conservative candidate is an aggressive
	// candidate (the containment behind Fig. 11), on random networks.
	f := func(seed uint64) bool {
		net := newFakeNet()
		r := rng.New(seed, "containment")
		const n = 25
		for i := 0; i < 70; i++ {
			u, v := AgentID(r.IntN(n)), AgentID(r.IntN(n))
			if u == v {
				continue
			}
			net.edge(u, v)
			chars := []task.Characteristic{task.Characteristic(r.IntN(3))}
			if r.IntN(2) == 0 {
				chars = append(chars, task.Characteristic(3))
			}
			net.record(u, v, task.Uniform(task.Type(r.IntN(5)), chars...), r.Float64())
		}
		s := net.searcher(3, 0, 0)
		probe := task.Uniform(9, 0, 3)
		cons := s.Find(0, probe, Conservative)
		aggr := s.Find(0, probe, Aggressive)
		aggrSet := map[AgentID]bool{}
		for _, c := range aggr.Candidates {
			aggrSet[c.ID] = true
		}
		for _, c := range cons.Candidates {
			if !aggrSet[c.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertySelectMutualNeverInventsCandidates(t *testing.T) {
	f := func(tws []float64) bool {
		if len(tws) > 12 {
			tws = tws[:12]
		}
		cands := make([]Candidate, len(tws))
		valid := map[AgentID]bool{}
		for i, tw := range tws {
			cands[i] = Candidate{ID: AgentID(i), TW: tw}
			valid[AgentID(i)] = true
		}
		got, ok := SelectMutual(cands, nil)
		if !ok {
			return len(cands) == 0
		}
		return valid[got.ID]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
