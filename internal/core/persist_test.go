package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"siot/internal/rng"
	"siot/internal/task"
)

func populatedStore() *Store {
	s := NewStore(7, DefaultUpdateConfig())
	gps := task.Uniform(1, task.CharGPS)
	mixed := task.MustNew(2, map[task.Characteristic]float64{
		task.CharGPS:   3,
		task.CharImage: 1,
	})
	for i := 0; i < 12; i++ {
		s.Observe(2, gps, Outcome{Success: true, Gain: 0.8, Cost: 0.1}, PerfectEnv())
		s.Observe(3, mixed, Outcome{Success: i%3 != 0, Gain: 0.6, Damage: 0.4, Cost: 0.2}, PerfectEnv())
	}
	s.ObserveUsage(9, false)
	s.ObserveUsage(9, true)
	s.ObserveUsage(11, false)
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	orig := populatedStore()
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadStore(&buf, DefaultUpdateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if restored.Owner() != orig.Owner() {
		t.Fatal("owner lost")
	}
	// Records survive with expectations, counts, and task weights.
	for _, trustee := range orig.Trustees() {
		origRecs := orig.Records(trustee)
		gotRecs := restored.Records(trustee)
		if len(gotRecs) != len(origRecs) {
			t.Fatalf("trustee %d: %d records, want %d", trustee, len(gotRecs), len(origRecs))
		}
		for i := range origRecs {
			o, g := origRecs[i], gotRecs[i]
			if o.Count != g.Count {
				t.Fatalf("count %d != %d", g.Count, o.Count)
			}
			if math.Abs(o.Exp.S-g.Exp.S) > 1e-12 || math.Abs(o.Exp.C-g.Exp.C) > 1e-12 {
				t.Fatalf("expectation drifted: %+v vs %+v", g.Exp, o.Exp)
			}
			for _, c := range o.Task.Characteristics() {
				if math.Abs(o.Task.Weight(c)-g.Task.Weight(c)) > 1e-12 {
					t.Fatalf("task weight drifted for characteristic %d", c)
				}
			}
		}
	}
	// Usage logs survive.
	if restored.ReverseTW(9) != orig.ReverseTW(9) {
		t.Fatal("usage log drifted")
	}
	if restored.ReverseTW(11) != orig.ReverseTW(11) {
		t.Fatal("usage log drifted")
	}
	// The restored store keeps learning.
	tk := task.Uniform(1, task.CharGPS)
	restored.Observe(2, tk, Outcome{Success: true, Gain: 1}, PerfectEnv())
	r, _ := restored.Record(2, 1)
	if r.Count != 13 {
		t.Fatalf("restored store count = %d, want 13", r.Count)
	}
}

func TestSaveIsDeterministic(t *testing.T) {
	a, b := populatedStore(), populatedStore()
	var ba, bb bytes.Buffer
	if err := a.Save(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&bb); err != nil {
		t.Fatal(err)
	}
	if ba.String() != bb.String() {
		t.Fatal("identical stores serialized differently")
	}
}

func TestLoadStoreRejectsGarbage(t *testing.T) {
	if _, err := LoadStore(strings.NewReader("not json"), DefaultUpdateConfig()); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadStoreRejectsWrongVersion(t *testing.T) {
	src := `{"version": 99, "owner": 1, "records": [], "usage": []}`
	if _, err := LoadStore(strings.NewReader(src), DefaultUpdateConfig()); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestLoadStoreRejectsMalformedTask(t *testing.T) {
	src := `{"version": 1, "owner": 1, "records": [
		{"trustee": 2, "task": {"type": 1, "chars": [0], "weights": []},
		 "s": 0.5, "g": 0.5, "d": 0.5, "c": 0.5, "count": 1}
	], "usage": []}`
	if _, err := LoadStore(strings.NewReader(src), DefaultUpdateConfig()); err == nil {
		t.Fatal("mismatched chars/weights accepted")
	}
	src = `{"version": 1, "owner": 1, "records": [
		{"trustee": 2, "task": {"type": 1, "chars": [0], "weights": [-1]},
		 "s": 0.5, "g": 0.5, "d": 0.5, "c": 0.5, "count": 1}
	], "usage": []}`
	if _, err := LoadStore(strings.NewReader(src), DefaultUpdateConfig()); err == nil {
		t.Fatal("negative weight accepted")
	}
	src = `{"version": 1, "owner": 1, "records": [
		{"trustee": 2, "task": {"type": 1, "chars": [0, 0], "weights": [0.5, 0.5]},
		 "s": 0.5, "g": 0.5, "d": 0.5, "c": 0.5, "count": 1}
	], "usage": []}`
	if _, err := LoadStore(strings.NewReader(src), DefaultUpdateConfig()); err == nil {
		t.Fatal("duplicate characteristic accepted")
	}
}

// TestSaveLoadKeepsTaskBits saves a store holding one record per task of a
// 200-type universe over 5 characteristics and checks that every reloaded
// task is Equal to its original: reloading keeps saved weights bit for bit
// instead of normalizing them again.
func TestSaveLoadKeepsTaskBits(t *testing.T) {
	u := task.NewUniverse(200, 5, rng.New(1, "persist-universe"))
	orig := NewStore(1, DefaultUpdateConfig())
	for i, tk := range u.Tasks {
		orig.Seed(AgentID(2+i%7), tk, Expectation{S: 0.5, G: 0.5, D: 0.5})
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadStore(&buf, DefaultUpdateConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, trustee := range orig.Trustees() {
		origRecs, gotRecs := orig.Records(trustee), restored.Records(trustee)
		if len(gotRecs) != len(origRecs) {
			t.Fatalf("trustee %d: %d records, want %d", trustee, len(gotRecs), len(origRecs))
		}
		for i := range origRecs {
			if !gotRecs[i].Task.Equal(origRecs[i].Task) {
				t.Errorf("trustee %d: task %v reloaded as %v", trustee, origRecs[i].Task.Weights(), gotRecs[i].Task.Weights())
			}
		}
	}
}

func TestLoadStoreRejectsNegativeUsage(t *testing.T) {
	src := `{"version": 1, "owner": 1, "records": [],
		"usage": [{"trustor": 3, "responsible": -1, "abusive": 0}]}`
	if _, err := LoadStore(strings.NewReader(src), DefaultUpdateConfig()); err == nil {
		t.Fatal("negative usage counts accepted")
	}
}

// TestLoadStoreRejectsOutOfRangeCount pins that a delegation count the
// compact record cannot hold is rejected instead of wrapping modulo 2^32.
func TestLoadStoreRejectsOutOfRangeCount(t *testing.T) {
	for _, count := range []string{"-1", "4294967296"} {
		if _, err := LoadStore(strings.NewReader(countSnapshot(count)), DefaultUpdateConfig()); err == nil {
			t.Errorf("count %s accepted", count)
		}
	}
	s, err := LoadStore(strings.NewReader(countSnapshot("4294967295")), DefaultUpdateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Records(2)[0].Count; got != math.MaxUint32 {
		t.Fatalf("count %d, want %d", got, uint32(math.MaxUint32))
	}
}

// countSnapshot is a one-record snapshot whose delegation count is the
// given JSON number.
func countSnapshot(count string) string {
	return `{"version": 1, "owner": 1, "records": [
		{"trustee": 2, "task": {"type": 1, "chars": [0], "weights": [1]},
		 "s": 0.5, "g": 0.5, "d": 0.5, "c": 0.5, "count": ` + count + `}
	], "usage": []}`
}

func TestSaveEmptyStore(t *testing.T) {
	s := NewStore(1, DefaultUpdateConfig())
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadStore(&buf, DefaultUpdateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.Trustees()) != 0 {
		t.Fatal("empty store restored with trustees")
	}
}
