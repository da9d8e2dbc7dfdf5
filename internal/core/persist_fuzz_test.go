package core

import (
	"bytes"
	"testing"

	"siot/internal/task"
)

// FuzzPersistRoundTrip fuzzes the store snapshot codec with two
// guarantees: arbitrary input never panics the decoder, and any input the
// decoder accepts reaches a canonical fixed point — saving the loaded
// store and loading it again reproduces the same bytes and the same state
// (decode(encode(store)) == store).
func FuzzPersistRoundTrip(f *testing.F) {
	// Seed corpus: a realistic snapshot plus boundary documents.
	seedStore := NewStore(1, DefaultUpdateConfig())
	tk := task.Uniform(3, task.CharGPS, task.CharImage)
	seedStore.Observe(2, tk, Outcome{Success: true, Gain: 0.8, Cost: 0.1}, PerfectEnv())
	seedStore.Observe(2, task.Uniform(1, task.CharCompute), Outcome{Damage: 0.4, Cost: 0.2}, PerfectEnv())
	seedStore.ObserveUsage(9, true)
	seedStore.ObserveUsage(9, false)
	var seed bytes.Buffer
	if err := seedStore.Save(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	// A bulk-seeded store: snapshots produced through the SeedSorted batch
	// path must round-trip exactly like per-record Seed/Observe state.
	bulkStore := NewStore(4, DefaultUpdateConfig())
	if err := bulkStore.SeedSorted([]SeedRecord{
		{Trustee: 2, Task: task.Uniform(1, task.CharCompute), Exp: Expectation{S: 0.7, G: 0.7, D: 0.3}},
		{Trustee: 2, Task: tk, Exp: Expectation{S: 0.4, G: 0.4, D: 0.6, C: 0.1}},
		{Trustee: 9, Task: tk, Exp: Expectation{S: 1, G: 1}},
	}); err != nil {
		f.Fatal(err)
	}
	var bulk bytes.Buffer
	if err := bulkStore.Save(&bulk); err != nil {
		f.Fatal(err)
	}
	f.Add(bulk.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"owner":5,"records":[],"usage":[]}`))
	f.Add([]byte(`{"version":1,"owner":0,"records":[{"trustee":3,"task":{"type":7,"chars":[2],"weights":[1]},"s":0.5,"g":0.5,"d":0.5,"c":0.5,"count":4}],"usage":[{"trustor":8,"responsible":3,"abusive":1}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	// Delegation counts a compact record cannot hold: rejected, never
	// wrapped modulo 2^32.
	f.Add([]byte(`{"version":1,"owner":0,"records":[{"trustee":3,"task":{"type":7,"chars":[2],"weights":[1]},"s":0.5,"g":0.5,"d":0.5,"c":0.5,"count":-1}],"usage":[]}`))
	f.Add([]byte(`{"version":1,"owner":0,"records":[{"trustee":3,"task":{"type":7,"chars":[2],"weights":[1]},"s":0.5,"g":0.5,"d":0.5,"c":0.5,"count":4294967296}],"usage":[]}`))
	// Saved weights that do not sum to 1: the first load normalizes them,
	// and the reload of that save must keep its bits.
	f.Add([]byte(`{"version":1,"owner":0,"records":[{"trustee":3,"task":{"type":7,"chars":[0,1],"weights":[0.47,0.61]},"s":0.5,"g":0.5,"d":0.5,"c":0.5,"count":1}],"usage":[]}`))
	f.Add([]byte(`{"version":1,"owner":0,"records":[{"trustee":3,"task":{"type":7,"chars":[0,1,2],"weights":[0.1,0.2,0.3]},"s":0.5,"g":0.5,"d":0.5,"c":0.5,"count":1}],"usage":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := DefaultUpdateConfig()
		s, err := LoadStore(bytes.NewReader(data), cfg) // must never panic
		if err != nil {
			return // rejected input is fine
		}
		var first bytes.Buffer
		if err := s.Save(&first); err != nil {
			t.Fatalf("saving accepted store: %v", err)
		}
		s2, err := LoadStore(bytes.NewReader(first.Bytes()), cfg)
		if err != nil {
			t.Fatalf("re-loading own snapshot: %v\nsnapshot:\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := s2.Save(&second); err != nil {
			t.Fatalf("re-saving: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("snapshot is not a fixed point:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
		}
		if s2.Owner() != s.Owner() {
			t.Errorf("owner drifted: %d → %d", s.Owner(), s2.Owner())
		}
		if s2.NumRecords() != s.NumRecords() {
			t.Errorf("record count drifted: %d → %d", s.NumRecords(), s2.NumRecords())
		}
	})
}
