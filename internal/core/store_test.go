package core

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"siot/internal/task"
)

func newTestStore() *Store {
	return NewStore(0, DefaultUpdateConfig())
}

func TestStoreObserveCreatesRecord(t *testing.T) {
	s := newTestStore()
	tk := task.Uniform(1, task.CharGPS)
	r := s.Observe(7, tk, Outcome{Success: true, Gain: 1}, PerfectEnv())
	if r.Count != 1 {
		t.Fatalf("count = %d", r.Count)
	}
	got, ok := s.Record(7, 1)
	if !ok || got.Count != 1 {
		t.Fatal("record not stored")
	}
	if got.Task.Type() != 1 {
		t.Fatal("task not retained")
	}
}

func TestStoreObserveAccumulates(t *testing.T) {
	s := newTestStore()
	tk := task.Uniform(1, task.CharGPS)
	for i := 0; i < 50; i++ {
		s.Observe(7, tk, Outcome{Success: true, Gain: 0.9, Damage: 0.1, Cost: 0.1}, PerfectEnv())
	}
	r, _ := s.Record(7, 1)
	if r.Count != 50 {
		t.Fatalf("count = %d", r.Count)
	}
	if math.Abs(r.Exp.S-1) > 0.01 {
		t.Fatalf("S = %v after 50 successes", r.Exp.S)
	}
}

func TestStoreRecordsSorted(t *testing.T) {
	s := newTestStore()
	s.Observe(7, task.Uniform(3, task.CharGPS), Outcome{}, PerfectEnv())
	s.Observe(7, task.Uniform(1, task.CharImage), Outcome{}, PerfectEnv())
	recs := s.Records(7)
	if len(recs) != 2 || recs[0].Task.Type() != 1 || recs[1].Task.Type() != 3 {
		t.Fatalf("records unordered: %v", recs)
	}
	if s.Records(99) != nil {
		t.Fatal("unknown trustee has records")
	}
}

func TestStoreTrustees(t *testing.T) {
	s := newTestStore()
	s.Observe(9, task.Uniform(1, task.CharGPS), Outcome{}, PerfectEnv())
	s.Observe(3, task.Uniform(1, task.CharGPS), Outcome{}, PerfectEnv())
	got := s.Trustees()
	if len(got) != 2 || got[0] != 3 || got[1] != 9 {
		t.Fatalf("trustees = %v", got)
	}
}

func TestStoreSeed(t *testing.T) {
	s := newTestStore()
	tk := task.Uniform(2, task.CharImage)
	s.Seed(5, tk, Expectation{S: 0.9, G: 0.9, D: 0.1, C: 0.1})
	r, ok := s.Record(5, 2)
	if !ok {
		t.Fatal("seeded record not found")
	}
	if tw := r.TW(s.Config().Norm); tw < 0.5 {
		t.Fatalf("seeded TW = %v, want high", tw)
	}
	if r.Count != 0 {
		t.Fatal("seed counted as delegation")
	}
}

func TestRecordUnknown(t *testing.T) {
	s := newTestStore()
	if _, ok := s.Record(1, 1); ok {
		t.Fatal("unknown pair has a record")
	}
}

func TestInferTWSingleSharedCharacteristic(t *testing.T) {
	// Paper's example: GPS+image experience lets the trustor judge a
	// traffic-monitoring task needing exactly those characteristics.
	s := newTestStore()
	gps := task.Uniform(1, task.CharGPS)
	img := task.Uniform(2, task.CharImage)
	good := Expectation{S: 0.95, G: 0.9, D: 0.05, C: 0.05}
	s.Seed(7, gps, good)
	s.Seed(7, img, good)

	traffic := task.Uniform(3, task.CharGPS, task.CharImage)
	tw, ok := s.InferTW(7, traffic)
	if !ok {
		t.Fatal("inference failed despite full coverage")
	}
	wantTW := good.Trustworthiness(UnitNormalizer())
	if math.Abs(tw-wantTW) > 1e-9 {
		t.Fatalf("inferred TW = %v, want %v", tw, wantTW)
	}
}

func TestInferTWRequiresFullCoverage(t *testing.T) {
	s := newTestStore()
	s.Seed(7, task.Uniform(1, task.CharGPS), Expectation{S: 1, G: 1})
	traffic := task.Uniform(3, task.CharGPS, task.CharImage)
	if _, ok := s.InferTW(7, traffic); ok {
		t.Fatal("inference succeeded with uncovered characteristic")
	}
}

func TestInferTWWeightedCombination(t *testing.T) {
	// The new task weights GPS 3x image; per-characteristic estimates come
	// from different records.
	s := newTestStore()
	n := UnitNormalizer()
	gpsExp := Expectation{S: 1, G: 1, D: 0, C: 0}    // profit 1 → TW 1
	imgExp := Expectation{S: 0, G: 0, D: 1, C: 1}    // profit -2 → TW 0
	s.Seed(7, task.Uniform(1, task.CharGPS), gpsExp) // TW 1 on gps
	s.Seed(7, task.Uniform(2, task.CharImage), imgExp)

	mixed := task.MustNew(3, map[task.Characteristic]float64{
		task.CharGPS:   3,
		task.CharImage: 1,
	})
	tw, ok := s.InferTW(7, mixed)
	if !ok {
		t.Fatal("inference failed")
	}
	want := 0.75*gpsExp.Trustworthiness(n) + 0.25*imgExp.Trustworthiness(n)
	if math.Abs(tw-want) > 1e-9 {
		t.Fatalf("TW = %v, want %v", tw, want)
	}
}

func TestInferTWMultiRecordCharacteristic(t *testing.T) {
	// Two experienced tasks both contain the characteristic with different
	// weights: eq. 4's inner fraction is the weight-weighted average.
	s := newTestStore()
	n := UnitNormalizer()
	// Task A: gps weight 1.0, TW 1.
	s.Seed(7, task.Uniform(1, task.CharGPS), Expectation{S: 1, G: 1})
	// Task B: gps weight 0.5 (uniform over two chars), TW 0.
	s.Seed(7, task.Uniform(2, task.CharGPS, task.CharAudio), Expectation{S: 0, D: 1, C: 1})

	probe := task.Uniform(3, task.CharGPS)
	tw, ok := s.InferTW(7, probe)
	if !ok {
		t.Fatal("inference failed")
	}
	// Weighted average: (1.0*1 + 0.5*0) / 1.5.
	want := (1.0*1 + 0.5*0) / 1.5
	_ = n
	if math.Abs(tw-want) > 1e-9 {
		t.Fatalf("TW = %v, want %v", tw, want)
	}
}

func TestInferTWNoRecords(t *testing.T) {
	s := newTestStore()
	if _, ok := s.InferTW(1, task.Uniform(1, task.CharGPS)); ok {
		t.Fatal("inference from empty store succeeded")
	}
}

func TestBestTWPrefersDirect(t *testing.T) {
	s := newTestStore()
	tk := task.Uniform(1, task.CharGPS)
	s.Seed(7, tk, Expectation{S: 1, G: 1}) // direct: TW 1
	// An unrelated bad gps record would drag inference down; direct must win.
	s.Seed(7, task.Uniform(2, task.CharGPS, task.CharImage), Expectation{S: 0, D: 1, C: 1})
	tw, ok := s.BestTW(7, tk)
	if !ok || tw != 1 {
		t.Fatalf("BestTW = %v, %v; want direct 1", tw, ok)
	}
	// For an unseen type it falls back to inference.
	probe := task.Uniform(9, task.CharImage)
	if _, ok := s.BestTW(7, probe); !ok {
		t.Fatal("BestTW fallback failed")
	}
}

func TestUsageLogTW(t *testing.T) {
	if got := (UsageLog{}).TW(); got != 1 {
		t.Fatalf("empty log TW = %v, want 1 (innocent until proven guilty)", got)
	}
	if got := (UsageLog{Responsible: 8, Abusive: 0}).TW(); got != 1 {
		t.Fatalf("TW = %v, want 1", got)
	}
	if got := (UsageLog{Responsible: 0, Abusive: 8}).TW(); got != 1.0/9 {
		t.Fatalf("TW = %v, want 1/9", got)
	}
	if got := (UsageLog{Responsible: 0, Abusive: 1}).TW(); got != 0.5 {
		t.Fatalf("TW = %v, want 0.5 after one abuse", got)
	}
}

func TestObserveUsageAndReverseTW(t *testing.T) {
	s := newTestStore()
	for i := 0; i < 9; i++ {
		s.ObserveUsage(4, false)
	}
	s.ObserveUsage(4, true)
	got := s.ReverseTW(4)
	want := (9.0 + 1) / (10.0 + 1)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ReverseTW = %v, want %v", got, want)
	}
	if s.ReverseTW(99) != 1 {
		t.Fatal("unknown trustor not optimistic")
	}
}

func TestStoreOwnerAndConfig(t *testing.T) {
	s := NewStore(42, DefaultUpdateConfig())
	if s.Owner() != 42 {
		t.Fatal("owner wrong")
	}
	if s.Config().Norm != UnitNormalizer() {
		t.Fatalf("config norm %+v, want the unit normalizer", s.Config().Norm)
	}
	// A zero norm is defaulted.
	s2 := NewStore(1, UpdateConfig{Betas: UniformBetas(0.1)})
	if s2.Config().Norm != UnitNormalizer() {
		t.Fatalf("zero normalizer defaulted to %+v, want the unit normalizer", s2.Config().Norm)
	}
}

// TestStoreVersion pins the mutation stamp delta captures key on: every
// mutator moves it to a stamp no store has carried, a loaded store never
// carries its source's stamp, and no reader moves it.
func TestStoreVersion(t *testing.T) {
	gps := task.Uniform(1, task.CharGPS)
	// filled returns a store holding a record and a usage log about agent 7.
	filled := func() *Store {
		s := newTestStore()
		s.Seed(7, gps, Expectation{S: 0.8, G: 0.7, D: 0.1, C: 0.1})
		s.ObserveUsage(7, false)
		return s
	}
	seen := map[uint64]bool{}
	for _, tc := range []struct {
		name   string
		mutate bool
		op     func(t *testing.T, s *Store)
	}{
		{"Observe", true, func(_ *testing.T, s *Store) {
			s.Observe(7, gps, Outcome{Success: true, Gain: 1}, PerfectEnv())
		}},
		{"Seed", true, func(_ *testing.T, s *Store) {
			s.Seed(8, gps, Expectation{S: 0.5, G: 0.5, D: 0.5, C: 0.1})
		}},
		{"SeedSorted", true, func(t *testing.T, s *Store) {
			if err := s.SeedSorted([]SeedRecord{{Trustee: 9, Task: gps, Exp: Expectation{S: 0.5}}}); err != nil {
				t.Fatal(err)
			}
		}},
		{"ObserveUsage", true, func(_ *testing.T, s *Store) { s.ObserveUsage(7, true) }},
		{"Forget", true, func(_ *testing.T, s *Store) { s.Forget(7) }},
		{"SeedSorted rejected", false, func(t *testing.T, s *Store) {
			bad := []SeedRecord{{Trustee: 9, Task: gps}, {Trustee: 9, Task: gps}}
			if err := s.SeedSorted(bad); err == nil {
				t.Fatal("unsorted batch accepted")
			}
		}},
		{"Record", false, func(_ *testing.T, s *Store) { s.Record(7, gps.Type()) }},
		{"Expectation", false, func(_ *testing.T, s *Store) { s.Expectation(7, gps.Type()) }},
		{"AppendCompact", false, func(_ *testing.T, s *Store) { s.AppendCompact(7, s.Catalog(), nil) }},
		{"RecordCount", false, func(_ *testing.T, s *Store) { s.RecordCount(7) }},
		{"Usage", false, func(_ *testing.T, s *Store) { s.Usage(7) }},
		{"BestTW", false, func(_ *testing.T, s *Store) { s.BestTW(7, gps) }},
		{"Save", false, func(t *testing.T, s *Store) {
			if err := s.Save(io.Discard); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		s := filled()
		before := s.Version()
		if before == 0 {
			t.Fatalf("%s: a written store reports version 0", tc.name)
		}
		tc.op(t, s)
		after := s.Version()
		switch {
		case tc.mutate && (after == before || seen[after]):
			t.Errorf("%s: version %d -> %d, want a stamp never seen before", tc.name, before, after)
		case !tc.mutate && after != before:
			t.Errorf("%s: reader moved version %d -> %d", tc.name, before, after)
		}
		seen[before], seen[after] = true, true
	}

	if v := newTestStore().Version(); v != 0 {
		t.Fatalf("fresh store version = %d, want 0", v)
	}
	src := filled()
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, snap := range []string{buf.String(), `{"version":1,"owner":0,"records":null,"usage":null}`} {
		loaded, err := LoadStore(strings.NewReader(snap), DefaultUpdateConfig())
		if err != nil {
			t.Fatal(err)
		}
		if v := loaded.Version(); v == 0 || v == src.Version() || seen[v] {
			t.Fatalf("LoadStore version = %d (source %d): want a fresh stamp", v, src.Version())
		}
	}
}

// BenchmarkStoreObserve measures Observe on a store shaped like the
// busiest store of benchnet.Net100k: its highest-degree node has 49
// neighbours, each holding a record for every one of the 10 task types of
// the 5-characteristic universe (490 records). "existing" folds an outcome
// into a held record; "insert" adds a new (trustee, type) pair, which
// shifts the later records and offsets. The insert store is rebuilt, off
// the clock, once every trustee has gained its new pair.
func BenchmarkStoreObserve(b *testing.B) {
	const trustees, types = 49, 10
	tasks := make([]task.Task, types+1)
	for i := range tasks {
		tasks[i] = seedTestTask(i)
	}
	seeded := func() *Store {
		s := NewStore(0, DefaultUpdateConfig())
		var batch []SeedRecord
		for id := AgentID(1); id <= trustees; id++ {
			for _, tk := range tasks[:types] {
				batch = append(batch, SeedRecord{Trustee: id, Task: tk, Exp: Expectation{S: 0.5, G: 0.5, D: 0.5}})
			}
		}
		if err := s.SeedSorted(batch); err != nil {
			b.Fatal(err)
		}
		return s
	}
	o := Outcome{Success: true, Gain: 0.5, Cost: 0.1}
	b.Run("existing", func(b *testing.B) {
		s := seeded()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Observe(AgentID(1+i%trustees), tasks[i%types], o, PerfectEnv())
		}
	})
	b.Run("insert", func(b *testing.B) {
		s := seeded()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % trustees
			if k == 0 && i > 0 {
				b.StopTimer()
				s = seeded()
				b.StartTimer()
			}
			s.Observe(AgentID(1+k), tasks[types], o, PerfectEnv())
		}
	})
}
