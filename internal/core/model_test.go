package core

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"siot/internal/task"
)

// TestPaperModelsMatchLegacyHop pins the paper's three models against the
// fat-record reference the search oracle evaluates hops with: each
// single-path model's HopTW equals the oracle's hopTW, and Aggressive's
// HopTW on a characteristic's unit task equals that characteristic's
// weighted average bit for bit — the identity that lets the aggressive
// model's per-characteristic tables come from its HopTW — over the same
// randomized fixtures as TestCompactMatchesFatReference.
func TestPaperModelsMatchLegacyHop(t *testing.T) {
	probes := []task.Task{
		task.Uniform(1, task.CharGPS),
		task.Uniform(7, task.CharGPS, task.CharCompute),
		task.MustNew(8, map[task.Characteristic]float64{task.CharImage: 0.9, task.CharStorage: 0.1}),
		task.Uniform(9, task.CharAudio), // uncovered
	}
	chars := []task.Characteristic{
		task.CharGPS, task.CharImage, task.CharCompute, task.CharStorage, task.CharAudio,
	}
	norm := UnitNormalizer()
	s := &mapSearcher{Norm: norm}
	for seed := uint64(1); seed <= 8; seed++ {
		for size := 0; size <= 5; size++ {
			f := buildCompactFixture(seed, size)
			ctx := HopContext{Tasks: f.tasks, Norm: norm}
			for _, tk := range probes {
				for _, m := range []TrustModel{Traditional, Conservative} {
					legacyV, legacyOK := s.hopTW(f.fat, tk, m)
					gotV, gotOK := m.HopTW(ctx, f.compact, tk)
					if gotV != legacyV || gotOK != legacyOK {
						t.Fatalf("seed %d size %d: %s HopTW(task %d) = (%v, %v), legacy (%v, %v)",
							seed, size, m.Name(), tk.Type(), gotV, gotOK, legacyV, legacyOK)
					}
				}
				legacyV, legacyOK := inferFromCompact(f.tasks, f.compact, tk, norm)
				if size == 0 {
					legacyOK = false // empty evidence never admits a hop
					legacyV = 0
				}
				gotV, gotOK := Aggressive.HopTW(ctx, f.compact, tk)
				if gotV != legacyV || gotOK != legacyOK {
					t.Fatalf("seed %d size %d: aggressive HopTW(task %d) = (%v, %v), inferFromCompact (%v, %v)",
						seed, size, tk.Type(), gotV, gotOK, legacyV, legacyOK)
				}
			}
			for _, c := range chars {
				wantV, wantOK := charTWCompact(f.tasks, f.compact, c, norm)
				gotV, gotOK := Aggressive.HopTW(ctx, f.compact, unitTask(c))
				if gotV != wantV || gotOK != wantOK {
					t.Fatalf("seed %d size %d: aggressive HopTW(unit task %d) = (%v, %v), charTWCompact (%v, %v)",
						seed, size, c, gotV, gotOK, wantV, wantOK)
				}
			}
		}
	}
}

// TestModelHopTWRange: every registered model's HopTW stays in [0, 1] and
// blocks empty evidence, across randomized record sets — the interface
// contract the search and the serving layer rely on without re-clamping.
func TestModelHopTWRange(t *testing.T) {
	probes := []task.Task{
		task.Uniform(1, task.CharGPS),
		task.Uniform(7, task.CharGPS, task.CharCompute),
		task.MustNew(8, map[task.Characteristic]float64{task.CharImage: 0.9, task.CharStorage: 0.1}),
		task.Uniform(9, task.CharAudio),
	}
	norm := UnitNormalizer()
	for _, name := range ModelNames() {
		m, err := ParseModel(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := m.HopTW(HopContext{Norm: norm}, nil, probes[0]); ok {
			t.Fatalf("model %s admits a hop with no records", name)
		}
		for seed := uint64(1); seed <= 20; seed++ {
			for size := 1; size <= 5; size++ {
				f := buildCompactFixture(seed, size)
				ctx := HopContext{Tasks: f.tasks, Norm: norm}
				for _, tk := range probes {
					v, ok := m.HopTW(ctx, f.compact, tk)
					if !ok {
						continue
					}
					if v < 0 || v > 1 {
						t.Fatalf("model %s: HopTW(seed %d, size %d, task %d) = %v outside [0, 1]",
							name, seed, size, tk.Type(), v)
					}
				}
			}
		}
	}
}

// TestModelSpecs pins each registered model's search descriptor: a silent
// spec change would re-route the generic search (gating, combine rule)
// without failing any golden that happens not to exercise the edge.
func TestModelSpecs(t *testing.T) {
	want := map[string]ModelSpec{
		"traditional":      {Combine: combineProduct},
		"conservative":     {Combine: combineMistrust, OmegaGated: true},
		"aggressive":       {Combine: combineMistrust, OmegaGated: true, PerCharacteristic: true},
		"hellinger-mf":     {Combine: combineMistrust, OmegaGated: true},
		"feature-weighted": {Combine: combineMistrust, OmegaGated: true},
	}
	for name, spec := range want {
		m, err := ParseModel(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.Spec() != spec {
			t.Fatalf("model %s spec = %+v, want %+v", name, m.Spec(), spec)
		}
	}
	if _, ok := mustParseModel(t, "hellinger-mf").(EpochTrainable); !ok {
		t.Fatal("hellinger-mf is not epoch-trainable")
	}
	if _, ok := mustParseModel(t, "feature-weighted").(EpochTrainable); ok {
		t.Fatal("feature-weighted unexpectedly epoch-trainable")
	}
}

// perCharTrainable is hellinger-mf claiming a PerCharacteristic spec: a
// trained model whose one table cannot serve a per-characteristic search.
type perCharTrainable struct{ hellingerMF }

func (perCharTrainable) Name() string { return "per-char-trainable" }

func (perCharTrainable) Spec() ModelSpec {
	return ModelSpec{Combine: combineMistrust, OmegaGated: true, PerCharacteristic: true}
}

// TestRegisterModelRefusesPerCharacteristicTrainable: the registry refuses
// an EpochTrainable model whose Spec is PerCharacteristic, and the refused
// model stays unregistered.
func TestRegisterModelRefusesPerCharacteristicTrainable(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("RegisterModel accepted a PerCharacteristic EpochTrainable model")
			}
		}()
		RegisterModel(perCharTrainable{})
	}()
	if _, err := ParseModel(perCharTrainable{}.Name()); err == nil {
		t.Fatal("a refused model is registered")
	}
}

// TestTrainedModelOneTable pins the trained-table rule: RequireModel of
// hellinger-mf over every task of a universe trains one table, and
// hopTables hands that one slice to the search of every task. Reset to a
// later capture returns it to the pool, and the next RequireModel retrains
// it — into the same pooled memory — bit for bit equal to a fresh memo's
// table.
func TestTrainedModelOneTable(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 0x7ab1e))
	f := newRoundFixture(r, 200, 1500)
	hmf := mustParseModel(t, "hellinger-mf")
	universe := task.NewUniverse(10, 5, r).Tasks
	pool := NewArenaPool()
	norm := UnitNormalizer()
	capture := func(prev *RoundView) *RoundView {
		v, err := CaptureRoundView(f.adjOff, f.adjTo, f.source(), norm, 2, pool, prev)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	view := capture(nil)
	memo := NewEdgeMemoPooled(view.TrustView, norm, 2, pool)
	memo.RequireModel(hmf, universe)
	mm := memo.model(hmf)
	if len(mm.tables) != 0 || mm.trained == nil {
		t.Fatalf("hellinger-mf holds %d per-task tables and trained table %v, want only a trained table", len(mm.tables), mm.trained != nil)
	}
	for _, tk := range universe {
		var tabs [][]float64
		if err := memo.hopTables(&tabs, view.TrustView, hmf, tk); err != nil {
			t.Fatal(err)
		}
		if len(tabs) != 1 || !sameSlice(tabs[0], mm.trained) {
			t.Fatalf("task %v: the search reads %d tables, not the one trained table", tk, len(tabs))
		}
	}
	trained := mm.trained
	var fresh []task.Task
	for u := 0; u < f.n; u += 7 {
		f.mutateRow(r, u, &fresh)
	}
	later := capture(view)
	memo.Reset(later.TrustView)
	view.Release()
	pooled := slices.ContainsFunc(pool.tables.items, func(s []float64) bool { return sameSlice(s, trained) })
	if mm.trained != nil || !pooled {
		t.Fatalf("after Reset: trained table kept %v, back in the pool %v", mm.trained != nil, pooled)
	}
	memo.RequireModel(hmf, universe)
	if !sameSlice(mm.trained, trained) {
		t.Fatal("retraining did not reuse the pooled table")
	}
	want := NewEdgeMemoPooled(later.TrustView, norm, 2, nil)
	want.RequireModel(hmf, universe)
	assertSameMemo(t, "retrained after Reset", hmf, memo, want)
	memo.Release()
	later.Release()
}

func mustParseModel(t testing.TB, name string) TrustModel {
	t.Helper()
	m, err := ParseModel(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// FuzzParseModel: ParseModel accepts exactly the registered names, and an
// accepted model round-trips its registry key.
func FuzzParseModel(f *testing.F) {
	for _, name := range ModelNames() {
		f.Add(name)
	}
	f.Add("")
	f.Add("Traditional")
	f.Add("hellinger-mf ")
	f.Add("not-a-model")
	registered := map[string]bool{}
	for _, name := range ModelNames() {
		registered[name] = true
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseModel(s)
		if registered[s] {
			if err != nil {
				t.Fatalf("registered name %q rejected: %v", s, err)
			}
			if m.Name() != s {
				t.Fatalf("ParseModel(%q).Name() = %q", s, m.Name())
			}
		} else if err == nil {
			t.Fatalf("unregistered name %q accepted as %q", s, m.Name())
		}
	})
}

// TestSearchStateScrub pins the pool-retention fix: a state returned to
// searchPool must not pin the last call's record values (each fat Record
// embeds a Task with two live slice headers), must drop an outsized record
// buffer entirely, and must bound how many per-characteristic maps it
// keeps — with the retained maps emptied.
func TestSearchStateScrub(t *testing.T) {
	// populate builds a pool-valid state (all maps allocated, as
	// searchPool.New does — releaseState may park it for later Finds)
	// carrying everything scrub must clear.
	populate := func(recCap, nChars int) *searchState {
		st := &searchState{
			inquired: make(map[AgentID]bool),
			best:     make(map[AgentID]float64),
			frontier: make(map[AgentID]float64),
			next:     make(map[AgentID]float64),
			recbuf:   make([]Record, 0, recCap),
		}
		tk := task.Uniform(1, task.CharGPS, task.CharImage)
		st.recbuf = st.recbuf[:recCap/2]
		for i := range st.recbuf {
			st.recbuf[i] = Record{Task: tk, Exp: Expectation{S: 0.9}, Count: i + 1}
		}
		for i := 0; i < nChars; i++ {
			st.perChar = append(st.perChar, map[AgentID]float64{AgentID(i): 0.5})
		}
		return st
	}

	t.Run("in-bounds keeps capacity, zeroes values", func(t *testing.T) {
		st := populate(64, 3)
		st.scrub()
		if len(st.recbuf) != 0 || cap(st.recbuf) != 64 {
			t.Fatalf("recbuf len/cap = %d/%d, want 0/64", len(st.recbuf), cap(st.recbuf))
		}
		full := st.recbuf[:cap(st.recbuf)]
		for i, r := range full {
			if !reflect.DeepEqual(r, Record{}) {
				t.Fatalf("recbuf[%d] retains %+v after scrub", i, r)
			}
		}
		if len(st.perChar) != 3 {
			t.Fatalf("perChar len = %d, want 3", len(st.perChar))
		}
		for i, m := range st.perChar {
			if len(m) != 0 {
				t.Fatalf("perChar[%d] retains %d entries after scrub", i, len(m))
			}
		}
	})

	t.Run("oversized recbuf released", func(t *testing.T) {
		st := populate(maxPooledRecbuf+1, 0)
		st.scrub()
		if st.recbuf != nil {
			t.Fatalf("recbuf cap %d survived scrub (limit %d)", cap(st.recbuf), maxPooledRecbuf)
		}
	})

	t.Run("perChar bounded", func(t *testing.T) {
		st := populate(8, maxPooledChars+5)
		st.scrub()
		if len(st.perChar) != maxPooledChars || cap(st.perChar) != maxPooledChars {
			t.Fatalf("perChar len/cap = %d/%d, want %d/%d",
				len(st.perChar), cap(st.perChar), maxPooledChars, maxPooledChars)
		}
		for i, m := range st.perChar {
			if len(m) != 0 {
				t.Fatalf("retained perChar[%d] not emptied", i)
			}
		}
	})

	t.Run("releaseState scrubs", func(t *testing.T) {
		st := populate(32, 2)
		releaseState(st) // must not panic; st now pooled
		if len(st.recbuf) != 0 {
			t.Fatal("releaseState pooled an unscrubbed state")
		}
	})
}
