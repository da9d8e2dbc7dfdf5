package task

import (
	"math"
	"testing"
	"testing/quick"

	"siot/internal/rng"
)

func TestNewNormalizesWeights(t *testing.T) {
	tk, err := New(1, map[Characteristic]float64{CharGPS: 2, CharImage: 6})
	if err != nil {
		t.Fatal(err)
	}
	if w := tk.Weight(CharGPS); math.Abs(w-0.25) > 1e-12 {
		t.Fatalf("gps weight = %v, want 0.25", w)
	}
	if w := tk.Weight(CharImage); math.Abs(w-0.75) > 1e-12 {
		t.Fatalf("image weight = %v, want 0.75", w)
	}
}

// TestNewIsOrderFree builds one three-characteristic task 1,000 times: its
// weights must not depend on the order New visits the map in.
func TestNewIsOrderFree(t *testing.T) {
	first := MustNew(1, map[Characteristic]float64{0: 0.1, 1: 0.2, 2: 0.3})
	for range 1000 {
		if tk := MustNew(1, map[Characteristic]float64{0: 0.1, 1: 0.2, 2: 0.3}); !tk.Equal(first) {
			t.Fatalf("weights %v, then %v", first.Weights(), tk.Weights())
		}
	}
}

// TestRestore checks that Restore keeps a normalized weight vector bit for
// bit, normalizes any other one as New does, whatever the order of its
// lists, and rejects what New rejects plus a repeated characteristic. A
// weight that normalizes to 0 is rejected: the task would save a weight no
// load accepts.
func TestRestore(t *testing.T) {
	want := MustNew(4, map[Characteristic]float64{0: 0.1, 1: 0.2, 2: 0.3})
	for _, tc := range []struct {
		chars   []Characteristic
		weights []float64
	}{
		{want.Characteristics(), want.Weights()},
		{[]Characteristic{2, 0, 1}, []float64{0.3, 0.1, 0.2}},
	} {
		got, err := Restore(4, tc.chars, tc.weights)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("Restore(%v, %v) = %v, want %v", tc.chars, tc.weights, got.Weights(), want.Weights())
		}
	}
	for _, tc := range []struct {
		chars   []Characteristic
		weights []float64
	}{
		{nil, nil},
		{[]Characteristic{0}, nil},
		{[]Characteristic{0}, []float64{0}},
		{[]Characteristic{0}, []float64{math.NaN()}},
		{[]Characteristic{0}, []float64{math.Inf(1)}},
		{[]Characteristic{1, 1}, []float64{0.5, 0.5}},
		{[]Characteristic{0, 1}, []float64{1e308, 1e308}},
		{[]Characteristic{0, 1}, []float64{5e-324, 2}},
	} {
		if _, err := Restore(4, tc.chars, tc.weights); err == nil {
			t.Errorf("Restore(%v, %v) accepted", tc.chars, tc.weights)
		}
	}
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(1, nil); err == nil {
		t.Fatal("empty task accepted")
	}
}

func TestNewRejectsNonPositiveWeight(t *testing.T) {
	if _, err := New(1, map[Characteristic]float64{CharGPS: 0}); err == nil {
		t.Fatal("zero weight accepted")
	}
	if _, err := New(1, map[Characteristic]float64{CharGPS: -1}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestUniform(t *testing.T) {
	tk := Uniform(3, CharGPS, CharImage, CharVelocity)
	for _, c := range []Characteristic{CharGPS, CharImage, CharVelocity} {
		if w := tk.Weight(c); math.Abs(w-1.0/3) > 1e-12 {
			t.Fatalf("weight(%v) = %v, want 1/3", c, w)
		}
	}
	if tk.Type() != 3 {
		t.Fatalf("type = %d", tk.Type())
	}
}

func TestWeightAbsent(t *testing.T) {
	tk := Uniform(1, CharGPS)
	if tk.Weight(CharAudio) != 0 {
		t.Fatal("absent characteristic has weight")
	}
	if tk.Has(CharAudio) {
		t.Fatal("absent characteristic reported present")
	}
	if !tk.Has(CharGPS) {
		t.Fatal("present characteristic reported absent")
	}
}

func TestCharacteristicsSorted(t *testing.T) {
	tk := Uniform(1, CharCompute, CharGPS, CharAudio)
	cs := tk.Characteristics()
	for i := 1; i < len(cs); i++ {
		if cs[i-1] >= cs[i] {
			t.Fatalf("characteristics not sorted: %v", cs)
		}
	}
	if tk.NumCharacteristics() != 3 {
		t.Fatalf("count = %d", tk.NumCharacteristics())
	}
}

func TestString(t *testing.T) {
	tk := Uniform(7, CharGPS)
	if got := tk.String(); got != "type#7{0:1.00}" {
		t.Fatalf("String() = %q", got)
	}
}

func TestNewUniverse(t *testing.T) {
	r := rng.New(1, "universe")
	u := NewUniverse(10, 5, r)
	if len(u.Tasks) != 10 {
		t.Fatalf("universe has %d tasks", len(u.Tasks))
	}
	for i, tk := range u.Tasks {
		if tk.Type() != Type(i) {
			t.Fatalf("task %d has type %d", i, tk.Type())
		}
		n := tk.NumCharacteristics()
		if n < 1 || n > 2 {
			t.Fatalf("task %d has %d characteristics, want 1 or 2", i, n)
		}
		for _, c := range tk.Characteristics() {
			if c < 0 || int(c) >= u.NumCharacteristics {
				t.Fatalf("task %d characteristic %d outside alphabet", i, c)
			}
		}
	}
}

func TestNewUniverseSingleChar(t *testing.T) {
	u := NewUniverse(3, 1, rng.New(2, "u1"))
	for _, tk := range u.Tasks {
		if tk.NumCharacteristics() != 1 {
			t.Fatal("single-char alphabet produced multi-char task")
		}
	}
}

func TestUniverseRandom(t *testing.T) {
	r := rng.New(3, "pick")
	u := NewUniverse(5, 4, r)
	seen := map[Type]bool{}
	for i := 0; i < 200; i++ {
		seen[u.Random(r).Type()] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Random hit %d of 5 types in 200 draws", len(seen))
	}
}

func TestCharName(t *testing.T) {
	if CharName(CharGPS) != "gps" {
		t.Fatal("gps name wrong")
	}
	if CharName(Characteristic(99)) != "char#99" {
		t.Fatal("fallback name wrong")
	}
}

func TestQuickWeightsSumToOne(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%6) + 1
		r := rng.New(seed, "wsum")
		m := make(map[Characteristic]float64)
		for len(m) < n {
			m[Characteristic(r.IntN(20))] = 0.01 + r.Float64()
		}
		tk, err := New(1, m)
		if err != nil {
			return false
		}
		var sum float64
		for _, c := range tk.Characteristics() {
			sum += tk.Weight(c)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
