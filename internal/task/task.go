// Package task models tasks as weighted bags of characteristics, the
// representation behind the paper's inferential transfer of trust (§4.2).
//
// A task τ carries characteristics {a_j(τ)} with importance weights
// {w_j(τ)}. Two different tasks that share a characteristic (say, GPS
// sampling appearing in both a navigation task and a traffic-report task)
// let a trustor infer trustworthiness for one from experience with the other
// (eqs. 2–4 of the paper). The Type identifies the task context for the
// context-dependent parts of the model (transitivity restrictions, per-task
// thresholds).
package task

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
)

// Characteristic identifies one capability a task requires (e.g. GPS
// sampling, image capture, velocity estimation).
type Characteristic int

// Type identifies a task type. Tasks of the same type are "the exact same
// task" for the traditional trust-transfer baseline, which cannot look
// inside a task at its characteristics.
type Type int

// Task is a delegable unit of work: a type plus its weighted
// characteristics. Weights are importance factors w_i(τ) and are kept
// normalized to sum to 1.
type Task struct {
	typ     Type
	chars   []Characteristic // sorted
	weights []float64        // parallel to chars, sums to 1
}

// New builds a task of the given type from characteristic→weight pairs.
// Weights must be positive and finite; they are normalized to sum to 1. At
// least one characteristic is required.
func New(typ Type, weighted map[Characteristic]float64) (Task, error) {
	t := Task{typ: typ, chars: slices.Sorted(maps.Keys(weighted))}
	t.weights = make([]float64, len(t.chars))
	for i, c := range t.chars {
		t.weights[i] = weighted[c]
	}
	return t.normalize(false)
}

// Restore rebuilds a task from the parallel characteristic and weight lists
// that Characteristics and Weights returned, in any order. It checks them as
// New does and also rejects a characteristic listed twice. Weights that
// already sum to 1 within 1e-9, as every task New builds does, are kept bit
// for bit, so a saved task reloads Equal to itself; others are normalized
// as New normalizes them.
func Restore(typ Type, chars []Characteristic, weights []float64) (Task, error) {
	if len(chars) != len(weights) {
		return Task{}, fmt.Errorf("task: type %d has %d characteristics but %d weights", typ, len(chars), len(weights))
	}
	order := make([]int, len(chars))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(chars[a], chars[b]) })
	t := Task{typ: typ, chars: make([]Characteristic, len(chars)), weights: make([]float64, len(chars))}
	for i, j := range order {
		if i > 0 && chars[j] == t.chars[i-1] {
			return Task{}, fmt.Errorf("task: type %d lists characteristic %d twice", typ, chars[j])
		}
		t.chars[i], t.weights[i] = chars[j], weights[j]
	}
	return t.normalize(true)
}

// normalize checks t's weights and scales them to sum to 1. It sums in
// characteristic order, so the result does not depend on the order the
// caller gave them in, and rejects a weight that normalizes to 0. With
// keep, weights that already sum to 1 within 1e-9 are left as they are.
func (t Task) normalize(keep bool) (Task, error) {
	if len(t.chars) == 0 {
		return Task{}, fmt.Errorf("task: type %d has no characteristics", t.typ)
	}
	var total float64
	for i, w := range t.weights {
		if !(w > 0) || math.IsInf(w, 1) {
			return Task{}, fmt.Errorf("task: characteristic %d has weight %v, not a positive finite value", t.chars[i], w)
		}
		total += w
	}
	if keep && math.Abs(total-1) <= 1e-9 {
		return t, nil
	}
	for i := range t.weights {
		// A sum that overflows, or a weight too small beside the others,
		// normalizes to 0: the task would not load again once saved.
		if t.weights[i] /= total; t.weights[i] == 0 {
			return Task{}, fmt.Errorf("task: type %d has weights that do not normalize to positive values", t.typ)
		}
	}
	return t, nil
}

// MustNew is New, panicking on error. For literals in tests and examples.
func MustNew(typ Type, weighted map[Characteristic]float64) Task {
	t, err := New(typ, weighted)
	if err != nil {
		panic(err)
	}
	return t
}

// Uniform builds a task whose characteristics all carry equal weight.
func Uniform(typ Type, chars ...Characteristic) Task {
	m := make(map[Characteristic]float64, len(chars))
	for _, c := range chars {
		m[c] = 1
	}
	t, err := New(typ, m)
	if err != nil {
		panic(err) // only possible with zero characteristics
	}
	return t
}

// Type returns the task's type identifier.
func (t Task) Type() Type { return t.typ }

// Characteristics returns the sorted characteristic list. The slice is owned
// by the task and must not be modified.
func (t Task) Characteristics() []Characteristic { return t.chars }

// Weights returns the normalized importance weights parallel to
// Characteristics — Weights()[i] is Weight(Characteristics()[i]) without the
// per-call search. The slice is owned by the task and must not be modified.
func (t Task) Weights() []float64 { return t.weights }

// Weight returns the normalized importance w_i(τ) of characteristic c, or 0
// if the task does not include c.
func (t Task) Weight(c Characteristic) float64 {
	i := sort.Search(len(t.chars), func(i int) bool { return t.chars[i] >= c })
	if i < len(t.chars) && t.chars[i] == c {
		return t.weights[i]
	}
	return 0
}

// Has reports whether the task includes characteristic c.
func (t Task) Has(c Characteristic) bool { return t.Weight(c) > 0 }

// Equal reports whether two tasks are identical: same type, same sorted
// characteristic bag, and exactly equal weights. This is the identity the
// Catalog interns by and the sameness test the per-type memo tables use.
func (t Task) Equal(o Task) bool {
	if t.typ != o.typ || len(t.chars) != len(o.chars) {
		return false
	}
	for i := range t.chars {
		if t.chars[i] != o.chars[i] || t.weights[i] != o.weights[i] {
			return false
		}
	}
	return true
}

// NumCharacteristics returns the number of characteristics in the task.
func (t Task) NumCharacteristics() int { return len(t.chars) }

// String renders the task as "type#N{c0:w0 c1:w1 ...}".
func (t Task) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "type#%d{", t.typ)
	for i, c := range t.chars {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%.2f", c, t.weights[i])
	}
	b.WriteByte('}')
	return b.String()
}

// Universe is a closed set of task types over a characteristic alphabet, as
// used by the transitivity experiments (§5.5): "multiple types of tasks in
// the network. Each task consists of one or two characteristics."
type Universe struct {
	// Tasks lists the task types in the universe, indexed by Type.
	Tasks []Task
	// NumCharacteristics is the size of the characteristic alphabet.
	NumCharacteristics int
}

// NewUniverse draws numTypes distinct task types over an alphabet of
// numChars characteristics; each task gets 1 or 2 characteristics with
// random weights, mirroring the paper's simulation setup.
func NewUniverse(numTypes, numChars int, r *rand.Rand) Universe {
	if numChars < 1 {
		panic("task: universe needs at least one characteristic")
	}
	u := Universe{NumCharacteristics: numChars}
	seen := make(map[string]bool)
	misses := 0
	for len(u.Tasks) < numTypes {
		n := 1 + r.IntN(2)
		if n > numChars {
			n = numChars
		}
		m := make(map[Characteristic]float64, n)
		for len(m) < n {
			m[Characteristic(r.IntN(numChars))] = 0.25 + float64(0.75*r.Float64())
		}
		t, err := New(Type(len(u.Tasks)), m)
		if err != nil {
			panic(err) // unreachable: m is non-empty with positive weights
		}
		key := t.String()[strings.IndexByte(t.String(), '{'):]
		// Prefer distinct characteristic bags, but give up after a bounded
		// number of consecutive collisions (tiny alphabets cannot supply
		// numTypes distinct bags).
		if seen[key] && misses < 8*numTypes+64 {
			misses++
			continue
		}
		misses = 0
		seen[key] = true
		u.Tasks = append(u.Tasks, t)
	}
	return u
}

// Random returns a uniformly random task type from the universe.
func (u Universe) Random(r *rand.Rand) Task {
	return u.Tasks[r.IntN(len(u.Tasks))]
}

// Named characteristics for the examples and documentation. The IDs are
// arbitrary but stable.
const (
	CharGPS Characteristic = iota
	CharImage
	CharVelocity
	CharTemperature
	CharHumidity
	CharAudio
	CharStorage
	CharCompute
)

// CharName returns a human-readable name for the built-in characteristics,
// or "char#N" for others.
func CharName(c Characteristic) string {
	names := map[Characteristic]string{
		CharGPS:         "gps",
		CharImage:       "image",
		CharVelocity:    "velocity",
		CharTemperature: "temperature",
		CharHumidity:    "humidity",
		CharAudio:       "audio",
		CharStorage:     "storage",
		CharCompute:     "compute",
	}
	if n, ok := names[c]; ok {
		return n
	}
	return fmt.Sprintf("char#%d", c)
}
