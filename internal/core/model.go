package core

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"siot/internal/task"
)

// This file is the trust-model zoo: the paper's three §4.3 policies are one
// point in the design space the related work maps out (Hellinger-based
// matrix-factorization trust, feature-weighted trust quantification, ...).
// TrustModel abstracts the per-hop evaluation those policies share, so every
// model — Traditional, Conservative and Aggressive included — plugs into the
// same frozen-view search, EdgeMemo pre-pass, transitivity sweeps, serving layer,
// and attack suite.

// CombineRule selects how path values accumulate along a recommendation
// chain.
type CombineRule uint8

const (
	// combineProduct is the plain product of eq. 5 (the traditional
	// baseline's accumulation).
	combineProduct CombineRule = iota
	// combineMistrust is eq. 7's CombinePair: a·b + (1−a)·(1−b), crediting
	// the case where a distrusted intermediate misjudges.
	combineMistrust
)

// String names the rule for descriptors and diagnostics.
func (r CombineRule) String() string {
	if r == combineProduct {
		return "product"
	}
	return "mistrust"
}

// ModelSpec is a model's combine/threshold descriptor: everything the
// search needs to drive the model besides its per-hop value.
type ModelSpec struct {
	// Combine selects the path-accumulation rule.
	Combine CombineRule
	// OmegaGated applies the searcher's ω1/ω2 thresholds to hop values
	// (relay requires hop ≥ ω1, candidacy hop ≥ ω2). When false any
	// positive hop relays and mints — the traditional baseline's
	// "without any restriction" rule.
	OmegaGated bool
	// PerCharacteristic marks models evaluated one characteristic at a
	// time along independent paths (the aggressive policy, eqs. 12–17):
	// each characteristic's hops are the model's HopTW on that
	// characteristic's unit task, and the task-weighted sum of the
	// per-characteristic path values (eq. 17) is the candidate's value.
	PerCharacteristic bool
}

// unitType is the task type of characteristic c's unit task: negative, so it
// never collides with a real task type.
func unitType(c task.Characteristic) task.Type { return task.Type(-1 - int(c)) }

// unitTask is the one-characteristic task a PerCharacteristic model is
// evaluated on: c alone at weight 1. Aggressive's HopTW on it is
// charTWCompact bit for bit (eq. 4 with one term: 0 + 1·x = x).
func unitTask(c task.Characteristic) task.Task { return task.Uniform(unitType(c), c) }

// HopContext carries the frozen-epoch resolution state a hop evaluation
// needs: the catalog snapshot the records' task refs resolve against and
// the trustworthiness normalizer.
type HopContext struct {
	Tasks []task.Task
	Norm  Normalizer
}

// TrustModel scores one hop of trust evidence: given the compact experience
// records a holder keeps about a neighbor, produce the hop trustworthiness
// for a task, or ok=false when the evidence does not admit the hop. A model
// must be pure and safe for concurrent use; HopTW values must stay in
// [0, 1]. Implementations that also satisfy EpochTrainable are fitted once
// per frozen epoch, and the search reads the hop values training fills
// instead.
type TrustModel interface {
	// Name is the model's registry key, stable across releases — it feeds
	// CLI flags, journal headers, and the deterministic outcome-stream
	// labels of the sweeps, so renaming a model re-keys its draws.
	Name() string
	// Spec describes how the search drives the model.
	Spec() ModelSpec
	// HopTW evaluates one hop from the edge's records.
	HopTW(ctx HopContext, recs []CompactRecord, t task.Task) (float64, bool)
}

// EpochTrainable marks models that fit parameters against a frozen epoch
// (matrix factorizations, learned weightings). TrainEpoch fills vals, one
// entry per edge of view, with each edge's hop value, blocked (NaN) where
// the hop is not admitted; every task the model is searched for reads that
// one table, so a trainable model cannot be PerCharacteristic (RegisterModel
// refuses one). TrainEpoch must be deterministic for a given view at every
// worker count — vals must be bit-identical whether training ran on 1 or 8
// goroutines. EdgeMemo.RequireModel trains once per epoch and the search
// reads the trained table, never the plain HopTW; an untrained model's
// searches fail with ErrNotRequired.
type EpochTrainable interface {
	TrustModel
	TrainEpoch(view *TrustView, norm Normalizer, workers int, vals []float64)
}

// paperModel is one of the paper's §4.3 trust-transfer methods; the Spec
// and the hop rule (exact-type records or eq. 4 inference) tell the three
// apart.
type paperModel struct {
	name      string
	spec      ModelSpec
	exactType bool
}

// The paper's three trust-transfer methods (§4.3), registered under the
// names its figures use.
var (
	// Traditional is the baseline of eq. 5: trustworthiness transfers only
	// through records of the exact same task type, combined by product.
	Traditional TrustModel = &paperModel{name: "traditional", spec: ModelSpec{Combine: combineProduct}, exactType: true}
	// Conservative (eqs. 8–11) transfers through a single path on which
	// every hop's experience covers all characteristics of the task,
	// combined by eq. 7.
	Conservative TrustModel = &paperModel{name: "conservative", spec: ModelSpec{Combine: combineMistrust, OmegaGated: true}}
	// Aggressive (eqs. 12–17) assesses each characteristic along its own
	// path and combines the per-characteristic estimates with the task's
	// weights (eq. 17).
	Aggressive TrustModel = &paperModel{name: "aggressive", spec: ModelSpec{Combine: combineMistrust, OmegaGated: true, PerCharacteristic: true}}
)

func (m *paperModel) Name() string    { return m.name }
func (m *paperModel) Spec() ModelSpec { return m.spec }

// HopTW is the exact-type record trustworthiness for the traditional
// baseline (eq. 5) and the full-coverage inference of eq. 4 otherwise
// (conservative, eqs. 8–10). The aggressive method is searched on unit
// tasks, where eq. 4 reduces to one characteristic's weighted average; the
// task-weighted sum of those (EdgeMemo.RequireLens) is its full-coverage
// inference over a whole task, bit for bit.
func (m *paperModel) HopTW(ctx HopContext, recs []CompactRecord, t task.Task) (float64, bool) {
	if len(recs) == 0 {
		return 0, false
	}
	if m.exactType {
		typ := t.Type()
		for _, r := range recs {
			if ctx.Tasks[r.Ref].Type() == typ {
				return r.TW(ctx.Norm), true
			}
		}
		return 0, false
	}
	return inferFromCompact(ctx.Tasks, recs, t, ctx.Norm)
}

// modelRegistry maps registered model names to instances. Registration
// happens in init functions; lookups after init are read-only.
var modelRegistry = struct {
	mu     sync.RWMutex
	byName map[string]TrustModel
}{byName: make(map[string]TrustModel)}

// RegisterModel adds a model to the registry under m.Name. It panics on an
// empty or duplicate name — the name keys journal headers and deterministic
// rng labels, so a collision would silently cross-wire two models — and on
// an EpochTrainable model whose Spec is PerCharacteristic, which its one
// trained table cannot serve.
func RegisterModel(m TrustModel) {
	name := m.Name()
	_, trainable := m.(EpochTrainable)
	modelRegistry.mu.Lock()
	defer modelRegistry.mu.Unlock()
	if _, dup := modelRegistry.byName[name]; name == "" || dup || trainable && m.Spec().PerCharacteristic {
		panic(fmt.Sprintf("core: RegisterModel %q: empty or duplicate name, or a PerCharacteristic EpochTrainable model", name))
	}
	modelRegistry.byName[name] = m
}

// ParseModel resolves a registered model name, the paper's three methods
// included.
func ParseModel(s string) (TrustModel, error) {
	modelRegistry.mu.RLock()
	m, ok := modelRegistry.byName[s]
	modelRegistry.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown trust model %q (want one of %v)", s, ModelNames())
	}
	return m, nil
}

// ModelNames returns the sorted names of every registered model.
func ModelNames() []string {
	modelRegistry.mu.RLock()
	defer modelRegistry.mu.RUnlock()
	return slices.Sorted(maps.Keys(modelRegistry.byName))
}

func init() {
	for _, m := range []TrustModel{Traditional, Conservative, Aggressive} {
		RegisterModel(m)
	}
}
