// Package siot is a Go implementation of the trust model for the Social
// Internet of Things from Lin & Dong, "Clarifying Trust in Social Internet
// of Things" (IEEE TKDE; ICDE 2018 extended abstract).
//
// Trust here is a process, not a number: a trustor evaluates potential
// trustees (eq. 1, mutually — the trustee evaluates back), decides (eq. 23,
// possibly keeping the task, eq. 24), delegates, and folds the observed
// result into its expectations (eqs. 19–22) with optional environment
// correction (eqs. 25–29). Tasks are weighted bags of characteristics, so
// experience transfers between different tasks that share characteristics
// (eqs. 2–4), and trust transits through the social graph under
// policy-controlled restrictions (eqs. 5–17).
//
// The package is a facade over the implementation packages:
//
//   - the trust engine (expectations, updates, selection, transitivity),
//   - the task/characteristic model,
//   - the environment model,
//   - social-network generation calibrated to the paper's Table 1,
//   - a population simulator for the paper's §5 experiments, and
//   - a discrete-event ZigBee testbed simulator standing in for the paper's
//     CC2530 hardware.
//
// # Quickstart
//
//	store := siot.NewStore(1, siot.DefaultUpdateConfig())
//	tk := siot.UniformTask(1, siot.CharGPS, siot.CharImage)
//	store.Observe(2, tk, siot.Outcome{Success: true, Gain: 0.9, Cost: 0.1}, siot.PerfectEnv())
//	tw, _ := store.BestTW(2, tk)
//
// See examples/ for complete programs and cmd/siot-bench for the
// reproduction of every table and figure in the paper's evaluation.
package siot

import (
	"io"

	"siot/internal/core"
	"siot/internal/env"
	"siot/internal/task"
)

// ---- Trust engine (internal/core) ----

// AgentID identifies an agent (an autonomous social IoT object).
type AgentID = core.AgentID

// Outcome is the actual result of one delegation: success plus the
// realized gain, damage, and cost in normalized units.
type Outcome = core.Outcome

// Expectation is a trustor's running estimate (Ŝ, Ĝ, D̂, Ĉ) of a trustee on
// one task (eqs. 19–22).
type Expectation = core.Expectation

// Normalizer is the N[·] operator of eq. 18: it maps the net-profit
// interval [ProfitLo, ProfitHi] linearly onto trustworthiness in [0, 1],
// clamping outside values. A zero Normalizer in an UpdateConfig means
// UnitNormalizer.
type Normalizer = core.Normalizer

// Betas holds the per-equation forgetting factors β.
type Betas = core.Betas

// UpdateConfig configures the post-evaluation update.
type UpdateConfig = core.UpdateConfig

// EnvContext carries the instantaneous environments of one delegation.
type EnvContext = core.EnvContext

// Store holds one agent's trust state: experience records about trustees
// and usage logs about trustors.
type Store = core.Store

// Record is accumulated experience about one (trustee, task type) pair.
type Record = core.Record

// SeedRecord is one entry of a bulk seeding batch for Store.SeedSorted:
// the trustee, the task, and the expectation to install. Batches sorted
// ascending by (Trustee, task type) ingest in one pass — the fast path
// behind large-population experiment setup.
type SeedRecord = core.SeedRecord

// UsageLog is the trustee-side record behind the reverse evaluation.
type UsageLog = core.UsageLog

// Candidate pairs a potential trustee with its perceived trustworthiness.
type Candidate = core.Candidate

// ExpCandidate pairs a potential trustee with the full expectation.
type ExpCandidate = core.ExpCandidate

// The paper's three trust-transfer methods (§4.3), as registered
// TrustModels.
var (
	// Traditional is the eq. 5 product baseline.
	Traditional = core.Traditional
	// Conservative requires every characteristic on one path (eqs. 8–11).
	Conservative = core.Conservative
	// Aggressive assembles characteristics across paths (eqs. 12–17).
	Aggressive = core.Aggressive
)

// TrustModel is one pluggable trust-evaluation method of the model zoo: a
// named single-hop lens plus a combine/threshold descriptor, dispatchable
// through the transitivity search, the frozen-epoch memo, and the serving
// engine. Traditional, Conservative and Aggressive are registered under
// their names in the paper's figures.
type TrustModel = core.TrustModel

// ModelSpec describes how a model's hop values combine along a path.
type ModelSpec = core.ModelSpec

// EpochTrainable is a TrustModel fit per frozen epoch (e.g. hellinger-mf).
type EpochTrainable = core.EpochTrainable

// ParseModel resolves a registered trust-model name ("traditional",
// "hellinger-mf", ...). Unknown names error.
func ParseModel(s string) (TrustModel, error) { return core.ParseModel(s) }

// ModelNames lists the registered trust models in sorted order.
func ModelNames() []string { return core.ModelNames() }

// RegisterModel adds a trust model to the process-wide registry; it panics
// on an empty or duplicate name, and on an EpochTrainable model whose Spec
// sets PerCharacteristic, which its one trained table cannot serve.
func RegisterModel(m TrustModel) { core.RegisterModel(m) }

// NewStore creates an empty trust store for an agent.
func NewStore(owner AgentID, cfg UpdateConfig) *Store { return core.NewStore(owner, cfg) }

// DefaultUpdateConfig returns the configuration the paper's experiments
// use.
func DefaultUpdateConfig() UpdateConfig { return core.DefaultUpdateConfig() }

// UnitNormalizer maps net profits in [−2, 1] onto trustworthiness in
// [0, 1].
func UnitNormalizer() Normalizer { return core.UnitNormalizer() }

// UniformBetas returns one forgetting factor for all four update equations.
func UniformBetas(b float64) Betas { return core.UniformBetas(b) }

// PerfectEnv is the neutral environment context.
func PerfectEnv() EnvContext { return core.PerfectEnv() }

// Update applies the post-evaluation update (eqs. 19–22 / 25–29).
func Update(old Expectation, obs Outcome, ectx EnvContext, cfg UpdateConfig) Expectation {
	return core.Update(old, obs, ectx, cfg)
}

// CombinePair is the two-hop trust transition of eq. 7.
func CombinePair(a, b float64) float64 { return core.CombinePair(a, b) }

// CombineSerial folds eq. 7 along a recommendation chain.
func CombineSerial(vals ...float64) float64 { return core.CombineSerial(vals...) }

// ProductSerial is the traditional transitivity of eq. 5.
func ProductSerial(vals ...float64) float64 { return core.ProductSerial(vals...) }

// TransitSameType evaluates the same-task-type transition of Fig. 4.
func TransitSameType(recTW, trusteeTW, omega1, omega2 float64) (float64, bool) {
	return core.TransitSameType(recTW, trusteeTW, omega1, omega2)
}

// SelectMutual implements the mutual-evaluation selection of eq. 1.
func SelectMutual(cands []Candidate, accept func(AgentID) bool) (Candidate, bool) {
	return core.SelectMutual(cands, accept)
}

// BestByNetProfit implements the rational assignment of eq. 23.
func BestByNetProfit(cands []ExpCandidate) (ExpCandidate, bool) {
	return core.BestByNetProfit(cands)
}

// BestBySuccessRate is the success-rate-only baseline strategy.
func BestBySuccessRate(cands []ExpCandidate) (ExpCandidate, bool) {
	return core.BestBySuccessRate(cands)
}

// ShouldDelegate implements eq. 24: delegate only when the trustee's
// expected net profit strictly beats self-execution.
func ShouldDelegate(self, trustee Expectation) bool { return core.ShouldDelegate(self, trustee) }

// DecideWithSelf runs the full §4.4 decision with self-delegation.
func DecideWithSelf(self Expectation, selfID AgentID, cands []ExpCandidate) (ExpCandidate, bool) {
	return core.DecideWithSelf(self, selfID, cands)
}

// LoadStore restores a trust store from a Store.Save snapshot, attaching
// the given update configuration. Trust state is expensive to re-learn, so
// devices snapshot it across reboots.
func LoadStore(r io.Reader, cfg UpdateConfig) (*Store, error) {
	return core.LoadStore(r, cfg)
}

// ---- Tasks and characteristics (internal/task) ----

// Task is a delegable unit of work: a type plus weighted characteristics.
type Task = task.Task

// Characteristic identifies one capability a task requires.
type Characteristic = task.Characteristic

// TaskType identifies a task type (the task context of the model).
type TaskType = task.Type

// TaskUniverse is a closed set of task types over an alphabet.
type TaskUniverse = task.Universe

// Built-in characteristics used by the examples.
const (
	CharGPS         = task.CharGPS
	CharImage       = task.CharImage
	CharVelocity    = task.CharVelocity
	CharTemperature = task.CharTemperature
	CharHumidity    = task.CharHumidity
	CharAudio       = task.CharAudio
	CharStorage     = task.CharStorage
	CharCompute     = task.CharCompute
)

// NewTask builds a task from characteristic→weight pairs.
func NewTask(typ TaskType, weighted map[Characteristic]float64) (Task, error) {
	return task.New(typ, weighted)
}

// UniformTask builds a task whose characteristics carry equal weight.
func UniformTask(typ TaskType, chars ...Characteristic) Task {
	return task.Uniform(typ, chars...)
}

// CharName returns a human-readable name for built-in characteristics.
func CharName(c Characteristic) string { return task.CharName(c) }

// ---- Environment (internal/env) ----

// Environment is an instantaneous external-condition indicator in (0, 1].
type Environment = env.Environment

// PhaseSchedule plays fixed-length environment phases in order.
type PhaseSchedule = env.PhaseSchedule

// EnvPhase is one segment of a PhaseSchedule.
type EnvPhase = env.Phase

// NewPhaseSchedule validates and builds a phase schedule.
func NewPhaseSchedule(phases ...EnvPhase) (*PhaseSchedule, error) {
	return env.NewPhaseSchedule(phases...)
}

// LightSchedule models the light/dark/light optical experiment.
type LightSchedule = env.LightSchedule

// CombineEnv returns the Cannikin-law (minimum) combined environment.
func CombineEnv(trustor, trustee Environment, intermediates ...Environment) Environment {
	return env.Combine(trustor, trustee, intermediates...)
}

// RemoveEnv is the removal function r(·) of eq. 29.
func RemoveEnv(obs, cap float64, trustor, trustee Environment, intermediates ...Environment) float64 {
	return env.Remove(obs, cap, trustor, trustee, intermediates...)
}
