// Package core implements the paper's trust model for the social IoT: the
// six-ingredient trust process (trustor, trustee, goal, trustworthiness
// evaluation, decision/action/result, context) and its five clarified
// mechanisms —
//
//  1. mutuality of trustor and trustee (eq. 1),
//  2. inferential transfer of trust across tasks sharing characteristics
//     (eqs. 2–4),
//  3. restricted transitivity of trust: traditional product baseline
//     (eq. 5), same-type combination with the mistrust-product term (eq. 7),
//     conservative (eqs. 8–11) and aggressive (eqs. 12–17) methods,
//  4. trustworthiness updated from delegation results via expected success
//     rate, gain, damage, and cost with exponential forgetting
//     (eqs. 18–24), and
//  5. environment-corrected updates using the Cannikin-law removal function
//     (eqs. 25–29).
//
// The package is deliberately free of simulation concerns: it holds per-agent
// trust state and pure decision functions. Packages agent, sim, and zigbee
// animate it.
package core

import (
	"fmt"
	"math"

	"siot/internal/env"
	"siot/internal/task"
)

// AgentID identifies an agent (an autonomous social IoT object). The
// simulation layers map these 1:1 onto social-graph node IDs.
type AgentID int32

// Outcome is the actual result of one delegation (§3.4): whether the trustee
// accomplished the task, and the gain, damage, and cost the trustor actually
// experienced, each expressed in normalized QoS units in [0, 1].
//
// On success the trustor obtains Gain and pays Cost; on failure it suffers
// Damage and pays Cost. The updates below nevertheless track all four
// quantities on every delegation, as the paper's eqs. 19–22 do.
type Outcome struct {
	Success bool
	Gain    float64
	Damage  float64
	Cost    float64
}

// successValue returns the 0/1 observation of the success rate.
func (o Outcome) successValue() float64 {
	if o.Success {
		return 1
	}
	return 0
}

// Expectation is the trustor's current estimate of a trustee on one task:
// the expected success rate Ŝ, gain Ĝ, damage D̂, and cost Ĉ of eqs. 19–22.
type Expectation struct {
	S, G, D, C float64
}

// NetProfit returns the expected net profit Ŝ·Ĝ − (1−Ŝ)·D̂ − Ĉ, the
// bracketed quantity of eq. 18 and the objective of eq. 23.
func (e Expectation) NetProfit() float64 {
	return float64(e.S*e.G) - float64((1-e.S)*e.D) - e.C
}

// Trustworthiness returns the normalized post-evaluation trustworthiness of
// eq. 18: N[Ŝ·Ĝ − (1−Ŝ)·D̂ − Ĉ].
func (e Expectation) Trustworthiness(n Normalizer) float64 {
	return n.Normalize(e.NetProfit())
}

// Validate rejects NaN or infinite components.
func (e Expectation) Validate() error {
	for _, v := range [...]float64{e.S, e.G, e.D, e.C} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: expectation component %v is not finite", v)
		}
	}
	return nil
}

// Normalizer is the N[·] operator of eq. 18: it maps net profits in
// [ProfitLo, ProfitHi] linearly onto trustworthiness in [0, 1], clamping
// outside values. A degenerate range (ProfitHi <= ProfitLo, the zero value
// included) maps every profit to 0; NewStore and sim.NewPopulation replace
// a zero Norm with UnitNormalizer.
type Normalizer struct {
	ProfitLo, ProfitHi float64
}

// UnitNormalizer returns the default normalizer for S, G, D, C ∈ [0, 1]:
// net profits lie in [−2, 1] and map onto trustworthiness in [0, 1].
func UnitNormalizer() Normalizer {
	return Normalizer{ProfitLo: -2, ProfitHi: 1}
}

// Normalize applies N[·] to a net profit.
func (l Normalizer) Normalize(profit float64) float64 {
	if l.ProfitHi <= l.ProfitLo {
		return 0
	}
	v := (profit - l.ProfitLo) / (l.ProfitHi - l.ProfitLo)
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Betas holds the forgetting factors β of eqs. 19–22. The paper notes that
// β may be set to different values in the four updating equations, so each
// field gets its own factor. β weights the *historical* value: β = 0.9
// adapts slowly, β = 0.1 adapts fast.
//
// A note on the paper's "β = 0.1": eqs. 19–22 read Ŝ = β·Ŝ′ + (1−β)·S, under
// which β = 0.1 is nearly memoryless — yet Figs. 13 and 15 show convergence
// over tens to hundreds of iterations, which requires a history weight near
// 0.9. The figures evidently use β as the *observation* weight. This package
// keeps the equations exactly as printed and the experiments set the history
// weight to 0.9, reproducing the figures' dynamics.
type Betas struct {
	S, G, D, C float64
}

// UniformBetas returns the common case of one forgetting factor for all
// four update equations.
func UniformBetas(b float64) Betas { return Betas{S: b, G: b, D: b, C: b} }

// Validate checks every factor lies in [0, 1).
func (b Betas) Validate() error {
	for _, v := range [...]float64{b.S, b.G, b.D, b.C} {
		if math.IsNaN(v) || v < 0 || v >= 1 {
			return fmt.Errorf("core: forgetting factor %v outside [0,1)", v)
		}
	}
	return nil
}

// EnvContext carries the instantaneous environments relevant to one
// delegation: the trustor's E_X, the trustee's E_Y, and the intermediate
// nodes' {E_i} (§4.5).
type EnvContext struct {
	Trustor, Trustee env.Environment
	Intermediates    []env.Environment
}

// PerfectEnv is the neutral context in which correction is a no-op.
func PerfectEnv() EnvContext {
	return EnvContext{Trustor: env.Perfect, Trustee: env.Perfect}
}

// Min returns the Cannikin-law combined environment of the context.
func (c EnvContext) Min() env.Environment {
	return env.Combine(c.Trustor, c.Trustee, c.Intermediates...)
}

// UpdateConfig configures the post-evaluation update.
type UpdateConfig struct {
	// Betas are the forgetting factors of eqs. 19–22 / 25–28.
	Betas Betas
	// EnvCorrection selects eqs. 25–28 (true: observations pass through the
	// removal function r(·) of eq. 29 before the forgetting update) over
	// eqs. 19–22 (false: raw observations — the "traditional method" curve
	// of Fig. 15).
	EnvCorrection bool
	// Init is the expectation used as the historical value for the first
	// observation of a (trustee, task) pair. The paper suggests seeding it
	// from social-relationship metrics; the simulations use a neutral
	// prior.
	Init Expectation
	// Norm is the N[·] operator of eq. 18; NewStore supplies
	// UnitNormalizer when zero.
	Norm Normalizer
	// Catalog interns the tasks of this store's records. Stores sharing a
	// population must share one catalog so their compact arenas can be
	// captured into a single view without ref translation; NewStore supplies
	// a private catalog when nil.
	Catalog *task.Catalog
}

// DefaultUpdateConfig returns the configuration used throughout the paper's
// experiments: history weight 0.9 in all four equations (the paper's
// "forgetting factor 0.1" applied to the observation — see Betas), no
// environment correction, a neutral prior, and the unit normalizer.
func DefaultUpdateConfig() UpdateConfig {
	return UpdateConfig{
		Betas: UniformBetas(0.9),
		Init:  Expectation{S: 0.5, G: 0.5, D: 0.5, C: 0.25},
		Norm:  UnitNormalizer(),
	}
}

// forget applies one exponential-forgetting step: β·hist + (1−β)·obs.
func forget(beta, hist, obs float64) float64 {
	return float64(beta*hist) + float64((1-beta)*obs)
}

// Update applies the post-evaluation update to an expectation given the
// actual outcome of a delegation. Without environment correction this is
// eqs. 19–22; with it, each observation first passes through the removal
// function r(·) of eqs. 25–29 before the forgetting update.
//
// The paper specifies r(·) explicitly only for the success rate (divide by
// the Cannikin minimum environment, eq. 29) and notes that "it is
// relatively hard to construct the function r(·)" in general. This
// implementation applies the direction that removes the environment's
// influence from each factor: positive factors (success, gain) are divided
// by the combined environment — delivery under hostile conditions earns
// extra credit — while negative factors (damage, cost) are multiplied by
// it, because a hostile environment inflates them and removing its
// influence must shrink them back.
//
// Corrected positive observations may exceed 1 transiently (by at most
// 1/E_min); their long-run mean equals the environment-free quantity, which
// is the tracking property Fig. 15 demonstrates.
func Update(old Expectation, obs Outcome, ectx EnvContext, cfg UpdateConfig) Expectation {
	s, g, d, c := obs.successValue(), obs.Gain, obs.Damage, obs.Cost
	if cfg.EnvCorrection {
		// cap 0 disables per-observation capping: the corrected series must
		// stay unbiased so its mean recovers the environment-free value.
		e := float64(ectx.Min())
		s = env.Remove(s, 0, ectx.Trustor, ectx.Trustee, ectx.Intermediates...)
		g = env.Remove(g, 0, ectx.Trustor, ectx.Trustee, ectx.Intermediates...)
		d *= e
		c *= e
	}
	return Expectation{
		S: forget(cfg.Betas.S, old.S, s),
		G: forget(cfg.Betas.G, old.G, g),
		D: forget(cfg.Betas.D, old.D, d),
		C: forget(cfg.Betas.C, old.C, c),
	}
}
