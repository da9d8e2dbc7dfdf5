// Package env models the dynamic environment of §4.5: instantaneous
// environment indicators in (0, 1], schedules that change them over time,
// and the Cannikin-law removal function r(·) (eq. 29) that strips the
// environment's influence from observed delegation results so that normal
// behavior in a hostile environment is not mistaken for malice.
package env

import (
	"fmt"
	"math"
)

// Environment is an instantaneous external-condition indicator in (0, 1]:
// 1 is a perfect (amicable) environment, values near 0 are hostile. In an
// IoT deployment it reflects channel bandwidth, workload, interference,
// lighting, and similar conditions.
type Environment float64

// Clamp returns e forced into (0, 1]; non-positive values become minEnv.
func (e Environment) Clamp() Environment {
	if e <= 0 {
		return minEnv
	}
	if e > 1 {
		return 1
	}
	return e
}

// minEnv is the smallest environment value Clamp produces. It bounds the
// amplification of r(·): an observation can be scaled up by at most 1/minEnv.
const minEnv Environment = 0.05

// Perfect is the amicable environment where observations pass through
// unchanged.
const Perfect Environment = 1

// Combine returns the effective environment of an interaction per the
// Cannikin Law (Wooden Bucket Theory) used by the paper: the worst of the
// trustor's, the trustee's, and every intermediate node's environment
// dominates.
func Combine(trustor, trustee Environment, intermediates ...Environment) Environment {
	m := trustor.Clamp()
	if t := trustee.Clamp(); t < m {
		m = t
	}
	for _, e := range intermediates {
		if c := e.Clamp(); c < m {
			m = c
		}
	}
	return m
}

// Remove implements r(E_X, E_Y, {E_i}, obs) of eq. 29: it divides the
// observation by the combined (minimum) environment, crediting agents that
// deliver under hostile conditions. The result is capped at cap to keep the
// update bounded (the paper normalizes trustworthiness into a fixed range;
// the cap plays that role for a single observation).
func Remove(obs float64, cap float64, trustor, trustee Environment, intermediates ...Environment) float64 {
	e := Combine(trustor, trustee, intermediates...)
	v := obs / float64(e)
	if cap > 0 && v > cap {
		return cap
	}
	return v
}

// Phase is one segment of a PhaseSchedule.
type Phase struct {
	// Len is the number of iterations the phase lasts.
	Len int
	// Env is the environment during the phase.
	Env Environment
}

// PhaseSchedule plays its phases in order and holds the last phase's value
// forever after. The zero value yields Perfect everywhere.
type PhaseSchedule struct {
	Phases []Phase
}

// NewPhaseSchedule validates and builds a phase schedule.
func NewPhaseSchedule(phases ...Phase) (*PhaseSchedule, error) {
	for i, p := range phases {
		if p.Len <= 0 {
			return nil, fmt.Errorf("env: phase %d has non-positive length %d", i, p.Len)
		}
		if p.Env.Validate() != nil {
			return nil, fmt.Errorf("env: phase %d environment %v outside (0,1]", i, p.Env)
		}
	}
	return &PhaseSchedule{Phases: phases}, nil
}

// Fig15Schedule returns the three-phase schedule of the paper's Fig. 15:
// 100 iterations perfect (E=1), 100 deteriorated (E=0.4), 100 partially
// recovered (E=0.7).
func Fig15Schedule() *PhaseSchedule {
	s, err := NewPhaseSchedule(
		Phase{Len: 100, Env: 1},
		Phase{Len: 100, Env: 0.4},
		Phase{Len: 100, Env: 0.7},
	)
	if err != nil {
		panic(err) // phases above are statically valid
	}
	return s
}

// At returns the environment at iteration i (0-based).
func (s *PhaseSchedule) At(i int) Environment {
	if len(s.Phases) == 0 {
		return Perfect
	}
	for _, p := range s.Phases {
		if i < p.Len {
			return p.Env
		}
		i -= p.Len
	}
	return s.Phases[len(s.Phases)-1].Env
}

// TotalLen returns the summed length of all phases.
func (s *PhaseSchedule) TotalLen() int {
	n := 0
	for _, p := range s.Phases {
		n += p.Len
	}
	return n
}

// LightSchedule models the optical-sensor experiment of Fig. 16: a light
// period, a dark period, then light again. During dark phases the
// environment drops to DarkEnv, degrading any task that needs illumination.
type LightSchedule struct {
	LightLen, DarkLen int
	LightEnv, DarkEnv Environment
}

// DefaultLightSchedule mirrors the paper's setup: equal thirds of light,
// dark, and light again over span iterations.
func DefaultLightSchedule(span int) LightSchedule {
	third := span / 3
	if third < 1 {
		third = 1
	}
	return LightSchedule{
		LightLen: third, DarkLen: third,
		LightEnv: 1, DarkEnv: 0.3,
	}
}

// At returns the environment at iteration i (0-based).
func (s LightSchedule) At(i int) Environment {
	switch {
	case i < s.LightLen:
		return s.LightEnv.Clamp()
	case i < s.LightLen+s.DarkLen:
		return s.DarkEnv.Clamp()
	default:
		return s.LightEnv.Clamp()
	}
}

// CombineMean is the ablation counterpart of Combine: it averages instead of
// taking the minimum. Tests demonstrate that the minimum tracks hostile
// bottlenecks that the mean washes out (the reason the paper invokes the
// Cannikin Law).
func CombineMean(trustor, trustee Environment, intermediates ...Environment) Environment {
	sum := float64(trustor.Clamp()) + float64(trustee.Clamp())
	n := 2.0
	for _, e := range intermediates {
		sum += float64(e.Clamp())
		n++
	}
	return Environment(sum / n)
}

// Validate checks that e lies in (0, 1].
func (e Environment) Validate() error {
	if math.IsNaN(float64(e)) || e <= 0 || e > 1 {
		return fmt.Errorf("env: environment %v outside (0,1]", float64(e))
	}
	return nil
}
