package zigbee

import (
	"math"

	"siot/internal/agent"
	"siot/internal/core"
	"siot/internal/rng"
	"siot/internal/task"
)

// TestbedConfig describes the paper's experimental network (§5.2): five node
// groups, each with two trustors, two honest trustees, and two dishonest
// trustees, plus the coordinator.
type TestbedConfig struct {
	Seed              uint64
	Groups            int
	TrustorsPerGroup  int
	HonestPerGroup    int
	DishonestPerGroup int
	// Malice is the dishonest trustees' behavior.
	Malice agent.Malice
	// MaliceChars marks the characteristics targeted by
	// MaliceCharacteristic.
	MaliceChars map[task.Characteristic]bool
	// Update configures every agent's trust store.
	Update core.UpdateConfig
	// Radio overrides the radio/protocol parameters; zero value uses
	// DefaultConfig(Seed).
	Radio *Config
}

// DefaultTestbedConfig mirrors the paper's setup.
func DefaultTestbedConfig(seed uint64) TestbedConfig {
	return TestbedConfig{
		Seed:              seed,
		Groups:            5,
		TrustorsPerGroup:  2,
		HonestPerGroup:    2,
		DishonestPerGroup: 2,
		Malice:            agent.MaliceCharacteristic,
		MaliceChars:       map[task.Characteristic]bool{task.CharImage: true},
		Update:            core.DefaultUpdateConfig(),
	}
}

// Testbed is a formed experimental network with its devices grouped by role.
type Testbed struct {
	Net       *Network
	Trustors  []*Device
	Honest    []*Device
	Dishonest []*Device
	// Group maps each device address to its node-group index; the paper's
	// trustors interact with the trustees of their own group.
	Group map[DeviceAddr]int
}

// GroupTrustees returns the trustees (honest and dishonest) in the given
// group, in address order.
func (tb *Testbed) GroupTrustees(group int) []*Device {
	var out []*Device
	for _, d := range tb.Trustees() {
		if tb.Group[d.Addr] == group {
			out = append(out, d)
		}
	}
	return out
}

// Trustees returns honest and dishonest trustees interleaved in a stable
// order.
func (tb *Testbed) Trustees() []*Device {
	out := make([]*Device, 0, len(tb.Honest)+len(tb.Dishonest))
	out = append(out, tb.Honest...)
	out = append(out, tb.Dishonest...)
	return out
}

// IsHonest reports whether addr belongs to an honest trustee.
func (tb *Testbed) IsHonest(addr DeviceAddr) bool {
	for _, d := range tb.Honest {
		if d.Addr == addr {
			return true
		}
	}
	return false
}

// BuildTestbed creates the experimental network, positions the groups in a
// circle around the coordinator (well within the 250 m reliable range), and
// forms the PAN. It panics if any device fails to associate after the
// automatic reconnection attempts, mirroring the hardware's retry loop.
func BuildTestbed(cfg TestbedConfig) *Testbed {
	radio := DefaultConfig(cfg.Seed)
	if cfg.Radio != nil {
		radio = *cfg.Radio
	}
	n := newNetwork(radio)
	tb := &Testbed{Net: n, Group: map[DeviceAddr]int{}}
	r := rng.New(cfg.Seed, "testbed")

	for g := 0; g < cfg.Groups; g++ {
		angle := 2 * math.Pi * float64(g) / float64(max(cfg.Groups, 1))
		base := Position{X: float64(60 * math.Cos(angle)), Y: float64(60 * math.Sin(angle))}
		place := func(i int) Position {
			return Position{X: base.X + float64(3*float64(i)), Y: base.Y + float64(2*float64(i%3))}
		}
		slot := 0
		for i := 0; i < cfg.TrustorsPerGroup; i++ {
			b := agent.Behavior{
				BaseCompetence: 0.3 + float64(0.2*r.Float64()),
				Responsibility: 0.8 + float64(0.2*r.Float64()),
			}
			ag := agent.New(0, agent.KindTrustor, b, cfg.Update)
			d := n.AddDevice(place(slot), ag)
			ag.ID = core.AgentID(d.Addr)
			tb.Group[d.Addr] = g
			tb.Trustors = append(tb.Trustors, d)
			slot++
		}
		for i := 0; i < cfg.HonestPerGroup; i++ {
			b := agent.Behavior{BaseCompetence: 0.75 + float64(0.2*r.Float64())}
			ag := agent.New(0, agent.KindTrustee, b, cfg.Update)
			d := n.AddDevice(place(slot), ag)
			ag.ID = core.AgentID(d.Addr)
			tb.Group[d.Addr] = g
			tb.Honest = append(tb.Honest, d)
			slot++
		}
		for i := 0; i < cfg.DishonestPerGroup; i++ {
			b := agent.Behavior{
				BaseCompetence: 0.75 + float64(0.2*r.Float64()),
				Malice:         cfg.Malice,
				MaliceChars:    cfg.MaliceChars,
				StallCost:      0.6,
			}
			ag := agent.New(0, agent.KindDishonestTrustee, b, cfg.Update)
			d := n.AddDevice(place(slot), ag)
			ag.ID = core.AgentID(d.Addr)
			tb.Group[d.Addr] = g
			tb.Dishonest = append(tb.Dishonest, d)
			slot++
		}
	}

	// Form the PAN with the hardware's automatic-reconnection semantics:
	// re-run the join handshake for stragglers a few times.
	for attempt := 0; attempt < 8; attempt++ {
		if joined := n.FormPAN(); joined == len(n.devices)-1 {
			return tb
		}
	}
	panic("zigbee: testbed failed to associate all devices")
}
