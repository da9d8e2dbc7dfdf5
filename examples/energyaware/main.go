// Energy-aware delegation: why trustworthiness must include cost and
// damage, not just the success rate.
//
// Battery-powered sensor nodes serve data requests on the simulated ZigBee
// testbed. One "greedy bait" node delivers excellent results but pads every
// response with fragment packets, draining the requester's radio. A
// success-rate-only trustor keeps choosing it; a net-profit trustor
// (eq. 23) notices the ballooning cost — measured as real radio-active
// time — and routes around it. This is the paper's Fig. 14 scenario as an
// application.
//
// Run with:
//
//	go run ./examples/energyaware
package main

import (
	"fmt"

	"siot"
	"siot/internal/agent"
	"siot/internal/core"
	"siot/internal/task"
	"siot/internal/zigbee"
)

func main() {
	cfg := zigbee.DefaultTestbedConfig(21)
	cfg.Groups = 1
	cfg.TrustorsPerGroup = 1
	cfg.HonestPerGroup = 2
	cfg.DishonestPerGroup = 1
	cfg.Malice = agent.MaliceFragmentStall
	// Battery-powered deployment: radio time is precious, so the measured
	// active time weighs heavily in the cost factor Ĉ.
	radio := zigbee.DefaultConfig(cfg.Seed)
	radio.CostPerActiveMs = 1.0 / 220
	cfg.Radio = &radio
	tb := zigbee.BuildTestbed(cfg)
	// The staller baits with top-grade results.
	tb.Dishonest[0].Agent.Behavior.BaseCompetence = 0.97

	trustor := tb.Trustors[0]
	reading := task.Uniform(1, task.CharTemperature)
	fmt.Printf("testbed: %d devices; trustor %04x; staller %04x\n",
		len(tb.Net.Devices()), uint16(trustor.Addr), uint16(tb.Dishonest[0].Addr))

	run := func(name string, pick func([]core.ExpCandidate) (core.ExpCandidate, bool)) {
		// Fresh expectations per strategy.
		trustor.Agent.Store = core.NewStore(core.AgentID(trustor.Addr), core.DefaultUpdateConfig())
		start := trustor.ActiveMs
		startEnergy := trustor.EnergyMJ
		trustees := tb.GroupTrustees(0)
		for i := 0; i < 30; i++ {
			var trustee *zigbee.Device
			if i < len(trustees) {
				trustee = trustees[i] // try everyone once
			} else {
				var cands []core.ExpCandidate
				for _, d := range trustees {
					cands = append(cands, core.ExpCandidate{ID: core.AgentID(d.Addr), Exp: trustor.Agent.Store.Expectation(core.AgentID(d.Addr), reading.Type())})
				}
				best, _ := pick(cands)
				for _, d := range trustees {
					if core.AgentID(d.Addr) == best.ID {
						trustee = d
					}
				}
			}
			res := tb.Net.Delegate(trustor.Addr, trustee.Addr, reading, zigbee.ExchangeConfig{Light: 1})
			trustor.Agent.Store.Observe(core.AgentID(trustee.Addr), reading, res.Outcome, siot.PerfectEnv())
		}
		fmt.Printf("%-22s radio-active %7.1f ms, energy %6.2f mJ over 30 requests\n",
			name+":", trustor.ActiveMs-start, trustor.EnergyMJ-startEnergy)
	}

	run("success-rate only", func(c []core.ExpCandidate) (core.ExpCandidate, bool) {
		// Blind to damage and cost: score by Ŝ·Ĝ.
		for i := range c {
			c[i].Exp.D = 0
			c[i].Exp.C = 0
		}
		return core.BestByNetProfit(c)
	})
	run("net profit (eq. 23)", core.BestByNetProfit)

	fmt.Println("\nThe cost-aware trustor spends a fraction of the radio energy: the")
	fmt.Println("measured active time enters Ĉ, so the fragment-stalling bait loses")
	fmt.Println("the argmax of eq. 23 despite its excellent success rate.")
}
