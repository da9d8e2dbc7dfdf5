package zigbee

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"siot/internal/agent"
	"siot/internal/core"
	"siot/internal/env"
	"siot/internal/task"
)

func TestSimulatorOrdering(t *testing.T) {
	s := newSimulator()
	var got []int
	s.Schedule(5, func() { got = append(got, 2) })
	s.Schedule(1, func() { got = append(got, 1) })
	s.Schedule(5, func() { got = append(got, 3) }) // same time: FIFO by seq
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if s.Now() != 5 {
		t.Fatalf("now = %v", s.Now())
	}
}

func TestSimulatorNestedScheduling(t *testing.T) {
	s := newSimulator()
	var at Ms
	s.Schedule(2, func() {
		s.Schedule(3, func() { at = s.Now() })
	})
	s.Run()
	if at != 5 {
		t.Fatalf("nested event at %v, want 5", at)
	}
}

func TestSimulatorNegativeDelay(t *testing.T) {
	s := newSimulator()
	ran := false
	s.Schedule(-5, func() { ran = true })
	s.Run()
	if !ran || s.Now() != 0 {
		t.Fatal("negative delay mishandled")
	}
}

func TestFrameAirBytes(t *testing.T) {
	f := frame{Src: 1, Dst: 2, PayloadLen: 64}
	if f.airBytes() != 64+macHeaderBytes {
		t.Fatalf("air bytes = %d", f.airBytes())
	}
}

func TestOpticalQuality(t *testing.T) {
	if q := opticalQuality(1); q != 1 {
		t.Fatalf("full light quality = %v", q)
	}
	dark := opticalQuality(0.05)
	if dark < 0.1 || dark > 0.2 {
		t.Fatalf("dark quality = %v", dark)
	}
	if opticalQuality(1) <= opticalQuality(0.3) {
		t.Fatal("quality not increasing with light")
	}
}

func newTestAgent(id core.AgentID, comp float64) *agent.Agent {
	return agent.New(id, agent.KindTrustee, agent.Behavior{BaseCompetence: comp}, core.DefaultUpdateConfig())
}

func TestFormPANAssociatesAll(t *testing.T) {
	n := newNetwork(DefaultConfig(1))
	for i := 0; i < 6; i++ {
		n.AddDevice(Position{X: float64(5 * i), Y: 3}, newTestAgent(core.AgentID(i+1), 0.8))
	}
	joined := 0
	for attempt := 0; attempt < 8 && joined < 6; attempt++ {
		joined = n.FormPAN()
	}
	if joined != 6 {
		t.Fatalf("joined = %d, want 6", joined)
	}
	for _, d := range n.Devices()[1:] {
		if !d.Associated {
			t.Fatalf("device %04x not associated", uint16(d.Addr))
		}
		if d.ActiveMs <= 0 {
			t.Fatal("association consumed no radio time")
		}
	}
}

func TestOutOfRangeDeviceCannotJoin(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.RangeM = 50
	n := newNetwork(cfg)
	n.AddDevice(Position{X: 500, Y: 500}, newTestAgent(1, 0.8))
	if joined := n.FormPAN(); joined != 0 {
		t.Fatalf("out-of-range device joined (%d)", joined)
	}
}

func TestSendMessageFragmentation(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.LossProb = 0 // deterministic delivery
	n := newNetwork(cfg)
	a := n.AddDevice(Position{X: 1}, newTestAgent(1, 0.8))
	b := n.AddDevice(Position{X: 2}, newTestAgent(2, 0.8))
	n.FormPAN()

	completed := false
	n.SendMessage(a.Addr, b.Addr, 200, MessageOpts{FragSize: 64}, func(ok bool) {
		completed = ok
	})
	n.Sim.Run()
	if !completed {
		t.Fatal("message not completed")
	}
	// 200 bytes at frag 64 → 4 fragments (+ association traffic).
	if a.TxFrames < 4 {
		t.Fatalf("tx frames = %d, want >= 4", a.TxFrames)
	}
}

func TestSmallFragmentsCostMoreAirtime(t *testing.T) {
	run := func(fragSize int, delay Ms) Ms {
		cfg := DefaultConfig(4)
		cfg.LossProb = 0
		n := newNetwork(cfg)
		a := n.AddDevice(Position{X: 1}, newTestAgent(1, 0.8))
		b := n.AddDevice(Position{X: 2}, newTestAgent(2, 0.8))
		n.FormPAN()
		before := a.ActiveMs
		n.SendMessage(a.Addr, b.Addr, 512, MessageOpts{FragSize: fragSize, InterFragDelayMs: delay}, nil)
		n.Sim.Run()
		return a.ActiveMs - before
	}
	honest := run(64, 0)
	stall := run(8, 9)
	if stall <= honest*1.5 {
		t.Fatalf("stall airtime %v not clearly above honest %v", stall, honest)
	}
}

func TestDelegateHonestExchange(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.LossProb = 0
	n := newNetwork(cfg)
	tr := n.AddDevice(Position{X: 1}, newTestAgent(1, 0.4))
	te := n.AddDevice(Position{X: 2}, newTestAgent(2, 0.95))
	n.FormPAN()

	tk := task.Uniform(1, task.CharGPS)
	res := n.Delegate(tr.Addr, te.Addr, tk, ExchangeConfig{Light: 1})
	if !res.Delivered {
		t.Fatal("exchange not delivered")
	}
	if res.TrustorActiveMs <= 0 {
		t.Fatalf("timing: active=%v", res.TrustorActiveMs)
	}
	if res.Outcome.Cost <= 0 || res.Outcome.Cost > 1 {
		t.Fatalf("cost = %v", res.Outcome.Cost)
	}
}

func TestDelegateStallerInflatesActiveTime(t *testing.T) {
	cfg := DefaultConfig(6)
	cfg.LossProb = 0
	n := newNetwork(cfg)
	tr := n.AddDevice(Position{X: 1}, newTestAgent(1, 0.4))
	honest := n.AddDevice(Position{X: 2}, newTestAgent(2, 0.9))
	stallAgent := agent.New(3, agent.KindDishonestTrustee, agent.Behavior{
		BaseCompetence: 0.9,
		Malice:         agent.MaliceFragmentStall,
	}, core.DefaultUpdateConfig())
	staller := n.AddDevice(Position{X: 3}, stallAgent)
	n.FormPAN()

	tk := task.Uniform(1, task.CharGPS)
	xc := ExchangeConfig{Light: 1}
	h := n.Delegate(tr.Addr, honest.Addr, tk, xc)
	s := n.Delegate(tr.Addr, staller.Addr, tk, xc)
	if s.TrustorActiveMs <= 1.5*h.TrustorActiveMs {
		t.Fatalf("staller active %v not clearly above honest %v", s.TrustorActiveMs, h.TrustorActiveMs)
	}
	if s.Outcome.Cost <= h.Outcome.Cost {
		t.Fatalf("staller cost %v not above honest %v", s.Outcome.Cost, h.Outcome.Cost)
	}
}

func TestDelegateOpticalDarkDegrades(t *testing.T) {
	count := func(light float64) int {
		cfg := DefaultConfig(7)
		cfg.LossProb = 0
		n := newNetwork(cfg)
		tr := n.AddDevice(Position{X: 1}, newTestAgent(1, 0.4))
		te := n.AddDevice(Position{X: 2}, newTestAgent(2, 0.95))
		n.FormPAN()
		tk := task.Uniform(1, task.CharImage)
		succ := 0
		for i := 0; i < 60; i++ {
			res := n.Delegate(tr.Addr, te.Addr, tk, ExchangeConfig{Light: env.Environment(light), UseOptical: true})
			if res.Outcome.Success {
				succ++
			}
		}
		return succ
	}
	bright := count(1.0)
	dark := count(0.05)
	if dark >= bright {
		t.Fatalf("dark successes %d not below bright %d", dark, bright)
	}
}

func TestReportsCollected(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.LossProb = 0
	n := newNetwork(cfg)
	d := n.AddDevice(Position{X: 1}, newTestAgent(1, 0.5))
	n.FormPAN()
	n.SendReport(d.Addr, true)
	got := n.CollectReports()
	if len(got) != 1 || got[0].From != d.Addr || !got[0].Honest {
		t.Fatalf("reports = %+v", got)
	}
	if len(n.CollectReports()) != 0 {
		t.Fatal("reports not drained")
	}
}

func TestBuildTestbedShape(t *testing.T) {
	tb := BuildTestbed(DefaultTestbedConfig(9))
	if len(tb.Trustors) != 10 || len(tb.Honest) != 10 || len(tb.Dishonest) != 10 {
		t.Fatalf("testbed sizes: %d/%d/%d", len(tb.Trustors), len(tb.Honest), len(tb.Dishonest))
	}
	// 30 devices + coordinator.
	if len(tb.Net.Devices()) != 31 {
		t.Fatalf("devices = %d", len(tb.Net.Devices()))
	}
	for _, d := range tb.Net.Devices()[1:] {
		if !d.Associated {
			t.Fatalf("device %04x failed to join", uint16(d.Addr))
		}
	}
	if !tb.IsHonest(tb.Honest[0].Addr) || tb.IsHonest(tb.Dishonest[0].Addr) {
		t.Fatal("IsHonest misclassifies")
	}
	if len(tb.Trustees()) != 20 {
		t.Fatalf("trustees = %d", len(tb.Trustees()))
	}
}

func TestTestbedDeterministic(t *testing.T) {
	a := BuildTestbed(DefaultTestbedConfig(11))
	b := BuildTestbed(DefaultTestbedConfig(11))
	if math.Abs(a.Honest[0].Agent.Behavior.BaseCompetence-b.Honest[0].Agent.Behavior.BaseCompetence) > 1e-15 {
		t.Fatal("testbed not deterministic across identical seeds")
	}
}

func TestEnergyAccounting(t *testing.T) {
	cfg := DefaultConfig(12)
	cfg.LossProb = 0
	n := newNetwork(cfg)
	a := n.AddDevice(Position{X: 1}, newTestAgent(1, 0.8))
	b := n.AddDevice(Position{X: 2}, newTestAgent(2, 0.8))
	n.FormPAN()
	beforeA, beforeB := a.EnergyMJ, b.EnergyMJ
	n.SendMessage(a.Addr, b.Addr, 256, MessageOpts{}, nil)
	n.Sim.Run()
	if a.EnergyMJ <= beforeA || b.EnergyMJ <= beforeB {
		t.Fatal("transfer consumed no energy")
	}
}

// testbedTraceDigest is the FNV-64 digest of TestTestbedTracePinned's
// script. The figure goldens see only aggregates of the testbed; this pins
// every device's radio time, energy and frame count, every exchange result
// and the collected reports to the bit.
const testbedTraceDigest uint64 = 0x3f857386900c6b9d

func TestTestbedTracePinned(t *testing.T) {
	tb := BuildTestbed(DefaultTestbedConfig(1))
	h := fnv.New64a()
	fold := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	tk := task.Uniform(1, task.CharGPS, task.CharImage)
	lastOK := map[DeviceAddr]bool{}
	for _, xc := range []ExchangeConfig{{Light: 1}, {Light: 0.3, UseOptical: true}} {
		for _, trustor := range tb.Trustors {
			for _, trustee := range tb.GroupTrustees(tb.Group[trustor.Addr]) {
				res := tb.Net.Delegate(trustor.Addr, trustee.Addr, tk, xc)
				fold(flag(res.Delivered))
				fold(flag(res.Outcome.Success))
				fold(math.Float64bits(res.Outcome.Gain))
				fold(math.Float64bits(res.Outcome.Damage))
				fold(math.Float64bits(res.Outcome.Cost))
				fold(math.Float64bits(res.TrustorActiveMs))
				lastOK[trustor.Addr] = res.Outcome.Success
			}
		}
	}
	for _, trustor := range tb.Trustors {
		tb.Net.SendReport(trustor.Addr, lastOK[trustor.Addr])
	}
	reports := tb.Net.CollectReports()
	fold(uint64(len(reports)))
	for _, rep := range reports {
		fold(uint64(rep.From))
		fold(flag(rep.Honest))
	}
	for _, d := range tb.Net.Devices() {
		fold(uint64(d.Addr))
		fold(math.Float64bits(d.ActiveMs))
		fold(math.Float64bits(d.EnergyMJ))
		fold(uint64(d.TxFrames))
	}
	if got := h.Sum64(); got != testbedTraceDigest {
		t.Fatalf("testbed trace digest = %#x, want %#x", got, testbedTraceDigest)
	}
}
