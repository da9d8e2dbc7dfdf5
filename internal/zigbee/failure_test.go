package zigbee

import (
	"testing"

	"siot/internal/agent"
	"siot/internal/core"
	"siot/internal/task"
)

// Failure-injection tests: the protocol layer under loss, partition, and
// runaway conditions.

func TestDelegateUnderHeavyLoss(t *testing.T) {
	cfg := DefaultConfig(31)
	cfg.LossProb = 0.35 // well beyond normal interference
	n := newNetwork(cfg)
	tr := n.AddDevice(Position{X: 1}, newTestAgent(1, 0.5))
	te := n.AddDevice(Position{X: 2}, newTestAgent(2, 0.9))
	for i := 0; i < 8; i++ {
		if n.FormPAN() == 2 {
			break
		}
	}
	tk := task.Uniform(1, task.CharGPS)
	delivered, failed := 0, 0
	for i := 0; i < 40; i++ {
		res := n.Delegate(tr.Addr, te.Addr, tk, ExchangeConfig{Light: 1})
		if res.Delivered {
			delivered++
		} else {
			failed++
			// An abandoned exchange is a failure with damage, never a
			// phantom success.
			if res.Outcome.Success {
				t.Fatal("abandoned exchange reported success")
			}
			if res.Outcome.Damage <= 0 {
				t.Fatal("abandoned exchange carries no damage")
			}
		}
		// The cost accounting must remain sane either way.
		if res.Outcome.Cost < 0 || res.Outcome.Cost > 1 {
			t.Fatalf("cost out of range: %v", res.Outcome.Cost)
		}
	}
	if delivered == 0 {
		t.Fatal("no exchange survived 35% loss with retries")
	}
	if failed == 0 {
		t.Fatal("35% loss never abandoned an exchange (retry model too forgiving)")
	}
}

func TestTotalLossPartitionsNetwork(t *testing.T) {
	cfg := DefaultConfig(32)
	cfg.LossProb = 1
	n := newNetwork(cfg)
	n.AddDevice(Position{X: 1}, newTestAgent(1, 0.5))
	if joined := n.FormPAN(); joined != 0 {
		t.Fatalf("device joined through a fully lossy channel (%d)", joined)
	}
}

func TestDelegateFailureStillChargesRadioTime(t *testing.T) {
	cfg := DefaultConfig(33)
	cfg.LossProb = 1 // after association we cut the link entirely
	n := newNetwork(cfg)
	n.cfg.LossProb = 0
	tr := n.AddDevice(Position{X: 1}, newTestAgent(1, 0.5))
	te := n.AddDevice(Position{X: 2}, newTestAgent(2, 0.9))
	n.FormPAN()
	n.cfg.LossProb = 1

	before := tr.ActiveMs
	res := n.Delegate(tr.Addr, te.Addr, task.Uniform(1, task.CharGPS),
		ExchangeConfig{Light: 1})
	if res.Delivered {
		t.Fatal("exchange delivered through a dead link")
	}
	if tr.ActiveMs <= before {
		t.Fatal("failed exchange consumed no radio time (retries must cost)")
	}
}

func TestSimulatorRunawayGuard(t *testing.T) {
	s := newSimulator()
	s.MaxEvents = 100
	var loop func()
	loop = func() { s.Schedule(1, loop) }
	s.Schedule(1, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("runaway event loop not caught")
		}
	}()
	s.Run()
}

func TestTransmitUnknownDevicePanics(t *testing.T) {
	n := newNetwork(DefaultConfig(34))
	defer func() {
		if recover() == nil {
			t.Fatal("transmit to unknown device did not panic")
		}
	}()
	n.transmit(frame{Src: coordAddr, Dst: 0x99}, nil)
}

func TestDelegateUnknownTrusteePanics(t *testing.T) {
	n := newNetwork(DefaultConfig(35))
	tr := n.AddDevice(Position{X: 1}, newTestAgent(1, 0.5))
	n.FormPAN()
	defer func() {
		if recover() == nil {
			t.Fatal("unknown trustee did not panic")
		}
	}()
	n.Delegate(tr.Addr, 0x77, task.Uniform(1, task.CharGPS), ExchangeConfig{})
}

func TestFig14StallerDetectionSurvivesLoss(t *testing.T) {
	// The cost signal must remain usable under realistic loss: a staller's
	// active time stays above an honest trustee's.
	cfg := DefaultConfig(37)
	cfg.LossProb = 0.1
	n := newNetwork(cfg)
	tr := n.AddDevice(Position{X: 1}, newTestAgent(1, 0.5))
	honest := n.AddDevice(Position{X: 2}, newTestAgent(2, 0.9))
	st := agent.New(3, agent.KindDishonestTrustee, agent.Behavior{
		BaseCompetence: 0.9, Malice: agent.MaliceFragmentStall,
	}, core.DefaultUpdateConfig())
	staller := n.AddDevice(Position{X: 3}, st)
	for i := 0; i < 8; i++ {
		n.FormPAN()
	}
	tk := task.Uniform(1, task.CharGPS)
	xc := ExchangeConfig{Light: 1}
	var honestMs, stallMs Ms
	for i := 0; i < 10; i++ {
		honestMs += n.Delegate(tr.Addr, honest.Addr, tk, xc).TrustorActiveMs
		stallMs += n.Delegate(tr.Addr, staller.Addr, tk, xc).TrustorActiveMs
	}
	if stallMs <= honestMs {
		t.Fatalf("loss washed out the stall signal: %v <= %v", stallMs, honestMs)
	}
}
