package zigbee

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"siot/internal/agent"
	"siot/internal/core"
	"siot/internal/env"
	"siot/internal/rng"
	"siot/internal/task"
)

// The CC2530 radio and protocol constants of the simulated testbed (§5.2),
// from the datasheet ballpark: 250 kbit/s over-the-air rate and ~34 mA TX /
// ~29 mA RX at 3 V.
const (
	bitrateKbps float64 = 250
	txPowerMw   float64 = 102 // ~34 mA * 3 V
	rxPowerMw   float64 = 87  // ~29 mA * 3 V
	// A CSMA backoff is drawn uniformly from [csmaMinMs, csmaMaxMs] per
	// attempt.
	csmaMinMs Ms = 0.3
	csmaMaxMs Ms = 2.0
	// ackTimeoutMs is the retransmission timeout; maxRetries bounds MAC
	// retries for acknowledged frames.
	ackTimeoutMs Ms = 5
	maxRetries      = 3
	// honestFragSize is the APS fragment payload of honest responders.
	honestFragSize = 64
	// processMs is the trustee-side compute time per task.
	processMs Ms = 12
	// requestBytes and responseBytes size the task request and result
	// payloads.
	requestBytes  = 24
	responseBytes = 512
)

// Config holds the testbed settings that callers vary (range, loss and
// the cost scale); the radio itself is fixed by the constants above.
// Defaults give a 250 m reliable range.
type Config struct {
	Seed   uint64
	RangeM float64
	// LossProb is the per-frame loss probability within range.
	LossProb float64
	// CostPerActiveMs converts the trustor's measured radio-active time
	// into the normalized cost factor of the trust model (eq. 18's Ĉ).
	CostPerActiveMs float64
}

// DefaultConfig returns the testbed parameters used by the experiments.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:            seed,
		RangeM:          250,
		LossProb:        0.02,
		CostPerActiveMs: 1.0 / 700,
	}
}

// Network is the simulated PAN: a coordinator plus node devices.
type Network struct {
	Sim *Simulator
	cfg Config
	r   *rand.Rand
	// devices is indexed by address; devices[coordAddr] is the coordinator.
	devices []*Device
	// reports is the coordinator's host-side buffer behind the CP2102 link.
	reports []Report
}

// newNetwork creates a network containing only the coordinator, which
// "scans the RF environment, chooses a channel and a network identifier,
// and starts the network".
func newNetwork(cfg Config) *Network {
	// Channel scan + network start cost a little coordinator airtime: an
	// 802.15.4 scan of a few channels.
	coord := &Device{Addr: coordAddr, Associated: true, ActiveMs: 96}
	return &Network{
		Sim:     newSimulator(),
		cfg:     cfg,
		r:       rng.New(cfg.Seed, "zigbee"),
		devices: []*Device{coord},
	}
}

// AddDevice joins a new node device (not yet associated) at pos with the
// given agent. The returned device's address is the next free one.
func (n *Network) AddDevice(pos Position, ag *agent.Agent) *Device {
	d := &Device{Addr: DeviceAddr(len(n.devices)), Pos: pos, Agent: ag}
	n.devices = append(n.devices, d)
	return d
}

// Devices returns all devices in address order (coordinator first).
func (n *Network) Devices() []*Device { return slices.Clone(n.devices) }

// device returns the device at addr and panics with "zigbee: <what> <addr>"
// when the network has none.
func (n *Network) device(addr DeviceAddr, what string) *Device {
	if int(addr) >= len(n.devices) {
		panic(fmt.Sprintf("zigbee: %s %04x", what, uint16(addr)))
	}
	return n.devices[addr]
}

// inRange reports whether two devices can hear each other.
func (n *Network) inRange(a, b *Device) bool {
	return dist2(a.Pos, b.Pos) <= n.cfg.RangeM*n.cfg.RangeM
}

// airMs returns the on-air duration of a frame.
func (n *Network) airMs(f frame) Ms {
	return float64(f.airBytes()) * 8 / bitrateKbps
}

// backoff draws one CSMA backoff.
func (n *Network) backoff() Ms {
	return csmaMinMs + float64((csmaMaxMs-csmaMinMs)*n.r.Float64())
}

// transmit sends one MAC frame with CSMA backoff, loss, acknowledgment, and
// bounded retransmission. done(ok) fires when the frame is acknowledged or
// abandoned.
func (n *Network) transmit(f frame, done func(ok bool)) {
	n.attemptTransmit(f, 0, done)
}

func (n *Network) attemptTransmit(f frame, attempt int, done func(ok bool)) {
	src := n.device(f.Src, "transmit from unknown device")
	dst := n.device(f.Dst, "transmit to unknown device")
	wait := n.backoff()
	air := n.airMs(f)
	n.Sim.Schedule(wait, func() {
		src.accountTx(air, txPowerMw)
		delivered := n.inRange(src, dst) && n.r.Float64() >= n.cfg.LossProb
		n.Sim.Schedule(air, func() {
			if delivered {
				dst.account(air, rxPowerMw)
				// Every delivered frame is answered by a MAC ack (11 bytes
				// on air).
				ackAir := 11 * 8 / bitrateKbps
				dst.accountTx(ackAir, txPowerMw)
				src.account(ackAir, rxPowerMw)
				done(true)
				return
			}
			// Lost: retry after the ack timeout.
			if attempt+1 <= maxRetries {
				n.Sim.Schedule(ackTimeoutMs, func() {
					n.attemptTransmit(f, attempt+1, done)
				})
				return
			}
			done(false)
		})
	})
}

// MessageOpts tunes one APS message transfer.
type MessageOpts struct {
	// FragSize is the per-fragment payload; <= 0 uses honestFragSize.
	FragSize int
	// InterFragDelayMs is the sender-side pause between fragments. Honest
	// devices use ~0; fragment-stall attackers use large values to prolong
	// the interaction (§5.6).
	InterFragDelayMs Ms
}

// SendMessage transfers totalBytes from src to dst using APS fragmentation.
// onComplete(ok), if not nil, fires when the last fragment is acknowledged
// (ok) or any fragment is abandoned (!ok).
func (n *Network) SendMessage(src, dst DeviceAddr, totalBytes int, opts MessageOpts, onComplete func(ok bool)) {
	frag := opts.FragSize
	if frag <= 0 {
		frag = honestFragSize
	}
	total := (totalBytes + frag - 1) / frag
	if total < 1 {
		total = 1
	}

	var sendFrag func(i int)
	sendFrag = func(i int) {
		size := frag
		if i == total-1 {
			size = totalBytes - frag*(total-1)
			if size <= 0 {
				size = min(totalBytes, frag)
			}
		}
		n.transmit(frame{Src: src, Dst: dst, PayloadLen: size}, func(ok bool) {
			if !ok {
				if onComplete != nil {
					onComplete(false)
				}
				return
			}
			if i+1 < total {
				n.Sim.Schedule(opts.InterFragDelayMs, func() { sendFrag(i + 1) })
				return
			}
			if onComplete != nil {
				onComplete(true)
			}
		})
	}
	sendFrag(0)
}

// FormPAN associates every unassociated device with the coordinator using
// the beacon-request / beacon / association handshake, then runs the
// simulator until the joins settle. It returns the number of devices that
// joined.
func (n *Network) FormPAN() int {
	for _, dev := range n.devices[coordAddr+1:] {
		if dev.Associated {
			continue
		}
		// beacon-req (broadcast, modeled as a frame to the coordinator) →
		// beacon → assoc-req → assoc-resp.
		join := []frame{
			{Src: dev.Addr, Dst: coordAddr, PayloadLen: 8},
			{Src: coordAddr, Dst: dev.Addr, PayloadLen: 26},
			{Src: dev.Addr, Dst: coordAddr, PayloadLen: 16},
			{Src: coordAddr, Dst: dev.Addr, PayloadLen: 27},
		}
		var step func(i int)
		step = func(i int) {
			if i >= len(join) {
				dev.Associated = true
				return
			}
			n.transmit(join[i], func(ok bool) {
				if ok {
					step(i + 1)
				}
				// A failed join leaves the device unassociated; the caller
				// may re-run FormPAN (the hardware's "automatic
				// reconnection").
			})
		}
		step(0)
	}
	n.Sim.Run()
	joined := 0
	for _, d := range n.devices[coordAddr+1:] {
		if d.Associated {
			joined++
		}
	}
	return joined
}

// ExchangeConfig parameterizes one task delegation over the air.
type ExchangeConfig struct {
	// Light is the ambient light / environment at the trustee.
	Light env.Environment
	// UseOptical routes the task through the trustee's optical sensor, so
	// quality is gated by Light (the Fig. 16 setup).
	UseOptical bool
}

// ExchangeResult is the outcome of a Delegate call.
type ExchangeResult struct {
	// Outcome is the trust-model outcome: success/gain/damage from the
	// trustee's behavior, cost from the measured radio-active time.
	Outcome core.Outcome
	// Delivered is false when the request or response was abandoned by the
	// MAC layer.
	Delivered bool
	// TrustorActiveMs is the trustor's radio-active time consumed by the
	// exchange — the quantity Fig. 14 plots.
	TrustorActiveMs Ms
}

// Delegate performs one over-the-air task delegation from trustor to
// trustee and runs the simulator until the exchange completes. Dishonest
// fragment-stall trustees reply in tiny fragments with long pauses,
// inflating the trustor's active time; the measured active time becomes the
// outcome's cost via CostPerActiveMs.
func (n *Network) Delegate(trustor, trustee DeviceAddr, tk task.Task, xc ExchangeConfig) ExchangeResult {
	tDev := n.device(trustor, "unknown trustor")
	eDev := n.device(trustee, "unknown trustee")
	if eDev.Agent == nil {
		panic("zigbee: trustee has no agent")
	}
	activeBefore := tDev.ActiveMs
	var res ExchangeResult

	// Request (single message), then processing, then response.
	n.SendMessage(trustor, trustee, requestBytes, MessageOpts{}, func(ok bool) {
		if !ok {
			return // res.Delivered stays false
		}
		n.Sim.Schedule(processMs, func() {
			effEnv := xc.Light
			if xc.UseOptical {
				effEnv = env.Environment(opticalQuality(xc.Light)).Clamp()
			}
			actRng := rng.Split(n.cfg.Seed, "act", int(trustor)<<16|int(trustee)+int(n.Sim.Processed))
			out := eDev.Agent.Act(tk, effEnv, actRng)
			opts := MessageOpts{}
			if eDev.Agent.Behavior.Malice == agent.MaliceFragmentStall {
				// Fragment packets: tiny payloads, long pauses.
				opts.FragSize = 8
				opts.InterFragDelayMs = 9
			}
			n.SendMessage(trustee, trustor, responseBytes, opts, func(ok bool) {
				if !ok {
					return
				}
				res.Delivered = true
				res.Outcome = out
			})
		})
	})
	n.Sim.Run()

	res.TrustorActiveMs = tDev.ActiveMs - activeBefore
	if !res.Delivered {
		res.Outcome = core.Outcome{Success: false, Damage: 0.5}
	}
	// The trustor's real cost is the radio time the exchange consumed.
	res.Outcome.Cost = clamp01(res.TrustorActiveMs * n.cfg.CostPerActiveMs)
	return res
}

// SendReport transmits an application report to the coordinator, runs the
// simulator until it lands, and stores it in the coordinator's host-side
// buffer on delivery.
func (n *Network) SendReport(from DeviceAddr, honest bool) {
	n.transmit(frame{Src: from, Dst: coordAddr, PayloadLen: 32}, func(ok bool) {
		if ok {
			n.reports = append(n.reports, Report{From: from, Honest: honest})
		}
	})
	n.Sim.Run()
}

// CollectReports drains the coordinator's report buffer, in arrival order
// (the host computer pulling data through the CP2102 serial link).
func (n *Network) CollectReports() []Report {
	out := n.reports
	n.reports = nil
	return out
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
