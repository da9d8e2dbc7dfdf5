package zigbee

import (
	"siot/internal/agent"
	"siot/internal/env"
)

// Position is a 2-D device location in meters, used for the range check.
type Position struct{ X, Y float64 }

// dist2 returns the squared distance between two positions.
func dist2(a, b Position) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return float64(dx*dx) + float64(dy*dy)
}

// Device is one node of the experimental network.
type Device struct {
	Addr DeviceAddr
	Pos  Position
	// Agent carries the device's behavior and trust state; nil for the
	// coordinator.
	Agent *agent.Agent
	// Associated reports whether the device has joined the PAN.
	Associated bool

	// Accounting.
	ActiveMs Ms      // cumulative radio-active time (TX + RX of own frames)
	EnergyMJ float64 // cumulative radio energy in millijoules
	TxFrames int
}

// Report is one application report a device sends to the coordinator for
// host collection.
type Report struct {
	From DeviceAddr
	// Honest marks whether the trustee the reporting trustor selected was
	// an honest device (ground truth carried for the coordinator's
	// statistics, as in §5.4's experiments).
	Honest bool
}

// accountTx charges a transmission of durMs to the device.
func (d *Device) accountTx(durMs Ms, powerMw float64) {
	d.account(durMs, powerMw)
	d.TxFrames++
}

// account charges durMs of radio activity at powerMw to the device.
func (d *Device) account(durMs Ms, powerMw float64) {
	d.ActiveMs += durMs
	d.EnergyMJ += durMs * powerMw / 1000
}

// darkFloor is the optical sensing quality in total darkness.
const darkFloor = 0.1

// opticalQuality converts ambient light (an environment value in (0,1])
// into the sensing quality of a trustee's optical sensor. The paper's
// Fig. 16 experiment attaches one to every trustee: "with the optical
// sensors, the performance of the trustee node is affected by the lighting
// condition."
func opticalQuality(light env.Environment) float64 {
	q := darkFloor + float64((1-darkFloor)*float64(light.Clamp()))
	if q > 1 {
		return 1
	}
	return q
}
