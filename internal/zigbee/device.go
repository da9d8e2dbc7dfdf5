package zigbee

import (
	"siot/internal/agent"
	"siot/internal/env"
)

// Role is a device's network role.
type Role uint8

// Device roles mirror the ZigBee device types.
const (
	RoleCoordinator Role = iota
	RoleRouter
	RoleEndDevice
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleCoordinator:
		return "coordinator"
	case RoleRouter:
		return "router"
	case RoleEndDevice:
		return "end-device"
	default:
		return "unknown"
	}
}

// Position is a 2-D device location in meters, used for the range check.
type Position struct{ X, Y float64 }

// dist2 returns the squared distance between two positions.
func dist2(a, b Position) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// Device is one node of the experimental network.
type Device struct {
	Addr DeviceAddr
	Role Role
	Pos  Position
	// Agent carries the device's behavior and trust state; nil for the
	// coordinator.
	Agent *agent.Agent
	// Associated reports whether the device has joined the PAN.
	Associated bool

	// Sensor is the attached optical sensor, if any (§5.7's devices carry
	// one on the 2.54 mm pin interface).
	Sensor *OpticalSensor

	// Accounting.
	ActiveMs Ms      // cumulative radio-active time (TX + RX of own frames)
	EnergyMJ float64 // cumulative radio energy in millijoules
	TxFrames int
	RxFrames int
	seq      uint8

	// Reports collected by the coordinator (host-side buffer behind the
	// CP2102 link).
	Reports []Report
}

// Report is one application report a device sends to the coordinator for
// host collection.
type Report struct {
	From    DeviceAddr
	AtMs    Ms
	Payload ReportPayload
}

// ReportPayload is the experiment-defined content of a report.
type ReportPayload struct {
	// Honest marks whether the trustee the reporting trustor selected was
	// an honest device (ground truth carried for the coordinator's
	// statistics, as in §5.4's experiments).
	Honest bool
}

// nextSeq returns the next MAC sequence number.
func (d *Device) nextSeq() uint8 {
	d.seq++
	return d.seq
}

// accountTx charges a transmission of durMs to the device.
func (d *Device) accountTx(durMs Ms, powerMw float64) {
	d.ActiveMs += durMs
	d.EnergyMJ += durMs * powerMw / 1000
	d.TxFrames++
}

// accountRx charges a reception of durMs to the device.
func (d *Device) accountRx(durMs Ms, powerMw float64) {
	d.ActiveMs += durMs
	d.EnergyMJ += durMs * powerMw / 1000
	d.RxFrames++
}

// OpticalSensor converts ambient light (modeled as an environment value in
// (0,1]) into a reading quality. The paper's Fig. 16 experiment attaches
// these to every trustee: "with the optical sensors, the performance of the
// trustee node is affected by the lighting condition."
type OpticalSensor struct {
	// DarkFloor is the quality produced in total darkness.
	DarkFloor float64
}

// Quality returns the sensing quality under the given light level.
func (s *OpticalSensor) Quality(light env.Environment) float64 {
	q := s.DarkFloor + (1-s.DarkFloor)*float64(light.Clamp())
	if q > 1 {
		return 1
	}
	return q
}
