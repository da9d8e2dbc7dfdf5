package zigbee

import "fmt"

// DeviceAddr is a 16-bit network short address. The coordinator always owns
// CoordAddr.
type DeviceAddr uint16

// CoordAddr is the coordinator's short address (0x0000 in ZigBee).
const CoordAddr DeviceAddr = 0x0000

// FrameKind is the MAC/APS frame type.
type FrameKind uint8

// Frame kinds. Beacon/association mirror the IEEE 802.15.4 join sequence;
// Data carries APS payloads (possibly fragments); Ack is the MAC
// acknowledgment; Report is the application frame devices send to the
// coordinator for host collection.
const (
	FrameBeaconReq FrameKind = iota
	FrameBeacon
	FrameAssocReq
	FrameAssocResp
	FrameData
	FrameAck
	FrameReport
)

// String names the frame kind.
func (k FrameKind) String() string {
	switch k {
	case FrameBeaconReq:
		return "beacon-req"
	case FrameBeacon:
		return "beacon"
	case FrameAssocReq:
		return "assoc-req"
	case FrameAssocResp:
		return "assoc-resp"
	case FrameData:
		return "data"
	case FrameAck:
		return "ack"
	case FrameReport:
		return "report"
	default:
		return "unknown"
	}
}

// Cluster identifies the application-level message type carried by a data
// frame (the AF cluster ID in Z-Stack terms).
type Cluster uint16

// Application clusters used by the experiments.
const (
	ClusterTaskRequest Cluster = 0x0001
	ClusterTaskResult  Cluster = 0x0002
	ClusterReport      Cluster = 0x0010
)

// Frame is one over-the-air MAC frame.
type Frame struct {
	Kind    FrameKind
	Src     DeviceAddr
	Dst     DeviceAddr
	Seq     uint8
	Cluster Cluster
	// PayloadLen is the APS payload size in bytes (contents are not
	// simulated, only their cost).
	PayloadLen int
	// FragIndex/FragTotal implement APS fragmentation; FragTotal == 1 means
	// an unfragmented message.
	FragIndex int
	FragTotal int
}

// macHeaderBytes approximates the 802.15.4 MHR + NWK + APS header overhead.
const macHeaderBytes = 23

// AirBytes returns the frame's on-air size.
func (f Frame) AirBytes() int { return macHeaderBytes + f.PayloadLen }

// String renders a compact trace line.
func (f Frame) String() string {
	return fmt.Sprintf("%s %04x->%04x seq=%d frag=%d/%d len=%d",
		f.Kind, uint16(f.Src), uint16(f.Dst), f.Seq, f.FragIndex+1, f.FragTotal, f.PayloadLen)
}
