package zigbee

// DeviceAddr is a 16-bit network short address. Addresses are dense: the
// coordinator owns CoordAddr and each added device takes the next one, so an
// address indexes the network's device list.
type DeviceAddr uint16

// CoordAddr is the coordinator's short address (0x0000 in ZigBee).
const CoordAddr DeviceAddr = 0x0000

// Frame is one over-the-air MAC frame. Its contents are not simulated, only
// their cost: a frame is its endpoints and its APS payload size in bytes.
type Frame struct {
	Src, Dst   DeviceAddr
	PayloadLen int
}

// macHeaderBytes approximates the 802.15.4 MHR + NWK + APS header overhead.
const macHeaderBytes = 23

// AirBytes returns the frame's on-air size.
func (f Frame) AirBytes() int { return macHeaderBytes + f.PayloadLen }
