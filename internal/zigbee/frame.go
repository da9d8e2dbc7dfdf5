package zigbee

// DeviceAddr is a 16-bit network short address. Addresses are dense: the
// coordinator owns coordAddr and each added device takes the next one, so an
// address indexes the network's device list.
type DeviceAddr uint16

// coordAddr is the coordinator's short address (0x0000 in ZigBee).
const coordAddr DeviceAddr = 0x0000

// frame is one over-the-air MAC frame. Its contents are not simulated, only
// their cost: a frame is its endpoints and its APS payload size in bytes.
type frame struct {
	Src, Dst   DeviceAddr
	PayloadLen int
}

// macHeaderBytes approximates the 802.15.4 MHR + NWK + APS header overhead.
const macHeaderBytes = 23

// airBytes returns the frame's on-air size.
func (f frame) airBytes() int { return macHeaderBytes + f.PayloadLen }
