package core

// LinkTraffic reports the FLITs observed on one device link, split by
// direction: requests flowing into the device and responses flowing out.
type LinkTraffic struct {
	Dev, Link int
	// ReqFlits counts request FLITs received on the link (from the host
	// or a chained device).
	ReqFlits uint64
	// RspFlits counts response FLITs transmitted on the link.
	RspFlits uint64
}

// Bytes returns the total traffic in bytes (16 bytes per FLIT).
func (t LinkTraffic) Bytes() uint64 { return (t.ReqFlits + t.RspFlits) * 16 }

// LinkTraffic returns the per-link FLIT counters accumulated since
// initialization (or the last Free), in device-major link order.
func (h *HMC) LinkTraffic() []LinkTraffic {
	var out []LinkTraffic
	for _, d := range h.devs {
		for li := range d.Links {
			out = append(out, LinkTraffic{
				Dev: d.ID, Link: li,
				ReqFlits: d.Links[li].ReqFlits,
				RspFlits: d.Links[li].RspFlits,
			})
		}
	}
	return out
}
