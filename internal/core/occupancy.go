package core

import (
	"math/bits"

	"hmcsim/internal/packet"
)

// This file holds the occupancy index (DESIGN.md §9): one bit per queue,
// set exactly while the queue holds a packet, so that everything the
// engine does once per cycle — clearing the cycle flags, the crossbar,
// vault and response stages, the quiescence test, the wheel's wake-up
// search — visits the queues with something in them and not the queues
// the device contains. The queues maintain their own bits (queue.Bind);
// the engine only reads the words. The index is derived state: a pure
// function of the queues' lengths, never checkpointed or digested,
// rebuilt by the pushes of Restore and audited by check.Verify.

// devOcc is one device's entry in the index. Bit l of rqst (rsp) is set
// while Links[l].RqstQ (RspQ) is non-empty, bit v of vrqst (vrsp) while
// Vaults[v].RqstQ (RspQ) is.
type devOcc struct {
	rqst, rsp   uint64
	vrqst, vrsp uint64
}

// nextBit returns the index of the lowest set bit of word at or above
// from, or 64 when there is none. Loops re-read the word through it on
// every step, so they see exactly the queues a scan testing Len() at
// each index would: a queue emptied or filled during the walk is left
// out or picked up just as there.
func nextBit(word uint64, from int) int {
	return bits.TrailingZeros64(word &^ (1<<uint(from) - 1))
}

// bindOccupancy allocates the index and binds every queue of every device
// to its bit. It runs once, from New: the queues keep the words right
// from then on, through Free and Restore included. It also allocates the
// vault passes' winner lists (HMC.win): every winner claims a bank of the
// 64-bit claim mask, so a vault has at most min(banks, queue depth) of
// them.
func (h *HMC) bindOccupancy() {
	h.winCap = min(h.cfg.NumBanks, h.cfg.QueueDepth)
	units := len(h.devs) * h.cfg.NumVaults
	h.win = make([]int32, units*h.winCap)
	h.winN = make([]int32, units)
	h.occ = make([]devOcc, len(h.devs))
	for i, d := range h.devs {
		o := &h.occ[i]
		for l := range d.Links {
			d.Links[l].RqstQ.Bind(&o.rqst, uint(l))
			d.Links[l].RspQ.Bind(&o.rsp, uint(l))
		}
		for v := range d.Vaults {
			d.Vaults[v].RqstQ.Bind(&o.vrqst, uint(v))
			d.Vaults[v].RspQ.Bind(&o.vrsp, uint(v))
		}
	}
}

// OccupancyWords is a copy of one device's entry in the occupancy index:
// bit l of Rqst (Rsp) claims that Links[l].RqstQ (RspQ) is non-empty, bit
// v of VaultRqst (VaultRsp) that Vaults[v].RqstQ (RspQ) is.
type OccupancyWords struct {
	Rqst, Rsp           uint64
	VaultRqst, VaultRsp uint64
}

// OccupancyIndex returns a copy of the occupancy index, one entry per
// device, and the count of occupied link-retry buffers the engine
// believes in, for check.Verify to hold against a scan of the queues and
// buffers.
func (h *HMC) OccupancyIndex() (devs []OccupancyWords, retries int) {
	devs = make([]OccupancyWords, len(h.occ))
	for i, o := range h.occ {
		devs[i] = OccupancyWords{o.rqst, o.rsp, o.vrqst, o.vrsp}
	}
	return devs, h.retryPending
}

// RetryPacket returns the transfer the link controller of the given link
// holds for retransmission, or nil when its retry buffer is empty.
func (h *HMC) RetryPacket(dev, link int) *packet.Packet {
	if dev < 0 || dev >= len(h.retry) || link < 0 || link >= len(h.retry[dev]) || !h.retry[dev][link].pending {
		return nil
	}
	return h.retry[dev][link].packet
}
