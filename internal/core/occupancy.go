package core

import "math/bits"

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
// while Links[l].RqstQ (RspQ) is non-empty; crossbar queues are only
// touched by the serial stages and the host interface, so one word pair
// per device does. vaults is the device's slice of the engine's spans,
// in vault order.
type devOcc struct {
	rqst, rsp uint64
	vaults    []vaultSpan
}

// vaultWords returns the device's vault words merged into one pair, bit v
// for vault v: its spans own disjoint bits.
func (o *devOcc) vaultWords() (rqst, rsp uint64) {
	for i := range o.vaults {
		rqst |= o.vaults[i].rqst
		rsp |= o.vaults[i].rsp
	}
	return rqst, rsp
}

// vaultSpan is the vault words of one (device, shard) pair: bit v of rqst
// (rsp) is set while Vaults[v].RqstQ (RspQ) of device dev is non-empty,
// for the vaults lo <= v < hi the shard owns on that device. One pair per
// shard, not per device, because the vault stages run shards
// concurrently and a word must have one writer there; read in order, the
// spans of a device are its vaults in index order.
type vaultSpan struct {
	dev, lo, hi int
	rqst, rsp   uint64
	// The words of consecutive spans belong to different shards; the pad
	// keeps them a cache line apart.
	_ [24]byte
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
// from then on, through Free and Restore included.
func (h *HMC) bindOccupancy() {
	h.occ = make([]devOcc, len(h.devs))
	next := 0
	for i, d := range h.devs {
		o := &h.occ[i]
		for l := range d.Links {
			d.Links[l].RqstQ.Bind(&o.rqst, uint(l))
			d.Links[l].RspQ.Bind(&o.rsp, uint(l))
		}
		first := next
		for ; next < len(h.spans) && h.spans[next].dev == i; next++ {
			sp := &h.spans[next]
			for v := sp.lo; v < sp.hi; v++ {
				d.Vaults[v].RqstQ.Bind(&sp.rqst, uint(v))
				d.Vaults[v].RspQ.Bind(&sp.rsp, uint(v))
			}
		}
		o.vaults = h.spans[first:next:next]
	}
}

// OccupancyWord is a copy of one word pair of the occupancy index: bit i
// of Rqst (Rsp) claims that request (response) queue i of device Dev is
// non-empty, over the links (Vaults false) or vaults (Vaults true)
// Lo <= i < Hi.
type OccupancyWord struct {
	Dev       int
	Vaults    bool
	Lo, Hi    int
	Rqst, Rsp uint64
}

// OccupancyIndex returns a copy of every word of the occupancy index and
// the count of occupied link-retry buffers the engine believes in, for
// check.Verify to hold against a scan of the queues and buffers.
func (h *HMC) OccupancyIndex() (words []OccupancyWord, retries int) {
	words = make([]OccupancyWord, 0, len(h.occ)+len(h.spans))
	for i := range h.occ {
		o := &h.occ[i]
		words = append(words, OccupancyWord{Dev: i, Hi: h.cfg.NumLinks, Rqst: o.rqst, Rsp: o.rsp})
	}
	for i := range h.spans {
		sp := &h.spans[i]
		words = append(words, OccupancyWord{Dev: sp.dev, Vaults: true, Lo: sp.lo, Hi: sp.hi, Rqst: sp.rqst, Rsp: sp.rsp})
	}
	return words, h.retryPending
}

// RetryBuffered reports whether the link controller of the given link
// holds a transfer awaiting retransmission.
func (h *HMC) RetryBuffered(dev, link int) bool {
	return dev >= 0 && dev < len(h.retry) && link >= 0 && link < len(h.retry[dev]) && h.retry[dev][link].pending
}
