// Package check audits the structural invariants of a live HMC
// simulation object. It exists for test harnesses and long-running
// experiments: calling Verify between clock cycles catches engine or
// memory corruption at the cycle it happens instead of as a downstream
// mystery.
//
// Verified invariants:
//
//   - every queued packet is structurally valid, including its CRC: a
//     packet whose CRC is still pending (built in place, words never
//     read) is stamped from its words here and valid by construction; a
//     stamped packet rewritten in place without Finalize fails
//   - queue occupancy never exceeds the configured depth
//   - crossbar/vault request queues hold only request packets, response
//     queues only response packets
//   - packets in a vault's request queue actually decode to that vault,
//     and a bank cached in their slot's tag is the bank they decode to
//   - every slot within a queue's length holds a packet, and every slot
//     past it holds no packet and a zero tag
//   - no packet is held twice — by two slots, or by a slot and a
//     link-retry buffer — since its arrival clock and retry count
//     describe its stay in one place
//   - no packet's arrival clock is later than the device clock
//   - source link IDs fit the device's link range
//   - destination cube IDs are devices or the host
//   - the engine's occupancy index says exactly what a scan of the queues
//     and link-retry buffers says: every queue is covered by one bit, set
//     if and only if the queue holds a packet, and the count of occupied
//     retry buffers is right
package check

import (
	"fmt"

	"hmcsim/internal/core"
	"hmcsim/internal/packet"
	"hmcsim/internal/queue"
)

// Verify audits every queue of every device in h, returning the first
// violation found, or nil.
func Verify(h *core.HMC) error {
	cfg := h.Config()
	a := auditor{cfg: cfg, clk: h.Clk(), held: make(map[*packet.Packet]string)}
	for cube := 0; cube < cfg.NumDevs; cube++ {
		d := h.Device(cube)
		for li := range d.Links {
			l := &d.Links[li]
			if err := a.queue(l.RqstQ, fmt.Sprintf("dev %d link %d rqst", cube, li), true); err != nil {
				return err
			}
			if err := a.queue(l.RspQ, fmt.Sprintf("dev %d link %d rsp", cube, li), false); err != nil {
				return err
			}
			if p := h.RetryPacket(cube, li); p != nil {
				if err := a.hold(p, fmt.Sprintf("dev %d link %d retry buffer", cube, li)); err != nil {
					return err
				}
			}
		}
		for vi := range d.Vaults {
			v := &d.Vaults[vi]
			name := fmt.Sprintf("dev %d vault %d rqst", cube, vi)
			if err := a.queue(v.RqstQ, name, true); err != nil {
				return err
			}
			// Vault request queues only hold packets for this vault.
			for i := 0; i < v.RqstQ.Len(); i++ {
				p := v.RqstQ.At(i)
				if p.Cmd().IsMode() {
					return fmt.Errorf("check: %s slot %d holds a mode request", name, i)
				}
				dec := d.Map.Decode(p.Addr())
				if dec.Vault != vi {
					return fmt.Errorf("check: %s slot %d packet decodes to vault %d", name, i, dec.Vault)
				}
				if dec.Bank < 0 || dec.Bank >= cfg.NumBanks {
					return fmt.Errorf("check: %s slot %d bank %d out of range", name, i, dec.Bank)
				}
				if bank, ok := v.RqstQ.Tag(i).Bank(); ok && bank != dec.Bank {
					return fmt.Errorf("check: %s slot %d caches bank %d, packet decodes to bank %d", name, i, bank, dec.Bank)
				}
			}
			if err := a.queue(v.RspQ, fmt.Sprintf("dev %d vault %d rsp", cube, vi), false); err != nil {
				return err
			}
		}
	}
	return verifyOccupancy(h)
}

// verifyOccupancy holds the occupancy index against the full scan it
// replaced in the engine: the scan lives on here as the reference.
func verifyOccupancy(h *core.HMC) error {
	cfg := h.Config()
	index, retries := h.OccupancyIndex()
	if len(index) != cfg.NumDevs {
		return fmt.Errorf("check: occupancy index has %d entries for %d devices", len(index), cfg.NumDevs)
	}
	// occupied returns the word pair a scan of n queue pairs finds.
	occupied := func(n int, pair func(i int) (*queue.Queue, *queue.Queue)) (rqst, rsp uint64) {
		for i := 0; i < n; i++ {
			rq, rs := pair(i)
			if rq.Len() > 0 {
				rqst |= 1 << uint(i)
			}
			if rs.Len() > 0 {
				rsp |= 1 << uint(i)
			}
		}
		return rqst, rsp
	}
	pending := 0
	for cube, got := range index {
		d := h.Device(cube)
		var want core.OccupancyWords
		want.Rqst, want.Rsp = occupied(cfg.NumLinks, func(i int) (*queue.Queue, *queue.Queue) {
			return d.Links[i].RqstQ, d.Links[i].RspQ
		})
		want.VaultRqst, want.VaultRsp = occupied(cfg.NumVaults, func(i int) (*queue.Queue, *queue.Queue) {
			return d.Vaults[i].RqstQ, d.Vaults[i].RspQ
		})
		if got != want {
			return fmt.Errorf("check: dev %d: occupancy index says %+v, the queues say %+v", cube, got, want)
		}
		for li := 0; li < cfg.NumLinks; li++ {
			if h.RetryPacket(cube, li) != nil {
				pending++
			}
		}
	}
	if retries != pending {
		return fmt.Errorf("check: engine counts %d occupied retry buffers, a scan finds %d", retries, pending)
	}
	return nil
}

// auditor carries what Verify checks across queues: the configuration,
// the device clock, and where each packet seen so far is held.
type auditor struct {
	cfg  core.Config
	clk  uint64
	held map[*packet.Packet]string
}

// hold records that p is held at where, failing if it is held elsewhere
// already.
func (a *auditor) hold(p *packet.Packet, where string) error {
	if prev, ok := a.held[p]; ok {
		return fmt.Errorf("check: %s holds the packet %s holds", where, prev)
	}
	a.held[p] = where
	return nil
}

func (a *auditor) queue(q *queue.Queue, name string, wantRequests bool) error {
	if q.Len() > q.Depth() {
		return fmt.Errorf("check: %s occupancy %d exceeds depth %d", name, q.Len(), q.Depth())
	}
	if err := q.Audit(); err != nil {
		return fmt.Errorf("check: %s: %w", name, err)
	}
	for i := 0; i < q.Len(); i++ {
		p := q.At(i)
		if err := a.hold(p, fmt.Sprintf("%s slot %d", name, i)); err != nil {
			return err
		}
		if p.Arrived > a.clk {
			return fmt.Errorf("check: %s slot %d arrived at cycle %d, after the clock %d", name, i, p.Arrived, a.clk)
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("check: %s slot %d: %w", name, i, err)
		}
		cmd := p.Cmd()
		if wantRequests && !cmd.IsRequest() {
			return fmt.Errorf("check: %s slot %d holds %v (not a request)", name, i, cmd)
		}
		if !wantRequests && !cmd.IsResponse() {
			return fmt.Errorf("check: %s slot %d holds %v (not a response)", name, i, cmd)
		}
		if int(p.SLID()) >= a.cfg.NumLinks {
			return fmt.Errorf("check: %s slot %d SLID %d out of range", name, i, p.SLID())
		}
		if wantRequests {
			if dest := int(p.CUB()); dest > a.cfg.NumDevs {
				return fmt.Errorf("check: %s slot %d CUB %d beyond host ID", name, i, dest)
			}
		}
	}
	return nil
}

// Clock advances h by one cycle and verifies the invariants afterwards.
// It is the drop-in checked replacement for h.Clock in tests.
func Clock(h *core.HMC) error {
	if err := h.Clock(); err != nil {
		return err
	}
	return Verify(h)
}
