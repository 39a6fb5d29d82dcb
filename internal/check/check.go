// Package check audits the structural invariants of a live HMC
// simulation object. It exists for test harnesses and long-running
// experiments: calling Verify between clock cycles catches engine or
// memory corruption at the cycle it happens instead of as a downstream
// mystery.
//
// Verified invariants:
//
//   - every queued packet is structurally valid, including its CRC
//   - queue occupancy never exceeds the configured depth
//   - crossbar/vault request queues hold only request packets, response
//     queues only response packets
//   - packets in a vault's request queue actually decode to that vault,
//     and a bank cached in their slot is the bank they decode to
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
	"hmcsim/internal/queue"
)

// Verify audits every queue of every device in h, returning the first
// violation found, or nil.
func Verify(h *core.HMC) error {
	cfg := h.Config()
	for cube := 0; cube < cfg.NumDevs; cube++ {
		d := h.Device(cube)
		for li := range d.Links {
			l := &d.Links[li]
			if err := verifyQueue(l.RqstQ, fmt.Sprintf("dev %d link %d rqst", cube, li), true, cfg); err != nil {
				return err
			}
			if err := verifyQueue(l.RspQ, fmt.Sprintf("dev %d link %d rsp", cube, li), false, cfg); err != nil {
				return err
			}
		}
		for vi := range d.Vaults {
			v := &d.Vaults[vi]
			name := fmt.Sprintf("dev %d vault %d rqst", cube, vi)
			if err := verifyQueue(v.RqstQ, name, true, cfg); err != nil {
				return err
			}
			// Vault request queues only hold packets for this vault.
			for i := 0; i < v.RqstQ.Len(); i++ {
				s := v.RqstQ.At(i)
				p := s.Packet
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
				if bank, ok := s.Bank(); ok && bank != dec.Bank {
					return fmt.Errorf("check: %s slot %d caches bank %d, packet decodes to bank %d", name, i, bank, dec.Bank)
				}
			}
			if err := verifyQueue(v.RspQ, fmt.Sprintf("dev %d vault %d rsp", cube, vi), false, cfg); err != nil {
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
	words, retries := h.OccupancyIndex()
	// covered[dev][0] and [1] collect the links and vaults some word covers.
	covered := make([][2]uint64, cfg.NumDevs)
	for _, w := range words {
		layer, n, k := "link", cfg.NumLinks, 0
		if w.Vaults {
			layer, n, k = "vault", cfg.NumVaults, 1
		}
		if w.Dev < 0 || w.Dev >= cfg.NumDevs || w.Lo < 0 || w.Hi > n || w.Lo >= w.Hi {
			return fmt.Errorf("check: occupancy word covers %ss %d..%d of dev %d", layer, w.Lo, w.Hi, w.Dev)
		}
		d := h.Device(w.Dev)
		var span, rqst, rsp uint64
		for i := w.Lo; i < w.Hi; i++ {
			bit := uint64(1) << uint(i)
			span |= bit
			var rq, rs *queue.Queue
			if w.Vaults {
				rq, rs = d.Vaults[i].RqstQ, d.Vaults[i].RspQ
			} else {
				rq, rs = d.Links[i].RqstQ, d.Links[i].RspQ
			}
			if rq.Len() > 0 {
				rqst |= bit
			}
			if rs.Len() > 0 {
				rsp |= bit
			}
		}
		if w.Rqst != rqst || w.Rsp != rsp {
			return fmt.Errorf("check: dev %d %ss %d..%d: occupancy index says rqst %#x rsp %#x, the queues say rqst %#x rsp %#x",
				w.Dev, layer, w.Lo, w.Hi, w.Rqst, w.Rsp, rqst, rsp)
		}
		if covered[w.Dev][k]&span != 0 {
			return fmt.Errorf("check: dev %d %ss %d..%d covered by two occupancy words", w.Dev, layer, w.Lo, w.Hi)
		}
		covered[w.Dev][k] |= span
	}
	pending := 0
	for cube := range covered {
		if covered[cube] != [2]uint64{1<<uint(cfg.NumLinks) - 1, 1<<uint(cfg.NumVaults) - 1} {
			return fmt.Errorf("check: dev %d: occupancy index covers links %#x and vaults %#x, not all of them",
				cube, covered[cube][0], covered[cube][1])
		}
		for li := 0; li < cfg.NumLinks; li++ {
			if h.RetryBuffered(cube, li) {
				pending++
			}
		}
	}
	if retries != pending {
		return fmt.Errorf("check: engine counts %d occupied retry buffers, a scan finds %d", retries, pending)
	}
	return nil
}

func verifyQueue(q *queue.Queue, name string, wantRequests bool, cfg core.Config) error {
	if q.Len() > q.Depth() {
		return fmt.Errorf("check: %s occupancy %d exceeds depth %d", name, q.Len(), q.Depth())
	}
	for i := 0; i < q.Len(); i++ {
		s := q.At(i)
		if s == nil || !s.Valid {
			return fmt.Errorf("check: %s slot %d invalid but within Len", name, i)
		}
		p := s.Packet
		if p == nil {
			return fmt.Errorf("check: %s slot %d valid but holds no packet", name, i)
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
		if int(p.SLID()) >= cfg.NumLinks {
			return fmt.Errorf("check: %s slot %d SLID %d out of range", name, i, p.SLID())
		}
		if wantRequests {
			if dest := int(p.CUB()); dest > cfg.NumDevs {
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
