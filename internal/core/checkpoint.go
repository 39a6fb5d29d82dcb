package core

import (
	"fmt"

	"hmcsim/internal/device"
	"hmcsim/internal/fault"
	"hmcsim/internal/packet"
	"hmcsim/internal/queue"
	"hmcsim/internal/trace"
)

// ErrCheckpoint wraps every checkpoint capture/restore failure, so
// callers can distinguish an unusable checkpoint (fall back to a fresh
// run) from a genuine simulation error.
var ErrCheckpoint = fmt.Errorf("hmcsim: checkpoint")

// Checkpoint is the full serializable architectural state of a simulation
// object between two clock cycles: every queued packet, every retry
// buffer, the register files, bank contents, fault-stream positions,
// sequence counters and engine statistics. Restoring it into a freshly
// built object with the same configuration and topology resumes the run
// exactly — the digest stream of the resumed object is bit-identical to
// an uninterrupted run (pinned by TestCheckpointRestoreDigestIdentical).
//
// A Checkpoint must be captured between cycles (never from inside a
// Clock call). The per-cycle Moved/Deferred slot flags are captured for
// fidelity but carry no information across a cycle boundary: the clock
// engine clears them at the next non-idle edge before any stage reads
// them.
type Checkpoint struct {
	// Snap records the clock, stats and state digest at capture time.
	// Restore re-digests the restored object and fails on mismatch, so a
	// corrupted checkpoint can never silently produce a diverged run.
	Snap Snapshot `json:"snap"`
	// Seq holds the per-host-link 3-bit request sequence counters.
	Seq []uint8 `json:"seq"`
	// Fault is the fault engine position (shared stream + failure sets).
	Fault fault.EngineState `json:"fault"`
	// VaultStreams holds the per-(device, vault) fault stream positions.
	VaultStreams [][]uint64 `json:"vault_streams,omitempty"`
	// Retry lists the occupied link-controller retry buffers.
	Retry []RetryCheckpoint `json:"retry,omitempty"`
	// Devices holds the per-device architectural state.
	Devices []DeviceCheckpoint `json:"devices"`
	// Cubes holds the per-cube traffic counters (CubeStats). The field is
	// absent from checkpoints written before the fabric layer existed;
	// Restore tolerates the absence by resuming with zeroed counters.
	Cubes []CubeStats `json:"cubes,omitempty"`
	// Skip carries the idle-skip counters (outside Stats and outside the
	// state digest) so a resumed run reports honest totals. Absent from
	// checkpoints written before the event wheel existed and from runs
	// that never skipped; Restore tolerates the absence with zeroed
	// counters. The wheel itself needs no serialized state: wakeups are
	// derived on demand from the restored queues, and the applied prefix
	// of the timed-failure schedule is a pure function of the clock.
	Skip *SkipStats `json:"skip,omitempty"`
}

// RetryCheckpoint is one occupied link-controller retry buffer.
type RetryCheckpoint struct {
	Dev      int      `json:"dev"`
	Link     int      `json:"link"`
	Attempts int      `json:"attempts"`
	Packet   []uint64 `json:"packet"`
}

// SlotCheckpoint is one valid queue slot: the packet words plus the
// per-slot bookkeeping.
type SlotCheckpoint struct {
	Words    []uint64 `json:"words"`
	Deferred bool     `json:"deferred,omitempty"`
	Moved    bool     `json:"moved,omitempty"`
	Retries  uint8    `json:"retries,omitempty"`
	Arrived  uint64   `json:"arrived,omitempty"`
}

// LinkCheckpoint is one link's flow-control state and crossbar queues.
type LinkCheckpoint struct {
	Tokens   int              `json:"tokens,omitempty"`
	ReqFlits uint64           `json:"req_flits,omitempty"`
	RspFlits uint64           `json:"rsp_flits,omitempty"`
	Rqst     []SlotCheckpoint `json:"rqst,omitempty"`
	Rsp      []SlotCheckpoint `json:"rsp,omitempty"`
}

// VaultCheckpoint is one vault's controller queues and materialized bank
// storage (only banks with stored blocks appear).
type VaultCheckpoint struct {
	Rqst  []SlotCheckpoint `json:"rqst,omitempty"`
	Rsp   []SlotCheckpoint `json:"rsp,omitempty"`
	Banks []BankCheckpoint `json:"banks,omitempty"`
}

// BankCheckpoint is one bank's materialized storage blocks.
type BankCheckpoint struct {
	Bank   int                  `json:"bank"`
	Blocks []device.StoredBlock `json:"blocks"`
}

// RegCheckpoint is one register value, addressed physically.
type RegCheckpoint struct {
	Phys  uint64 `json:"phys"`
	Value uint64 `json:"value"`
}

// DeviceCheckpoint is one device's links, vaults and registers.
type DeviceCheckpoint struct {
	Links  []LinkCheckpoint  `json:"links"`
	Vaults []VaultCheckpoint `json:"vaults"`
	Regs   []RegCheckpoint   `json:"regs"`
}

// checkpointQueue serializes every valid slot of q in FIFO order.
func checkpointQueue(q *queue.Queue) []SlotCheckpoint {
	n := q.Len()
	if n == 0 {
		return nil
	}
	out := make([]SlotCheckpoint, n)
	for i := 0; i < n; i++ {
		p, tag := q.At(i), *q.Tag(i)
		out[i] = SlotCheckpoint{
			Words:    append([]uint64(nil), p.Words()...),
			Deferred: tag.Deferred(), Moved: tag.Moved(),
			Retries: p.Retries, Arrived: p.Arrived,
		}
	}
	return out
}

// Checkpoint captures the full architectural state. It must be called
// between clock cycles. The capture writes only the CRCs still pending
// on queued packets (packet.Packet.Words), which no reader of the words
// can tell apart from an eager stamp, and does not perturb the
// simulation (the next cycle proceeds exactly as without it).
func (h *HMC) Checkpoint() *Checkpoint {
	ck := &Checkpoint{
		Snap:  h.Snapshot(),
		Seq:   append([]uint8(nil), h.seq...),
		Fault: h.fault.State(),
		Cubes: h.CubeStats(),
	}
	if h.skip != (SkipStats{}) {
		s := h.skip
		ck.Skip = &s
	}
	ck.VaultStreams = make([][]uint64, len(h.vaultFaults))
	for dev := range h.vaultFaults {
		ck.VaultStreams[dev] = make([]uint64, len(h.vaultFaults[dev]))
		for vi := range h.vaultFaults[dev] {
			ck.VaultStreams[dev][vi] = h.vaultFaults[dev][vi].State()
		}
	}
	for dev := range h.retry {
		for link := range h.retry[dev] {
			rs := &h.retry[dev][link]
			if !rs.pending {
				continue
			}
			ck.Retry = append(ck.Retry, RetryCheckpoint{
				Dev: dev, Link: link, Attempts: rs.attempts,
				Packet: append([]uint64(nil), rs.packet.Words()...),
			})
		}
	}
	ck.Devices = make([]DeviceCheckpoint, len(h.devs))
	for di, d := range h.devs {
		dc := DeviceCheckpoint{
			Links:  make([]LinkCheckpoint, len(d.Links)),
			Vaults: make([]VaultCheckpoint, len(d.Vaults)),
		}
		for li := range d.Links {
			l := &d.Links[li]
			dc.Links[li] = LinkCheckpoint{
				Tokens: l.Tokens, ReqFlits: l.ReqFlits, RspFlits: l.RspFlits,
				Rqst: checkpointQueue(l.RqstQ), Rsp: checkpointQueue(l.RspQ),
			}
		}
		for vi := range d.Vaults {
			v := &d.Vaults[vi]
			vc := VaultCheckpoint{Rqst: checkpointQueue(v.RqstQ), Rsp: checkpointQueue(v.RspQ)}
			for bi := range v.Banks {
				if blocks := v.Banks[bi].Export(); blocks != nil {
					vc.Banks = append(vc.Banks, BankCheckpoint{Bank: bi, Blocks: blocks})
				}
			}
			dc.Vaults[vi] = vc
		}
		for _, r := range d.Regs.Registers() {
			dc.Regs = append(dc.Regs, RegCheckpoint{Phys: r.Phys, Value: r.Value})
		}
		ck.Devices[di] = dc
	}
	return ck
}

// restoreQueue rebuilds q from serialized slots, drawing packet buffers
// from the pool. Packets re-validate (length, command, CRC) on the way
// in, so bit rot in a persisted checkpoint surfaces as an error here
// rather than as a diverged simulation.
func (h *HMC) restoreQueue(q *queue.Queue, slots []SlotCheckpoint, where string) error {
	q.Reset()
	if len(slots) > q.Depth() {
		return fmt.Errorf("%w: %s holds %d slots, queue depth is %d", ErrCheckpoint, where, len(slots), q.Depth())
	}
	for i := range slots {
		sc := &slots[i]
		pkt, err := packet.FromWords(sc.Words)
		if err != nil {
			return fmt.Errorf("%w: %s slot %d: %v", ErrCheckpoint, where, i, err)
		}
		p := h.pool.Get()
		*p = pkt
		if err := q.Push(p, sc.Arrived); err != nil {
			return fmt.Errorf("%w: %s slot %d: %v", ErrCheckpoint, where, i, err)
		}
		p.Retries = sc.Retries
		tag := q.Tag(i)
		if sc.Deferred {
			tag.MarkDeferred()
		}
		if sc.Moved {
			tag.MarkMoved()
		}
	}
	return nil
}

// Restore rewinds h to a previously captured checkpoint. The receiver
// must be freshly built (never clocked, never sent to) with the same
// configuration and an identically wired topology as the checkpointed
// object; the caller rebuilds both from its own record of how the
// original was constructed.
//
// Restore seals the topology, replays the architectural state, recomputes
// the degraded routing tables from the restored failure set, and finally
// verifies the restored state digest against the checkpoint's recorded
// digest — a failed verification reports ErrCheckpoint and leaves the
// object unusable for resumption (build a fresh one to run from scratch).
// No trace events are emitted during restoration.
func (h *HMC) Restore(ck *Checkpoint) error {
	if h.sealed || h.clk != 0 || h.pool.InUse() != 0 {
		return fmt.Errorf("%w: restore target must be freshly built", ErrCheckpoint)
	}
	if len(ck.Seq) != len(h.seq) || len(ck.Devices) != len(h.devs) || len(ck.VaultStreams) != len(h.vaultFaults) {
		return fmt.Errorf("%w: shape mismatch (config differs from checkpointed object)", ErrCheckpoint)
	}
	// Sealing applies statically failed links, which normally emits
	// KindLinkFail events and bumps counters; the restored stats and
	// failure sets overwrite the counters below, and a restored run must
	// not re-emit events the original run already emitted.
	mask := h.mask
	h.mask = trace.MaskNone
	defer func() { h.mask = mask }()
	if err := h.seal(); err != nil {
		return err
	}

	h.fault.RestoreState(ck.Fault)
	for dev := range h.vaultFaults {
		if len(ck.VaultStreams[dev]) != len(h.vaultFaults[dev]) {
			return fmt.Errorf("%w: vault stream shape mismatch on device %d", ErrCheckpoint, dev)
		}
		for vi := range h.vaultFaults[dev] {
			h.vaultFaults[dev][vi].SetState(ck.VaultStreams[dev][vi])
		}
	}
	// The live routing tables derive from the restored failure set, not
	// from whatever failLink calls sealing performed.
	h.routes = h.liveRoutes()

	for i := range h.retry {
		clear(h.retry[i])
	}
	h.retryPending = 0
	for _, rc := range ck.Retry {
		if rc.Dev < 0 || rc.Dev >= len(h.retry) || rc.Link < 0 || rc.Link >= len(h.retry[rc.Dev]) {
			return fmt.Errorf("%w: retry buffer %d:%d out of range", ErrCheckpoint, rc.Dev, rc.Link)
		}
		pkt, err := packet.FromWords(rc.Packet)
		if err != nil {
			return fmt.Errorf("%w: retry buffer %d:%d: %v", ErrCheckpoint, rc.Dev, rc.Link, err)
		}
		rs := &h.retry[rc.Dev][rc.Link]
		if rs.pending {
			return fmt.Errorf("%w: retry buffer %d:%d listed twice", ErrCheckpoint, rc.Dev, rc.Link)
		}
		p := h.pool.Get()
		*p = pkt
		h.holdRetry(rs, p, rc.Attempts)
	}

	for di, d := range h.devs {
		dc := &ck.Devices[di]
		if len(dc.Links) != len(d.Links) || len(dc.Vaults) != len(d.Vaults) {
			return fmt.Errorf("%w: device %d shape mismatch", ErrCheckpoint, di)
		}
		for li := range d.Links {
			l := &d.Links[li]
			lc := &dc.Links[li]
			l.Tokens = lc.Tokens
			l.ReqFlits = lc.ReqFlits
			l.RspFlits = lc.RspFlits
			where := fmt.Sprintf("device %d link %d", di, li)
			if err := h.restoreQueue(l.RqstQ, lc.Rqst, where+" rqst"); err != nil {
				return err
			}
			if err := h.restoreQueue(l.RspQ, lc.Rsp, where+" rsp"); err != nil {
				return err
			}
		}
		for vi := range d.Vaults {
			v := &d.Vaults[vi]
			vc := &dc.Vaults[vi]
			where := fmt.Sprintf("device %d vault %d", di, vi)
			if err := h.restoreQueue(v.RqstQ, vc.Rqst, where+" rqst"); err != nil {
				return err
			}
			if err := h.restoreQueue(v.RspQ, vc.Rsp, where+" rsp"); err != nil {
				return err
			}
			for _, bc := range vc.Banks {
				if bc.Bank < 0 || bc.Bank >= len(v.Banks) {
					return fmt.Errorf("%w: %s bank %d out of range", ErrCheckpoint, where, bc.Bank)
				}
				if err := v.Banks[bc.Bank].Restore(bc.Blocks); err != nil {
					return fmt.Errorf("%w: %s: %v", ErrCheckpoint, where, err)
				}
			}
		}
		for _, rc := range dc.Regs {
			if err := d.Regs.Poke(rc.Phys, rc.Value); err != nil {
				return fmt.Errorf("%w: device %d register %#x: %v", ErrCheckpoint, di, rc.Phys, err)
			}
		}
	}

	copy(h.seq, ck.Seq)
	h.clk = ck.Snap.Cycles
	h.stats = ck.Snap.Stats
	h.skip = SkipStats{}
	if ck.Skip != nil {
		h.skip = *ck.Skip
	}
	// The applied prefix of the timed-failure schedule at a cycle
	// boundary is a pure function of the clock: every entry before clk
	// fired at the top of its own cycle's Clock call.
	h.timedIdx = 0
	for h.timedIdx < len(h.timedFaults) && h.timedFaults[h.timedIdx].Cycle < h.clk {
		h.timedIdx++
	}
	clear(h.cubeStats)
	if ck.Cubes != nil {
		if len(ck.Cubes) != len(h.cubeStats) {
			return fmt.Errorf("%w: per-cube counter shape mismatch", ErrCheckpoint)
		}
		copy(h.cubeStats, ck.Cubes)
	}

	if got := h.StateDigest(); got != ck.Snap.Digest {
		return fmt.Errorf("%w: restored state digest %016x does not match recorded %016x",
			ErrCheckpoint, got, ck.Snap.Digest)
	}
	return nil
}
