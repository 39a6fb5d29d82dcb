package core

import (
	"hmcsim/internal/device"
	"hmcsim/internal/packet"
	"hmcsim/internal/queue"
	"hmcsim/internal/trace"
)

// This file implements the sharded vault pipeline: the bank-conflict and
// vault sub-cycle stages (stages 3 and 4 of Clock) partitioned into
// static contiguous shards that a fixed worker pool executes
// concurrently, then merges back into the engine's serial state in
// vault-index order. The partition and merge discipline make the
// parallel engine bit-identical to the serial one for any worker count;
// DESIGN.md §10 states the ownership invariants in full. The short
// form:
//
//   - A shard owns a contiguous range of (device, vault) units in
//     device-major order. During the parallel window it touches only
//     state owned by those units (their request/response queues and the
//     occupancy words those queues keep, bank timers and per-vault fault
//     streams) plus engine state that is
//     read-only for the whole window (clock value, configuration,
//     address map, trace mask).
//   - Everything a vault would have written to shared engine state —
//     statistics, trace events, packet-pool returns — lands in
//     per-shard accumulators instead, and the coordinator merges them
//     in shard order after the barrier. Shard order equals vault-index
//     order, so the merged stream is exactly what the serial walk
//     produces.
//   - The two stages are fused into one dispatch: a shard runs the
//     conflict pass over its units, then the vault pass. The stages
//     only communicate through per-slot Deferred flags within a single
//     vault's queue, so no cross-shard barrier is needed between them;
//     trace events keep the serial stage order because conflict events
//     buffer separately from vault events and flush first.
type shard struct {
	// spans is this shard's slice of the flattened (device, vault) space,
	// in device-major order: one span per device the shard reaches into,
	// each carrying the occupancy words of the shard's vaults there (see
	// occupancy.go). The ranges are assigned once at construction and
	// read-only afterwards; the words are written by the shard's own
	// queues.
	spans []vaultSpan

	// stats accumulates the counter increments of this shard's units for
	// one cycle; the coordinator folds it into HMC.stats at the merge
	// (addition commutes, so folding in any order is exact — shard order
	// is used anyway for uniformity).
	stats Stats

	// conflictEv and vaultEv buffer the trace events of the conflict and
	// vault passes. Two buffers, not one: the serial engine emits every
	// conflict event of the device before any vault event, so the merge
	// flushes all shards' conflictEv first. Events are appended with the
	// clock value already set; the merge hands them to the tracer as-is.
	conflictEv []trace.Event
	vaultEv    []trace.Event

	// puts collects the pooled packet buffers this shard's vault pass
	// retired (posted requests leaving the simulation). packet.Pool is a
	// LIFO free list, so the order of Put calls determines the order
	// later Gets hand buffers out; replaying the puts on the coordinator
	// in shard order reproduces the serial engine's free-list state
	// exactly.
	puts []*packet.Packet

	// rdbuf is the shard-local scratch buffer for bank read data en
	// route to a response packet (the serial engine kept one on HMC).
	rdbuf [16]uint64

	// pad keeps shards from sharing a cache line when they sit in the
	// engine's contiguous shard slice and are written concurrently.
	_ [64]byte
}

// buildShards partitions the device-major vault space into
// cfg.effectiveWorkers() contiguous shards whose sizes differ by at most
// one unit, cut into spans at device boundaries. The partition is a pure
// function of the configuration — the static assignment the determinism
// argument rests on. spans is the one block every shard's spans are a
// slice of: in order it is both shard order and device-major vault
// order, so a device's spans are contiguous in it too.
func buildShards(cfg Config) (shards []shard, spans []vaultSpan) {
	w := cfg.effectiveWorkers()
	units := cfg.NumDevs * cfg.NumVaults
	base, rem := units/w, units%w
	first := make([]int, w+1) // shard i owns spans first[i]..first[i+1]
	off := 0
	for i := 0; i < w; i++ {
		end := off + base
		if i < rem {
			end++
		}
		for off < end {
			dev, lo := off/cfg.NumVaults, off%cfg.NumVaults
			hi := min(cfg.NumVaults, lo+end-off)
			spans = append(spans, vaultSpan{dev: dev, lo: lo, hi: hi})
			off += hi - lo
		}
		first[i+1] = len(spans)
	}
	shards = make([]shard, w)
	for i := range shards {
		shards[i].spans = spans[first[i]:first[i+1]:first[i+1]]
	}
	return shards, spans
}

// vaultStages runs sub-cycle stages 3 and 4 — bank-conflict recognition
// and vault request service — across all shards and merges the results.
// With a worker pool the shards run concurrently (shard i on worker i);
// without one they run inline on the coordinator, through the same code
// path, which is what keeps Workers=1 and Workers=N bit-identical.
func (h *HMC) vaultStages() {
	if !h.vaultRequestsQueued() {
		// Both stages only act on queued vault requests, and the shard
		// accumulators are empty between cycles: nothing to dispatch,
		// nothing to merge.
		return
	}
	if h.sched != nil {
		h.sched.Run(h.shardFn)
	} else {
		for i := range h.shards {
			h.runShard(i)
		}
	}
	h.mergeShards()
}

// runShard executes one shard's conflict pass and vault pass over the
// vaults with a queued request — neither pass does anything observable
// on an empty queue, the refresh mask included: it only shows through
// deferred packets. It is the worker-side function: everything it writes
// outside its own vaults' queues and their occupancy words goes through
// the shard accumulators.
func (h *HMC) runShard(si int) {
	sh := &h.shards[si]
	for i := range sh.spans {
		sp := &sh.spans[i]
		for v := nextBit(sp.rqst, 0); v < 64; v = nextBit(sp.rqst, v+1) {
			h.conflictVault(sh, h.devs[sp.dev], v)
		}
	}
	for i := range sh.spans {
		sp := &sh.spans[i]
		for v := nextBit(sp.rqst, 0); v < 64; v = nextBit(sp.rqst, v+1) {
			h.vaultOne(sh, h.devs[sp.dev], v)
		}
	}
}

// vaultRequestsQueued reports whether any vault request queue holds a
// packet.
func (h *HMC) vaultRequestsQueued() bool {
	for i := range h.spans {
		if h.spans[i].rqst != 0 {
			return true
		}
	}
	return false
}

// mergeShards folds the per-shard accumulators back into the engine, in
// shard order (= vault-index order): conflict trace events of every
// shard first, then per shard its vault events, pool returns and
// counter increments. After the merge every shard accumulator is empty
// again, ready for the next cycle, and the engine state is
// indistinguishable from a serial walk of stages 3 and 4.
func (h *HMC) mergeShards() {
	for i := range h.shards {
		sh := &h.shards[i]
		for j := range sh.conflictEv {
			h.tracer.Trace(sh.conflictEv[j])
		}
		sh.conflictEv = sh.conflictEv[:0]
	}
	for i := range h.shards {
		sh := &h.shards[i]
		for j := range sh.vaultEv {
			h.tracer.Trace(sh.vaultEv[j])
		}
		sh.vaultEv = sh.vaultEv[:0]
		for _, p := range sh.puts {
			h.pool.Put(p)
		}
		sh.puts = sh.puts[:0]
		h.stats.add(&sh.stats)
		sh.stats = Stats{}
	}
}

// conflictVault recognizes potential bank conflicts on one vault by
// decoding the physical memory addresses present in the request packets
// and determining whether conflicting packets exist within a spatial
// window of the queue. The pass modifies no data representations; losers
// of bank arbitration are deferred for this cycle and a trace message
// records the physical locality and clock value of the conflict.
func (h *HMC) conflictVault(sh *shard, d *device.Device, vi int) {
	v := &d.Vaults[vi]
	q := v.RqstQ
	n := q.Len()
	if window := h.cfg.ConflictWindow; window > 0 && window < n {
		n = window
	}
	refreshing := h.refreshMask(d, vi)
	claimed := refreshing
	for i := 0; i < n; i++ {
		s := q.At(i)
		p := s.Packet
		bank, ok := s.Bank()
		if !ok {
			// First look at a slot that did not come through deliverLocal
			// (a restored checkpoint, a test pushing straight into the
			// queue): decode once and cache.
			bank = d.Map.Decode(p.Addr()).Bank
			s.SetBank(bank)
		}
		bit := uint64(1) << uint(bank)
		if claimed&bit != 0 {
			s.Deferred = true
			if refreshing&bit != 0 {
				// The bank is unavailable while refreshing; the
				// request waits without counting as a conflict
				// between requests.
				sh.stats.RefreshStalls++
				continue
			}
			sh.stats.BankConflicts++
			if h.mask&trace.KindBankConflict != 0 {
				sh.conflictEv = append(sh.conflictEv, trace.Event{
					Clock: h.clk,
					Kind:  trace.KindBankConflict, Dev: d.ID, Link: trace.None,
					Quad: v.Quad, Vault: vi, Bank: bank,
					Addr: p.Addr(), Tag: p.Tag(), Cmd: p.Cmd().String(),
				})
			}
			continue
		}
		claimed |= bit
	}
}

// vaultOne traverses one vault request queue in FIFO order and processes
// every request packet that survived bank-conflict arbitration: write
// packets, read packets and atomic (read-modify-write) packets. All
// packets are processed in equivalent and constant time as long as their
// bank addressing does not conflict. Responses are registered in the
// vault response queue.
func (h *HMC) vaultOne(sh *shard, d *device.Device, vi int) {
	v := &d.Vaults[vi]
	q := v.RqstQ
	n := q.Len()
	if window := h.cfg.ConflictWindow; window > 0 && window < n {
		n = window
	}
	// Serviced slots are retired in place and squeezed out by one
	// order-preserving compaction after the walk, so a cycle costs the
	// window once however many packets leave from behind deferred ones.
	// retired is the FIFO position just past the last retired slot: bank
	// arbitration favours the front of the queue, so the compaction
	// usually has only a prefix of the window to visit.
	retired := 0
	for i := 0; i < n; i++ {
		s := q.At(i)
		if s.Deferred {
			continue
		}
		p := s.Packet
		cmd := p.Cmd()
		if !cmd.IsPosted() && v.RspQ.Full() {
			// Preserve response ordering: a full response queue
			// blocks the vault for the rest of the cycle.
			sh.stats.VaultRspStalls++
			if h.mask&trace.KindVaultRspStall != 0 {
				sh.vaultEv = append(sh.vaultEv, trace.Event{
					Clock: h.clk,
					Kind:  trace.KindVaultRspStall, Dev: d.ID, Link: trace.None,
					Quad: v.Quad, Vault: vi, Bank: trace.None,
					Addr: p.Addr(), Tag: p.Tag(), Cmd: cmd.String(),
					Aux: uint64(v.RspQ.Len()),
				})
			}
			break
		}
		moved := h.serviceVaultRequest(sh, d, v, vi, p)
		*s = queue.Slot{}
		retired = i + 1
		if !moved {
			// Posted request (or the buffer was otherwise consumed): the
			// packet leaves the simulation here. The pool return is
			// deferred to the merge so the free list stays single-owner.
			sh.puts = append(sh.puts, p)
		}
	}
	q.Compact(retired)
}

// serviceVaultRequest performs the memory operation for one request and
// registers the response, if any, in the vault response queue. The
// response is built in place into the request's own buffer; the return
// value reports whether that buffer moved into the vault response queue
// (false for posted requests, whose buffer the caller retires).
func (h *HMC) serviceVaultRequest(sh *shard, d *device.Device, v *device.Vault, vi int, p *packet.Packet) bool {
	addr, tag := p.Addr(), p.Tag()
	slid, seq := p.SLID(), p.Seq()
	dec := d.Map.Decode(addr)
	bank := &v.Banks[dec.Bank]
	cmd := p.Cmd()

	var rspCmd packet.Command
	var rspData []uint64
	errStat := packet.ErrStatOK

	// Bank I/O is performed in 32-byte column fetches regardless of the
	// request size.
	if bytes := cmd.DataBytes() + cmd.ResponseDataBytes(); bytes > 0 {
		sh.stats.ColumnFetches += uint64((bytes + 31) / 32)
	}

	switch {
	case cmd.IsRead():
		n := cmd.ResponseDataBytes() / 8
		buf := sh.rdbuf[:n]
		bank.Read(dec.DRAM, buf)
		rspCmd, rspData = packet.CmdRDRS, buf
		sh.stats.Reads++
		sh.stats.BytesRead += uint64(cmd.ResponseDataBytes())
		if h.vaultFaults[d.ID][vi].Fault() {
			// Poisoned read: the vault detected uncorrectable data. The
			// read response still carries the payload but flags it invalid
			// (DINV) with a poison error status.
			errStat = packet.ErrStatPoison
			sh.stats.PoisonedReads++
			sh.stats.Errors++
			if h.mask&trace.KindError != 0 {
				sh.vaultEv = append(sh.vaultEv, trace.Event{
					Clock: h.clk,
					Kind:  trace.KindError, Dev: d.ID, Link: trace.None,
					Quad: v.Quad, Vault: vi, Bank: dec.Bank,
					Addr: addr, Tag: tag, Cmd: cmd.String(),
					Aux: uint64(packet.ErrStatPoison),
				})
			}
		}
	case cmd.IsWrite():
		bank.Write(dec.DRAM, p.Data())
		rspCmd = packet.CmdWRRS
		sh.stats.Writes++
		sh.stats.BytesWritten += uint64(len(p.Data()) * 8)
	case cmd.IsAtomic():
		data := p.Data()
		switch cmd {
		case packet.Cmd2ADD8, packet.CmdP2ADD8:
			bank.Add8Dual(dec.DRAM, [2]uint64{data[0], data[1]})
		case packet.CmdADD16, packet.CmdPADD16:
			bank.Add16(dec.DRAM, [2]uint64{data[0], data[1]})
		case packet.CmdBWR, packet.CmdPBWR:
			bank.BitWrite(dec.DRAM, data[0], data[1])
		}
		rspCmd = packet.CmdWRRS
		sh.stats.Atomics++
		sh.stats.BytesRead += 16 // read-modify-write touches one block
		sh.stats.BytesWritten += 16
	default:
		// A command the vault cannot process (for example a misdirected
		// mode request): generate an error response.
		rspCmd, errStat = packet.CmdError, packet.ErrStatCmd
		sh.stats.Errors++
		sh.stats.ErrorResponses++
	}

	if h.mask&trace.KindRqst != 0 {
		// Aux carries the source link ID so offline analyzers can match
		// this service event to its SEND event.
		sh.vaultEv = append(sh.vaultEv, trace.Event{
			Clock: h.clk,
			Kind:  trace.KindRqst, Dev: d.ID, Link: trace.None, Quad: v.Quad,
			Vault: vi, Bank: dec.Bank, Addr: addr, Tag: tag,
			Cmd: cmd.String(), Aux: uint64(slid),
		})
	}

	if cmd.IsPosted() && errStat == packet.ErrStatOK {
		sh.stats.Posted++
		return false
	}

	// The response overwrites the request's buffer: every field it needs
	// was captured above, and read payloads stage through sh.rdbuf, which
	// never aliases packet storage.
	mustResponseInto(p, packet.Response{
		CUB: uint8(d.ID), Tag: tag, Cmd: rspCmd,
		SLID: slid, Seq: seq, ErrStat: errStat,
		DInv: errStat != packet.ErrStatOK, Data: rspData,
	})
	// Space was checked by the caller; a failure here is an engine bug.
	if err := v.RspQ.Push(p, h.clk); err != nil {
		panic("hmcsim: vault response queue overflow")
	}
	sh.stats.Responses++
	if h.mask&trace.KindRsp != 0 {
		sh.vaultEv = append(sh.vaultEv, trace.Event{
			Clock: h.clk,
			Kind:  trace.KindRsp, Dev: d.ID, Link: trace.None, Quad: v.Quad,
			Vault: vi, Bank: dec.Bank, Addr: addr, Tag: tag,
			Cmd: rspCmd.String(),
		})
	}
	return true
}
