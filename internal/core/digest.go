package core

import (
	"encoding/binary"
	"hash/fnv"
)

// Snapshot is an exportable summary of one simulation object at a point
// in time: the clock, the engine counters and the architectural state
// digest. It is the result payload the simulation service attaches to a
// finished job, and the unit of the determinism guarantee: two runs of
// the same deterministic workload produce equal Snapshots.
type Snapshot struct {
	// Cycles is the clock value at the time of the snapshot.
	Cycles uint64 `json:"cycles"`
	// Stats is the engine counter snapshot.
	Stats Stats `json:"stats"`
	// Digest is the StateDigest over the architectural state.
	Digest uint64 `json:"digest"`
}

// Snapshot captures the current clock, counters and state digest.
func (h *HMC) Snapshot() Snapshot {
	return Snapshot{Cycles: h.clk, Stats: h.stats, Digest: h.StateDigest()}
}

// StateDigest returns a 64-bit FNV-1a digest over the architectural state
// of the simulation: the clock, every queued packet in every queue, the
// register files, link flow-control state, and the engine counters. Two
// simulations that executed the same deterministic run always produce the
// same digest, so the digest pins behaviour across refactors and makes
// divergence bugs bisectable ("at which cycle do two builds first
// differ?").
//
// Bank data contents are digested only through the Stored block counts;
// full data hashing would defeat the sparse-storage substitution for
// large runs. Functional data correctness is covered by the read-back
// tests instead.
func (h *HMC) StateDigest() uint64 {
	d := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		d.Write(buf[:])
	}

	w64(h.clk)
	w64(uint64(h.cfg.NumDevs))

	for _, dev := range h.devs {
		w64(uint64(dev.ID))
		for li := range dev.Links {
			l := &dev.Links[li]
			w64(uint64(int64(l.Tokens)))
			w64(l.ReqFlits)
			w64(l.RspFlits)
			for i := 0; i < l.RqstQ.Len(); i++ {
				for _, word := range l.RqstQ.At(i).Words() {
					w64(word)
				}
			}
			for i := 0; i < l.RspQ.Len(); i++ {
				for _, word := range l.RspQ.At(i).Words() {
					w64(word)
				}
			}
		}
		for vi := range dev.Vaults {
			v := &dev.Vaults[vi]
			for i := 0; i < v.RqstQ.Len(); i++ {
				for _, word := range v.RqstQ.At(i).Words() {
					w64(word)
				}
			}
			for i := 0; i < v.RspQ.Len(); i++ {
				for _, word := range v.RspQ.At(i).Words() {
					w64(word)
				}
			}
			for b := range v.Banks {
				w64(uint64(v.Banks[b].Stored()))
			}
		}
		for _, r := range dev.Regs.Registers() {
			w64(r.Phys)
			w64(r.Value)
		}
	}

	st := h.stats
	w64(st.Reads)
	w64(st.Writes)
	w64(st.Atomics)
	w64(st.Posted)
	w64(st.Modes)
	w64(st.BankConflicts)
	w64(st.XbarRqstStalls)
	w64(st.LatencyEvents)
	w64(st.RouteHops)
	w64(st.Errors)
	return d.Sum64()
}
