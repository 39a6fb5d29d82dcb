package core

import "math"

// This file implements the event-wheel idle-skip execution core
// (DESIGN.md §14): ClockN consults nextWakeup to bulk-advance the clock
// to the earliest cycle at which any packet can make progress, instead
// of walking the six sub-cycle stages through provably inert cycles.
//
// The invariant the wheel maintains is strict: a cycle may be skipped
// only if the full sub-cycle walk over it would have touched no
// digest-bearing state — no queue mutation, no stat counter, no trace
// event, no fault-stream draw. Anything less than certainty falls back
// to the exact walk, so walked and skipped executions are bit-identical
// in every pinned digest and trace stream; only wall clock differs.

// SkipStats counts the work the idle-skip wheel elided: the clock
// cycles bulk-advanced past and the number of bulk advances (wakeups)
// taken. The counters live outside Stats and outside StateDigest —
// whether a cycle was walked or skipped is an execution detail that
// must never move a pinned digest.
type SkipStats struct {
	// IdleCyclesSkipped is the total clock cycles elided by AdvanceIdle.
	IdleCyclesSkipped uint64 `json:"idle_cycles_skipped"`
	// Wakeups is the number of bulk advances taken.
	Wakeups uint64 `json:"wakeups"`
}

// Add accumulates other into s.
func (s *SkipStats) Add(other SkipStats) {
	s.IdleCyclesSkipped += other.IdleCyclesSkipped
	s.Wakeups += other.Wakeups
}

// AdvanceIdle bulk-advances the clock toward target (exclusive upper
// bound semantics: the clock never moves past target) when every cycle
// in between is provably inert, returning the number of cycles elided.
// Zero means the next cycle may do work and must be walked with Clock.
//
// The advance lands on the earliest of: target, the next wakeup derived
// from queue state (nextWakeup), and the next scheduled timed link
// failure. Callers advance external state (the host driver's injection
// schedule) through the target bound.
func (h *HMC) AdvanceIdle(target uint64) uint64 {
	if !h.sealed || target <= h.clk {
		return 0
	}
	// Cheap busy gate: with single-cycle hops (LinkLatency <= 1) no
	// queued packet ever dwells, so any pooled in-flight packet forces a
	// walk — exactly what the full analysis below would conclude, at the
	// cost of one atomic load instead of a queue scan. This keeps the
	// saturated single-cube path at its pre-wheel cost.
	if h.pool.InUse() > 0 && uint64(h.cfg.LinkLatency) <= 1 {
		return 0
	}
	if !h.regsClean() {
		// A pending RWS self-clear is observable on the next edge.
		return 0
	}
	wake, ok := h.nextWakeup()
	if !ok {
		return 0
	}
	to := target
	if wake < to {
		to = wake
	}
	if h.timedIdx < len(h.timedFaults) {
		// Landing exactly on the failure cycle is correct: the schedule
		// applies at the top of the next Clock, as the walk would.
		if tf := h.timedFaults[h.timedIdx].Cycle; tf < to {
			to = tf
		}
	}
	if to <= h.clk {
		return 0
	}
	skipped := to - h.clk
	// Each walked inert cycle would have cleared the per-cycle moved
	// marks and set none; one clear of the occupied queues' tag rings
	// reproduces the walk's end state, so checkpoints taken after a skip
	// match checkpoints taken after the equivalent walk.
	h.clearCycleFlags()
	h.clk = to
	h.skip.IdleCyclesSkipped += skipped
	h.skip.Wakeups++
	return skipped
}

// nextWakeup derives the earliest future cycle at which any queued
// packet could make progress. ok is false when some packet may act on
// the very next cycle (or when progress cannot be bounded), forcing the
// exact walk. When ok is true and wake is math.MaxUint64, the engine is
// fully quiescent and only external events (injection, timed faults)
// can wake it.
//
// The analysis mirrors the sub-cycle stages exactly:
//
//   - An occupied link-retry buffer replays on the next cycle: walk.
//   - A non-empty vault request or response queue is serviced (or at
//     least examined, drawing fault-stream rolls) next cycle: walk.
//   - A non-empty crossbar request queue is inert only when its head is
//     a valid remote forward dwelling out its link latency
//     (forwardRemote stalls on the dwell before any stat, draw or
//     queue-full check). The head wakes at Arrived+LinkLatency. In
//     passing mode a packet behind the head bound for a local vault can
//     pass the stalled head, so every queued packet must be
//     remote-bound; without passing the head blocks the whole queue.
//   - A non-empty crossbar response queue is inert only on a healthy
//     pass-through link whose head is dwelling (the dwell stall in
//     responseStage blocks the whole queue before any draw). Host-facing
//     queues wait on the external receiver; failed links are rescued
//     and administratively-down links can clear at any register edge:
//     all walk.
//
// Refresh windows need no wakeups: refresh only gates bank service,
// which requires a non-empty vault queue — already a walk.
func (h *HMC) nextWakeup() (wake uint64, ok bool) {
	if h.retryPending != 0 {
		return 0, false
	}
	wake = math.MaxUint64
	lat := uint64(h.cfg.LinkLatency)
	for i, d := range h.devs {
		o := &h.occ[i]
		if o.vrqst|o.vrsp != 0 {
			return 0, false
		}
		if o.rqst|o.rsp != 0 && lat <= 1 {
			return 0, false
		}
		for li := nextBit(o.rqst, 0); li < 64; li = nextBit(o.rqst, li+1) {
			l := &d.Links[li]
			if !l.Active {
				return 0, false
			}
			head := l.RqstQ.Head()
			dest := int(head.CUB())
			if dest == d.ID || dest < 0 || dest >= h.cfg.NumDevs {
				// Local delivery (or an error response for an invalid
				// cube) happens next cycle.
				return 0, false
			}
			if _, routed := h.routes.NextHop(d.ID, dest); !routed {
				return 0, false
			}
			w := head.Arrived + lat
			if w <= h.clk {
				// Dwell elapsed: the head is stalled downstream
				// (full peer queue, link down) — conditions that can
				// change as soon as other queues move.
				return 0, false
			}
			if h.cfg.XbarPassing {
				// A local-bound packet behind the head may pass the
				// stalled remote forward and act immediately.
				for i, n := 1, l.RqstQ.Len(); i < n; i++ {
					if int(l.RqstQ.At(i).CUB()) == d.ID {
						return 0, false
					}
				}
			}
			if w < wake {
				wake = w
			}
		}
		for li := nextBit(o.rsp, 0); li < 64; li = nextBit(o.rsp, li+1) {
			l := &d.Links[li]
			if !l.Active {
				return 0, false
			}
			if l.DstCube < 0 || l.DstCube >= h.cfg.NumDevs {
				// Host-facing responses drain at the host's pace.
				return 0, false
			}
			if h.linkFailed(d.ID, li) || h.linkFailed(l.DstCube, l.DstLink) {
				// The rescue pass migrates stranded responses next
				// cycle.
				return 0, false
			}
			if linkDown(d, li) || linkDown(h.devs[l.DstCube], l.DstLink) {
				// An administratively-down link can clear at any
				// register edge; progress is unbounded.
				return 0, false
			}
			w := l.RspQ.Head().Arrived + lat
			if w <= h.clk {
				return 0, false
			}
			if w < wake {
				wake = w
			}
		}
	}
	return wake, true
}

// applyTimedFaults applies every scheduled link failure whose cycle has
// arrived. It runs at the top of Clock — before the idle fast path — so
// a failure scheduled during dead time still fires on its exact cycle,
// walked or skipped.
func (h *HMC) applyTimedFaults() {
	for h.timedIdx < len(h.timedFaults) && h.timedFaults[h.timedIdx].Cycle <= h.clk {
		t := h.timedFaults[h.timedIdx]
		h.timedIdx++
		h.failLink(t.Dev, t.Link)
	}
}
