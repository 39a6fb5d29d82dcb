// Package host implements the host-processor side of the simulation: a
// driver that reproduces the behaviour of the paper's random access test
// application (and, by extension, a minimal Goblin-Core64-style memory
// front end). The driver sends as many memory requests as possible to the
// target devices each cycle until an appropriate stall is received
// indicating that the crossbar arbitration queues are full, selecting
// links with a configurable policy (simple round-robin by default), and
// drains response packets every cycle, correlating them to outstanding
// requests by (link, tag).
package host

import (
	"errors"
	"fmt"
	"slices"

	"hmcsim/internal/core"
	"hmcsim/internal/obs"
	"hmcsim/internal/packet"
	"hmcsim/internal/stats"
	"hmcsim/internal/workload"
)

// ErrAllLinksFailed reports that every host link of the injection device
// has been permanently failed by the fault model; no further traffic can
// be injected. Campaign drivers treat it as a terminal cell outcome
// rather than a simulation defect.
var ErrAllLinksFailed = errors.New("host: every host link of the injection device has failed")

// Options configures a Driver.
type Options struct {
	// Dev is the root device whose host links carry the traffic.
	Dev int
	// Select chooses the injection link per access; nil selects simple
	// round-robin across the device's host links.
	Select workload.LinkSelector
	// DestCube maps an access to a destination cube ID; nil sends
	// everything to Dev (the directly attached device).
	DestCube func(workload.Access) int
	// Route, when non-nil, maps an access to both a destination cube and
	// the cube-local address the request carries — the fabric layer's
	// address-interleave hook. It takes precedence over DestCube. The
	// function must be pure: a resumed run replays it against the
	// regenerated access stream.
	Route func(a workload.Access) (cube int, addr uint64)
	// Posted issues writes as posted requests (no responses).
	Posted bool
	// MaxCycles aborts the run when the clock passes this bound; zero
	// selects a generous default proportional to the request count.
	MaxCycles uint64
	// FillData, when set, supplies the write payload for an access;
	// nil writes a cheap deterministic address-derived pattern.
	FillData func(a workload.Access, buf []uint64)
	// SampleOccupancy records per-cycle queue occupancy histograms in the
	// result, for queue-depth tuning studies.
	SampleOccupancy bool
	// GapCycles paces the injection: access k is not injected before
	// cycle k*GapCycles, modeling a sparse traffic source (a compute
	// phase between memory bursts). It is a workload parameter — it
	// changes what is simulated, so digests differ from an unpaced run —
	// and the prime beneficiary of the idle-skip wheel: the dead cycles
	// between due times collapse to bulk advances. Zero disables pacing.
	GapCycles uint64
	// DisableIdleSkip forces the exact cycle-by-cycle walk even through
	// provably inert cycles. Results are bit-identical either way (the
	// wheel's contract, DESIGN.md §14); the knob exists for equivalence
	// tests and walk-path benchmarks.
	DisableIdleSkip bool
	// Warmup excludes the first Warmup injected requests from the
	// measured cycles, latency distribution and engine counters — the
	// standard simulator methodology of discarding the cold-start
	// transient. The warm-up requests still execute and still count in
	// Sent.
	Warmup uint64
	// Interrupt, when non-nil, is polled once per simulated cycle; a
	// non-nil return aborts the run with that error after recording the
	// cycles and counters accumulated so far. The simulation service
	// uses it to propagate per-job context cancellation and timeouts
	// into the clock loop. It has no effect on runs that complete: the
	// deterministic cycle-by-cycle execution is unchanged.
	Interrupt func() error
	// Progress, when non-nil, receives the driver's live counters
	// (simulated clock, requests injected, responses correlated) once
	// per simulated cycle via Probe.Set — three atomic stores, no
	// allocation and no locks, preserving the zero-allocation clock
	// hot path (DESIGN.md §11). The simulation service threads a probe
	// here so running jobs report live progress; it never influences
	// the simulation itself.
	Progress *obs.Probe
	// CheckpointEvery, when non-zero alongside Checkpoint, delivers a
	// periodic checkpoint every CheckpointEvery simulated cycles. The
	// capture happens at the inter-cycle boundary right after the clock
	// edge, so a resumed run re-enters the loop exactly where the
	// original would have continued; the capture itself is read-only and
	// does not perturb the simulation (DESIGN.md §12).
	CheckpointEvery uint64
	// Checkpoint, when non-nil, receives periodic checkpoints (see
	// CheckpointEvery) and the final checkpoint of a suspended run (see
	// ErrSuspended). A non-nil return aborts the run with that error.
	Checkpoint func(*Checkpoint) error
}

// Result summarizes one driver run.
type Result struct {
	// Cycles is the simulated runtime in clock cycles: the number of
	// clock cycles the simulator required to complete all requests.
	Cycles uint64
	// Sent is the number of requests injected.
	Sent uint64
	// Completed is the number of responses received and correlated.
	Completed uint64
	// Errors is the number of error response packets received.
	Errors uint64
	// Latency is the distribution of request round-trip latencies in
	// cycles, measured from Send to Recv for non-posted requests.
	Latency stats.Histogram
	// RemoteLatency is the round-trip latency distribution restricted to
	// requests whose destination cube was not the injection device —
	// traffic that crossed at least one inter-cube link each way. Empty
	// unless a DestCube/Route hook steered traffic off-cube.
	RemoteLatency stats.Histogram
	// VaultOccupancy and XbarOccupancy are per-cycle queue censuses
	// (request direction), recorded when Options.SampleOccupancy is set.
	VaultOccupancy stats.Histogram
	XbarOccupancy  stats.Histogram
	// Engine is the simulator's own counter snapshot at completion.
	Engine core.Stats
	// IdleCyclesSkipped and Wakeups report the idle-skip wheel's work
	// over the whole run (warm-up included; resumed runs accumulate
	// across suspensions). They are observability only — excluded from
	// eval.ResultDigest, so walked and skipped runs digest identically.
	IdleCyclesSkipped uint64
	Wakeups           uint64
}

// Throughput returns completed requests per cycle.
func (r Result) Throughput() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Sent) / float64(r.Cycles)
}

// Driver drives one HMC object from the host side.
type Driver struct {
	h    *core.HMC
	opts Options

	hostLinks []int
	// drainPorts lists every (device, link) host port in the topology:
	// in multi-root topologies a response exits at the host port nearest
	// the servicing device, which need not be the injection device.
	drainPorts [][2]int
	// pending[link][tag] records the issue cycle; a tag is free when its
	// entry is negative. Responses are correlated by their preserved
	// source link ID (the injection link), not the port they surfaced on.
	pending [][]int64
	// freeTags[link] is a stack of unallocated tags.
	freeTags [][]uint16
	// remote[link][tag] marks an outstanding request whose destination
	// cube differs from the injection device, so its response lands in
	// RemoteLatency as well as Latency.
	remote [][]bool

	// queued holds the access awaiting a free slot after a stall;
	// hasQueued reports whether it is occupied. A value plus flag (rather
	// than a pointer) keeps the per-access state out of the heap.
	queued    workload.Access
	hasQueued bool
	// drawn counts generator Next calls, the workload position a resumed
	// run fast-forwards a fresh generator to.
	drawn   uint64
	dataBuf [16]uint64
	// rr is the default round-robin selector, kept across Resets.
	rr workload.RoundRobin

	// ids is the completion list Tick returns, reused every cycle.
	ids []uint64
	// issueErr is the first error an Issue met; every later Issue
	// refuses and every Tick returns it, until Reset.
	issueErr error
}

// runState groups the loop-carried run variables so Run and Resume can
// share one loop body.
type runState struct {
	outstanding uint64
	warmedUp    bool
	baseCycles  uint64
	baseStats   core.Stats
}

// NewDriver prepares a driver for h. The topology must already be wired;
// the device must expose at least one host link.
func NewDriver(h *core.HMC, opts Options) (*Driver, error) {
	d := &Driver{h: h}
	if err := d.Reset(opts); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset prepares d for a new run over its engine with opts, exactly as
// NewDriver(engine, opts) would, but reusing the tag tables and port
// lists of the previous run. The engine's topology must be wired; it
// need not be the one the previous run used. Nothing of the previous
// run's options survives, hooks included. After an error d is unusable
// until a Reset succeeds.
func (d *Driver) Reset(opts Options) error {
	d.opts = opts
	d.queued, d.hasQueued, d.drawn = workload.Access{}, false, 0
	d.ids, d.issueErr = d.ids[:0], nil
	t := d.h.Topology()
	d.hostLinks = append(d.hostLinks[:0], t.HostLinks(opts.Dev)...)
	if len(d.hostLinks) == 0 {
		return fmt.Errorf("host: device %d has no host links", opts.Dev)
	}
	d.drainPorts = d.drainPorts[:0]
	for root := range t.NumDevs() {
		for _, l := range t.HostLinks(root) {
			d.drainPorts = append(d.drainPorts, [2]int{root, l})
		}
	}
	if d.opts.Select == nil {
		d.rr = workload.RoundRobin{NumLinks: len(d.hostLinks)}
		d.opts.Select = &d.rr
	}
	if nl := d.h.Config().NumLinks; len(d.pending) != nl {
		d.pending = make([][]int64, nl)
		d.freeTags = make([][]uint16, nl)
		d.remote = make([][]bool, nl)
	}
	for l := range d.pending {
		if !slices.Contains(d.hostLinks, l) {
			// Not a host link: no tags, and a nil table, which a checkpoint
			// records as null.
			d.pending[l], d.freeTags[l], d.remote[l] = nil, nil, nil
			continue
		}
		if d.pending[l] == nil {
			d.pending[l] = make([]int64, packet.MaxTag+1)
			d.remote[l] = make([]bool, packet.MaxTag+1)
			d.freeTags[l] = make([]uint16, 0, packet.MaxTag+1)
		}
		for i := range d.pending[l] {
			d.pending[l][i] = -1
		}
		clear(d.remote[l])
		// The stack pops from the end, so tag 0 is issued first.
		ft := d.freeTags[l][:0]
		for tag := packet.MaxTag; tag >= 0; tag-- {
			ft = append(ft, uint16(tag))
		}
		d.freeTags[l] = ft
	}
	return nil
}

// Run injects n accesses from gen and clocks the simulation until every
// request has been serviced and every non-posted request's response has
// been received.
func (d *Driver) Run(gen workload.Generator, n uint64) (Result, error) {
	var res Result
	return d.run(gen, n, res, runState{warmedUp: d.opts.Warmup == 0})
}

// endCycle performs the post-clock-edge bookkeeping shared by the main
// loop and the suspend path: probe update and occupancy sampling.
func (d *Driver) endCycle(res *Result, probe *obs.Probe) {
	if probe != nil {
		probe.Set(d.h.Clk(), res.Sent, res.Completed)
	}
	if d.opts.SampleOccupancy {
		o := d.h.Occupancy()
		res.VaultOccupancy.Observe(uint64(o.VaultRqst))
		res.XbarOccupancy.Observe(uint64(o.XbarRqst))
	}
}

// finish stamps the measured cycles, counter deltas and idle-skip
// totals into res. Every exit path of run goes through it.
func (d *Driver) finish(res *Result, st runState) {
	res.Cycles = d.h.Clk() - st.baseCycles
	res.Engine = d.h.Stats().Sub(st.baseStats)
	sk := d.h.SkipStats()
	res.IdleCyclesSkipped = sk.IdleCyclesSkipped
	res.Wakeups = sk.Wakeups
}

// run is the shared clock loop of Run and Resume.
func (d *Driver) run(gen workload.Generator, n uint64, res Result, st runState) (Result, error) {
	maxCycles := d.opts.MaxCycles
	if maxCycles == 0 {
		maxCycles = 1000*n + 100000
		if gap := d.opts.GapCycles; gap > 0 {
			// Paced injection stretches the run by design.
			maxCycles += n * gap
		}
	}

	// Hoisted once: the nil check and the probe pointer stay out of the
	// per-cycle loop body's happy path.
	probe := d.opts.Progress
	for {
		// Drain every candidate response first so tags recycle.
		got, errs, err := d.drain(&res)
		if err != nil {
			return res, err
		}
		res.Completed += got
		res.Errors += errs
		st.outstanding -= got

		// Inject until a stall or tag exhaustion.
		injected, done, err := d.inject(gen, n, &res)
		if err != nil {
			// Terminal outcomes (e.g. every host link failed) still report
			// the cycles and counters accumulated up to this point.
			d.finish(&res, st)
			return res, err
		}
		st.outstanding += injected

		if !st.warmedUp && res.Sent >= d.opts.Warmup {
			// Open the measurement window: forget the transient.
			st.warmedUp = true
			st.baseCycles = d.h.Clk()
			st.baseStats = d.h.Stats()
			res.Latency = stats.Histogram{}
			res.RemoteLatency = stats.Histogram{}
			res.VaultOccupancy = stats.Histogram{}
			res.XbarOccupancy = stats.Histogram{}
		}

		if done && st.outstanding == 0 && d.h.Quiescent() {
			break
		}
		if d.opts.Interrupt != nil {
			if ierr := d.opts.Interrupt(); ierr != nil {
				if errors.Is(ierr, ErrSuspended) && d.opts.Checkpoint != nil {
					// Finish the cycle so the checkpoint lands on the
					// inter-cycle boundary a resumed run restarts from;
					// aborting here, mid-iteration, would replay the
					// selector and sequence-counter draws this iteration
					// already consumed.
					if err := d.h.Clock(); err != nil {
						return res, err
					}
					d.endCycle(&res, probe)
					if ck, cerr := d.checkpoint(&res, st); cerr != nil {
						ierr = cerr
					} else if cerr := d.opts.Checkpoint(ck); cerr != nil {
						ierr = cerr
					}
				}
				d.finish(&res, st)
				return res, ierr
			}
		}
		if err := d.h.Clock(); err != nil {
			return res, err
		}
		d.endCycle(&res, probe)
		if every := d.opts.CheckpointEvery; every > 0 && d.opts.Checkpoint != nil && d.h.Clk()%every == 0 {
			ck, err := d.checkpoint(&res, st)
			if err != nil {
				return res, err
			}
			if err := d.opts.Checkpoint(ck); err != nil {
				d.finish(&res, st)
				return res, err
			}
		}
		if !d.opts.DisableIdleSkip {
			d.trySkip(n, &res, &st, probe, maxCycles)
		}
		if d.h.Clk() > maxCycles {
			return res, fmt.Errorf("host: run exceeded %d cycles with %d outstanding (%d/%d sent)",
				maxCycles, st.outstanding, res.Sent, n)
		}
	}
	d.finish(&res, st)
	return res, nil
}

// trySkip asks the engine's idle-skip wheel to bulk-advance past
// provably inert cycles. The driver contributes the external bound: the
// engine may not advance past the next injection due time (paced
// workloads), the next periodic-checkpoint boundary, or the run's cycle
// budget — everything between is dead time the walk would spend
// clearing six no-op stages per cycle.
//
// The skip window opens only when this iteration would make zero
// injection attempts (all requests sent, or the pacer's next due time
// is in the future): an attempted injection draws generator, selector
// and sequence state even when it stalls, and those draws are part of
// the deterministic schedule the walk defines.
func (d *Driver) trySkip(n uint64, res *Result, st *runState, probe *obs.Probe, maxCycles uint64) {
	var target uint64
	switch {
	case res.Sent >= n:
		if st.outstanding == 0 && d.h.Quiescent() {
			// The loop terminates on its next iteration; advancing the
			// clock now would overshoot the walk's final cycle.
			return
		}
		// Drain tail: only in-flight traffic remains. maxCycles+1 lets
		// a wedged run reach its abort bound in one hop.
		target = maxCycles + 1
	case d.opts.GapCycles > 0:
		due := d.nextDue()
		if due <= d.h.Clk() {
			return
		}
		target = due
	default:
		return
	}
	if target > maxCycles+1 {
		// Land exactly where the walk would trip the cycle-budget abort.
		target = maxCycles + 1
	}
	if every := d.opts.CheckpointEvery; every > 0 && d.opts.Checkpoint != nil {
		// Stop one cycle short of the next periodic-checkpoint boundary:
		// the boundary cycle must be reached by a real Clock call for
		// the post-edge capture to fire.
		if bound := (d.h.Clk()/every+1)*every - 1; bound < target {
			target = bound
		}
	}
	skipped := d.h.AdvanceIdle(target)
	if skipped == 0 {
		return
	}
	sk := d.h.SkipStats()
	if probe != nil {
		probe.Set(d.h.Clk(), res.Sent, res.Completed)
		probe.SetSkip(sk.IdleCyclesSkipped, sk.Wakeups)
	}
	if d.opts.SampleOccupancy {
		// Queue occupancy is constant across inert cycles, so one O(1)
		// bulk observation reproduces the walk's per-cycle samples
		// bit-for-bit.
		o := d.h.Occupancy()
		res.VaultOccupancy.ObserveN(uint64(o.VaultRqst), skipped)
		res.XbarOccupancy.ObserveN(uint64(o.XbarRqst), skipped)
	}
}

// nextDue returns the cycle at which the pacer releases the next
// access: access k is due at k*GapCycles. The index derives from the
// draw count (an access drawn but still queued behind a stall is the
// one currently due), so resumed runs need no extra state.
func (d *Driver) nextDue() uint64 {
	k := d.drawn
	if d.hasQueued {
		k = d.drawn - 1
	}
	return k * d.opts.GapCycles
}

// inject sends accesses until n have been sent, a queue stalls, or tags
// run out. It reports the number of newly outstanding (non-posted)
// requests and whether all n accesses have been injected.
func (d *Driver) inject(gen workload.Generator, n uint64, res *Result) (uint64, bool, error) {
	var outstanding uint64
	for res.Sent < n {
		// Paced injection: the next access is released only at its due
		// cycle. The gate sits before every draw (generator, selector,
		// tag, sequence counter), so a gated cycle consumes no
		// deterministic state — the property that lets the idle-skip
		// wheel jump the dead cycles without perturbing the schedule.
		if d.opts.GapCycles > 0 && d.nextDue() > d.h.Clk() {
			return outstanding, false, nil
		}
		if !d.hasQueued {
			d.queued = gen.Next()
			d.drawn++
			d.hasQueued = true
		}
		_, ok, err := d.send(&d.queued)
		if err != nil || !ok {
			return outstanding, false, err
		}
		res.Sent++
		d.hasQueued = false
		if !d.opts.Posted || !d.queued.Write {
			outstanding++
		}
	}
	return outstanding, true, nil
}

// send makes one injection attempt for a, the single-access path of both
// Run and Issue. It selects a link, skipping failed ones, takes a tag,
// builds the command and payload and hands the request to the engine.
// ok is false on a stall: no free tag on the selected link, or a full
// link queue. An accepted request's ID is link<<16 | tag; a non-posted
// one holds its tag until drain correlates the response, a posted one
// releases it at once.
func (d *Driver) send(a *workload.Access) (id uint64, ok bool, err error) {
	for {
		// The selector names a preferred injection link; permanently failed
		// links are skipped in favour of the next surviving host link
		// (degraded-mode operation).
		sel := d.opts.Select.Select(*a) % len(d.hostLinks)
		link := -1
		for off := 0; off < len(d.hostLinks); off++ {
			cand := d.hostLinks[(sel+off)%len(d.hostLinks)]
			if !d.h.LinkFailed(d.opts.Dev, cand) {
				link = cand
				break
			}
		}
		if link < 0 {
			return 0, false, fmt.Errorf("%w (device %d)", ErrAllLinksFailed, d.opts.Dev)
		}
		if len(d.freeTags[link]) == 0 {
			// No tag available on this link; other links may still have
			// capacity, but a blocked stream must preserve order — stop
			// injecting for this cycle.
			return 0, false, nil
		}
		tag := d.takeTag(link)
		posted := d.opts.Posted && a.Write

		cube, addr := d.opts.Dev, a.Addr
		if d.opts.Route != nil {
			cube, addr = d.opts.Route(*a)
		} else if d.opts.DestCube != nil {
			cube = d.opts.DestCube(*a)
		}

		var cmd packet.Command
		var data []uint64
		if a.Write {
			cmd, err = packet.WriteForSize(a.Size, posted)
			if err == nil {
				data = d.dataBuf[:a.Size/8]
				if d.opts.FillData != nil {
					d.opts.FillData(*a, data)
				} else {
					for i := range data {
						data[i] = a.Addr + uint64(i)
					}
				}
			}
		} else {
			cmd, err = packet.ReadForSize(a.Size)
		}
		if err != nil {
			d.putTag(link, tag)
			return 0, false, err
		}

		// SendRequest encodes straight into a simulation-owned pooled
		// buffer: one CRC computation and no per-request allocation.
		err = d.h.SendRequest(d.opts.Dev, link, packet.Request{
			CUB: uint8(cube), Addr: addr, Tag: tag, Cmd: cmd, Data: data,
		})
		if errors.Is(err, core.ErrStall) {
			d.putTag(link, tag)
			return 0, false, nil
		}
		if errors.Is(err, core.ErrLinkFailed) {
			// The injection link failed mid-transfer and the packet was
			// lost before acceptance. Re-issue the access immediately on a
			// surviving link (the selection loop above now skips this one).
			d.putTag(link, tag)
			continue
		}
		if err != nil {
			d.putTag(link, tag)
			return 0, false, err
		}
		if posted {
			d.putTag(link, tag)
		} else {
			d.pending[link][tag] = int64(d.h.Clk())
			d.remote[link][tag] = cube != d.opts.Dev
		}
		return requestID(link, tag), true, nil
	}
}

// requestID is the ID the Memory face reports for the request holding
// tag on link.
func requestID(link int, tag uint16) uint64 { return uint64(link)<<16 | uint64(tag) }

// Issue sends a as one request — the memory interface of the processor
// model (cpu.Memory), with Options.Posted, Select, DestCube and Route
// applied as in Run — and returns its link<<16 | tag ID. ok is false
// when the request stalls, or after an error, which the next Tick
// returns.
func (d *Driver) Issue(a workload.Access) (id uint64, ok bool) {
	if d.issueErr != nil {
		return 0, false
	}
	id, ok, err := d.send(&a)
	if err != nil {
		d.issueErr = err
		return 0, false
	}
	return id, ok
}

// Tick clocks the engine one cycle and returns the IDs of the responses
// that arrived; posted requests never appear. The slice is reused by
// the next Tick.
func (d *Driver) Tick() ([]uint64, error) {
	if d.issueErr != nil {
		return nil, d.issueErr
	}
	if err := d.h.Clock(); err != nil {
		return nil, err
	}
	d.ids = d.ids[:0]
	_, _, err := d.drain(nil)
	return d.ids, err
}

// OutstandingLimit is the tag space of the injection device's host
// links, the Memory face's bound on requests in flight.
func (d *Driver) OutstandingLimit() int { return len(d.hostLinks) * (packet.MaxTag + 1) }

// drain receives every waiting response on every host link, recording
// latencies into res and counting error responses. A nil res is Tick's:
// it lists the response IDs in d.ids instead.
func (d *Driver) drain(res *Result) (completed, errs uint64, err error) {
	for _, port := range d.drainPorts {
		if !d.h.RecvReady(port[0], port[1]) {
			// A receive would only report that nothing is waiting: most
			// ports on most cycles.
			continue
		}
		if d.h.LinkFailed(port[0], port[1]) {
			// Responses re-route to surviving host ports; the failed port
			// carries no further traffic.
			continue
		}
		for {
			rsp, rerr := d.h.RecvPacket(port[0], port[1])
			if rerr != nil {
				// The engine returns both sentinels bare, so the compares
				// settle it; errors.Is stays for a wrapped one.
				if rerr == core.ErrStall || errors.Is(rerr, core.ErrStall) {
					break
				}
				if rerr == core.ErrLinkFailed || errors.Is(rerr, core.ErrLinkFailed) {
					// The port failed between the census above and this
					// receive (statically failed links are applied on the
					// first simulation call): treat it like any other dead
					// port.
					break
				}
				return completed, errs, rerr
			}
			// The source link ID identifies the injection link regardless
			// of which host port the response surfaced on.
			link := int(rsp.SLID)
			if link >= len(d.pending) || d.pending[link] == nil {
				return completed, errs, fmt.Errorf("host: response with unknown source link %d", link)
			}
			issue := d.pending[link][rsp.Tag]
			if issue < 0 {
				return completed, errs, fmt.Errorf("host: response on link %d with unknown tag %d", link, rsp.Tag)
			}
			if res == nil {
				d.ids = append(d.ids, requestID(link, rsp.Tag))
			} else {
				lat := d.h.Clk() - uint64(issue)
				res.Latency.Observe(lat)
				if d.remote[link][rsp.Tag] {
					res.RemoteLatency.Observe(lat)
				}
			}
			d.putTag(link, rsp.Tag)
			completed++
			if rsp.Cmd == packet.CmdError {
				errs++
			}
		}
	}
	return completed, errs, nil
}

// takeTag allocates a free tag on a link. The caller must have checked
// len(d.freeTags[link]) > 0.
func (d *Driver) takeTag(link int) uint16 {
	ft := d.freeTags[link]
	tag := ft[len(ft)-1]
	d.freeTags[link] = ft[:len(ft)-1]
	d.pending[link][tag] = int64(d.h.Clk()) // provisional; overwritten on success
	return tag
}

func (d *Driver) putTag(link int, tag uint16) {
	if d.pending[link][tag] >= 0 {
		d.pending[link][tag] = -1
		d.remote[link][tag] = false
		d.freeTags[link] = append(d.freeTags[link], tag)
	}
}
