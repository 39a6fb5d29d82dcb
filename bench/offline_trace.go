package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"hmcsim/internal/core"
	"hmcsim/internal/packet"
	"hmcsim/internal/stats"
	"hmcsim/internal/workload"
)

// streamSample bounds the access stream the isolated workload, packet and
// route loops replay: the leading accesses of the leg's own stream.
const streamSample = 1 << 18

// paperShape is Table I's published shape: the mean speed-up from
// doubling banks, from doubling links, and from config 1 to config 4.
var paperShape = [3]float64{1.700, 2.319, 3.872}

// shapeRelErr is the largest relative error of the simulated Table I
// speed-ups against the paper's, from the four configurations' cycles.
func shapeRelErr(c [4]float64) float64 {
	got := [3]float64{
		(c[0]/c[1] + c[2]/c[3]) / 2,
		(c[0]/c[2] + c[1]/c[3]) / 2,
		c[0] / c[3],
	}
	var worst float64
	for i, want := range paperShape {
		worst = max(worst, math.Abs(got[i]-want)/want)
	}
	return worst
}

// mallocs reads the allocation count without forcing a collection.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// traceOffline is the traced run of an offline workload. Each leg runs
// once through host.Driver.Run (the reference the overhead and cycle
// ratios compare against, and the source of the simulated statistics)
// and once through the step loop with spans on; the per-call costs of
// workload and packet are then timed in isolation on the leg's own
// access stream.
func traceOffline(o runOpts, t *tally, rec *recorder) error {
	legs, err := offlineLegs(o.workload, uint32(o.seed), o.scale)
	if err != nil {
		return err
	}
	if err := warmUp(legs); err != nil {
		return err
	}

	var (
		ph                   phases
		refRun               time.Duration // Driver.Run, CPU time
		refCycles, stepCyc   uint64
		reqs, runAllocs      uint64
		skipped, wakeups     uint64
		buildMS, fabricBuild float64
		buildAllocs          uint64
		eng                  core.Stats
		lat                  stats.Histogram
		cycles               []float64
		fig5Samples          int
		iso                  isolated
	)
	for _, l := range legs {
		ref, err := runLeg(l)
		if err != nil {
			return fmt.Errorf("%s: %w", l.name, err)
		}
		checkRun(t, l, &ref, &ref)
		refRun += ref.run
		refCycles, reqs = refCycles+ref.res.Cycles, reqs+ref.res.Sent
		skipped, wakeups = skipped+ref.res.IdleCyclesSkipped, wakeups+ref.res.Wakeups
		eng.Add(ref.res.Engine)
		lat.Merge(&ref.res.Latency)
		cycles = append(cycles, float64(ref.res.Cycles))
		fig5Samples += ref.fig5Samples

		// The same leg again, stepped from outside with spans on.
		t0 := time.Now()
		m0 := mallocs()
		b, err := l.build(rec)
		if err != nil {
			return err
		}
		m1 := mallocs()
		t1 := time.Now()
		if l.fabric != nil {
			fabricBuild += ms(t1.Sub(t0))
		}
		buildMS += ms(t1.Sub(t0))
		buildAllocs += m1 - m0
		st := newStepper(l, b)
		stepped := legRun{}
		if stepped.res, err = st.run(b.gen, l.n, 0, rec, l.name); err != nil {
			return fmt.Errorf("%s step loop: %w", l.name, err)
		}
		t2 := time.Now()
		runAllocs += mallocs() - m1
		stepped.digests(b)
		t3 := time.Now()
		rec.add("run", l.name, "job", l.name, t1, t2)
		rec.add("digest", l.name, "job", l.name, t2, t3)
		rec.add("job", l.name, "", "", t0, t3)
		ph.add(st.ph)
		stepCyc += stepped.res.Cycles
		t.check(stepped.resultDigest == ref.resultDigest && stepped.stateDigest == ref.stateDigest,
			"%s: step loop digests %016x/%016x differ from Driver.Run's %016x/%016x", l.name,
			stepped.resultDigest, stepped.stateDigest, ref.resultDigest, ref.stateDigest)

		if err := iso.measure(l, b, rec); err != nil {
			return err
		}
	}

	n := float64(reqs)
	t.set("workload.next_ns", iso.nextNS())
	t.set("workload.accesses", n)
	if o.workload != "sparse" {
		// Packet cost per request is the same on sparse; it is left out
		// there because no sparse metric is predicted to move with it.
		t.set("packet.encode_ns", iso.encodeNS())
		t.set("packet.decode_ns", iso.decodeNS())
		t.set("packet.crc_ns_per_flit", iso.crcNS())
	}
	t.set("core.clock_ns", ratio(float64(ph.clock), float64(ph.clockCalls)))
	t.set("core.clock_calls", float64(ph.clockCalls))
	sendSelf := float64(ph.inject) - iso.nextNS()*float64(ph.drawn) - iso.encodeNS()*n
	t.set("core.send_ns", ratio(max(sendSelf, 0), float64(ph.sendCalls)))
	t.set("core.send_stall_frac", ratio(float64(ph.sendStalls), float64(ph.sendCalls)))
	t.set("core.recv_ns", ratio(max(float64(ph.drain)-iso.decodeNS()*n, 0), float64(ph.recvCalls)))
	t.set("core.run_allocs", float64(runAllocs))
	t.set("core.advance_idle_ns", ratio(float64(ph.skip), float64(ph.skipCalls)))
	t.set("core.skip_frac", ratio(float64(skipped), float64(refCycles)))
	t.set("core.wakeups", float64(wakeups))
	t.set("core.build_ms", buildMS)
	t.set("core.build_allocs", float64(buildAllocs))
	t.set("host.run_ns_per_req", ratio(float64(refRun), n))
	t.set("host.inject_share", ratio(float64(ph.inject), float64(ph.wall)))
	t.set("host.drain_share", ratio(float64(ph.drain), float64(ph.wall)))
	// Driver.Run is timed in CPU time, the step loop's phases on the wall
	// clock: take Clock's share of the step loop, then the loop's CPU time.
	clockCPU := ratio(float64(ph.clock), float64(ph.wall)) * float64(ph.cpu)
	t.set("host.overhead_share", 1-ratio(clockCPU, float64(refRun)))
	t.set("stats.fig5_samples", float64(fig5Samples))
	t.set("fabric.build_ms", fabricBuild)
	t.set("fabric.route_ns", iso.routeNS())
	t.set("fabric.hops_per_req", ratio(float64(iso.hops), n))
	t.set("fabric.remote_frac", ratio(float64(iso.remote), n))

	t.set("model.sim_cycles", float64(refCycles))
	if o.workload == "table1" {
		t.set("model.table1_shape_relerr", shapeRelErr([4]float64(cycles)))
	}
	t.set("model.req_per_cycle", ratio(n, float64(refCycles)))
	t.set("model.bank_conflicts_per_req", ratio(float64(eng.BankConflicts), n))
	t.set("model.xbar_rqst_stalls_per_req", ratio(float64(eng.XbarRqstStalls), n))
	t.set("model.xbar_rsp_stalls_per_req", ratio(float64(eng.XbarRspStalls), n))
	t.set("model.send_stalls_per_req", ratio(float64(eng.SendStalls), n))
	t.set("model.latency_events_per_req", ratio(float64(eng.LatencyEvents), n))
	t.set("model.latency_mean_cycles", lat.Mean())
	t.set("model.latency_p99_cycles", float64(lat.Percentile(99)))

	t.set("ledger.coverage", coverage(rec.spans))
	t.set("trace.overhead_frac", ratio(float64(ph.cpu), float64(refRun))-1)
	t.set("trace.cycles_ratio", ratio(float64(stepCyc), float64(refCycles)))

	if err := stateOps(legs[0], t, rec); err != nil {
		return err
	}
	switch o.workload {
	case "table1":
		if err := workersTwo(legs[0], t); err != nil {
			return err
		}
	case "fig5-trace":
		// The same leg without the collector: Table I config 1 per request.
		plain := legs[0]
		plain.fig5 = 0
		ref, err := runLeg(plain)
		if err != nil {
			return err
		}
		traced := float64(refRun) / n
		t.set("trace.fig5_overhead_frac", traced/(float64(ref.run)/float64(ref.res.Sent))-1)
	}
	return nil
}

// isolated accumulates, over a workload's legs, the time of direct calls
// into workload, packet and fabric on each leg's own access stream.
type isolated struct {
	next, encode, decode, crc, route time.Duration
	accesses, flits, routed          uint64
	hops, remote                     uint64 // simulated, from the fabric census
}

func perCall(d time.Duration, n uint64) float64 { return ratio(float64(d), float64(n)) }

func (i *isolated) nextNS() float64   { return perCall(i.next, i.accesses) }
func (i *isolated) encodeNS() float64 { return perCall(i.encode, i.accesses) }
func (i *isolated) decodeNS() float64 { return perCall(i.decode, i.accesses) }
func (i *isolated) crcNS() float64    { return perCall(i.crc, i.flits) }
func (i *isolated) routeNS() float64  { return perCall(i.route, i.routed) }

// sink keeps the isolated loops' results alive so the compiler cannot
// drop the calls being timed.
var sink uint64

// measure replays the first streamSample accesses of l's stream through
// each per-request function the step loop's inject and drain phases
// contain, one tight loop per function.
func (i *isolated) measure(l leg, b *built, rec *recorder) error {
	capacity := uint64(l.cfg.CapacityGB) << 30
	if b.sys != nil {
		capacity = b.sys.Capacity()
		tot := b.sys.Totals()
		i.hops, i.remote = i.hops+tot.Hops, i.remote+tot.IntercubePackets
	}
	gen, err := l.wl.Build(capacity)
	if err != nil {
		return err
	}
	n := min(l.n, streamSample)
	stream := make([]workload.Access, n)
	t0 := time.Now()
	for k := range stream {
		stream[k] = gen.Next()
	}
	t1 := time.Now()
	rec.add("workload.next", isolatedID, "", "", t0, t1)
	i.next += t1.Sub(t0)
	i.accesses += n

	// Encode: the request the driver would build for each access.
	var p packet.Packet
	var data [16]uint64
	reqs := make([]packet.Request, n)
	for k, a := range stream {
		r := packet.Request{Addr: a.Addr, Tag: uint16(k) & packet.MaxTag, SLID: uint8(k & 3)}
		if a.Write {
			r.Cmd, err = packet.WriteForSize(a.Size, false)
			r.Data = data[:a.Size/8]
		} else {
			r.Cmd, err = packet.ReadForSize(a.Size)
		}
		if err != nil {
			return err
		}
		reqs[k] = r
	}
	t0 = time.Now()
	for k := range reqs {
		if err := packet.BuildRequestInto(&p, reqs[k]); err != nil {
			return err
		}
		sink += p.Words()[0]
	}
	t1 = time.Now()
	rec.add("packet.encode", isolatedID, "", "", t0, t1)
	i.encode += t1.Sub(t0)

	// Decode: the response each request draws, a read response carrying
	// the block or a one-FLIT write response.
	var rd, wr packet.Packet
	if err := packet.BuildResponseInto(&rd, packet.Response{Cmd: packet.CmdRDRS, Tag: 1, Data: data[:stream[0].Size/8]}); err != nil {
		return err
	}
	if err := packet.BuildResponseInto(&wr, packet.Response{Cmd: packet.CmdWRRS, Tag: 1}); err != nil {
		return err
	}
	pick := func(a workload.Access) *packet.Packet {
		if a.Write {
			return &wr
		}
		return &rd
	}

	// CRC alone, over the words of those packets.
	var flits uint64
	t0 = time.Now()
	for k := range stream {
		rp := pick(stream[k])
		sink += uint64(packet.CRC(rp.Words()))
		flits += uint64(rp.Flits())
	}
	t1 = time.Now()
	rec.add("packet.crc", isolatedID, "", "", t0, t1)
	i.crc += t1.Sub(t0)
	i.flits += flits

	t0 = time.Now()
	for k := range stream {
		rsp, err := pick(stream[k]).AsResponse()
		if err != nil {
			return err
		}
		sink += uint64(rsp.Tag)
	}
	t1 = time.Now()
	rec.add("packet.decode", isolatedID, "", "", t0, t1)
	i.decode += t1.Sub(t0)

	if b.sys != nil {
		t0 = time.Now()
		for k := range stream {
			cube, addr := b.sys.Route(stream[k])
			sink += uint64(cube) + addr
		}
		t1 = time.Now()
		rec.add("fabric.route", isolatedID, "", "", t0, t1)
		i.route += t1.Sub(t0)
		i.routed += n
	}
	return nil
}

// stateReps is how many times stateOps repeats each operation; the
// metric is the median.
const stateReps = 5

// stateOps times checkpoint, restore and state digest on an engine
// stopped mid-run with its queues full.
func stateOps(l leg, t *tally, rec *recorder) error {
	b, err := l.build(nil)
	if err != nil {
		return err
	}
	if _, err := newStepper(l, b).run(b.gen, l.n, l.n/2, nil, ""); err != nil {
		return err
	}
	var ckMS, restoreMS, digestMS []float64
	for i := 0; i < stateReps; i++ {
		t0 := time.Now()
		ck := b.h.Checkpoint()
		t1 := time.Now()
		want := b.h.StateDigest()
		t2 := time.Now()
		fresh, err := l.build(nil)
		if err != nil {
			return err
		}
		t3 := time.Now()
		if err := fresh.h.Restore(ck); err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		t4 := time.Now()
		rec.add("core.checkpoint", isolatedID, "", "", t0, t1)
		rec.add("core.digest", isolatedID, "", "", t1, t2)
		rec.add("core.restore", isolatedID, "", "", t3, t4)
		ckMS, digestMS, restoreMS = append(ckMS, ms(t1.Sub(t0))), append(digestMS, ms(t2.Sub(t1))), append(restoreMS, ms(t4.Sub(t3)))
		t.check(fresh.h.StateDigest() == want, "%s: restored state digest differs from the checkpointed engine's", l.name)
	}
	t.set("core.checkpoint_ms", median(ckMS))
	t.set("core.restore_ms", median(restoreMS))
	t.set("core.digest_ms", median(digestMS))
	return nil
}

// workersTwo runs the saturated step loop on a quarter of the leg's
// requests with Workers 1 and 2 and reports the cost of a Clock call
// under two workers and its ratio to one. No end-to-end row uses
// Workers=2; ROADMAP item 2 reads this one.
func workersTwo(l leg, t *tally) error {
	l.n = max(l.n/4, 256)
	var clockNS [2]float64
	var digest [2]uint64
	for w := range clockNS {
		l.cfg.Workers = w + 1
		b, err := l.build(nil)
		if err != nil {
			return err
		}
		st := newStepper(l, b)
		if _, err := st.run(b.gen, l.n, 0, nil, ""); err != nil {
			return err
		}
		clockNS[w] = ratio(float64(st.ph.clock), float64(st.ph.clockCalls))
		digest[w] = b.h.StateDigest()
	}
	t.check(digest[0] == digest[1], "%s: Workers=2 state digest differs from Workers=1", l.name)
	t.set("sched.clock_ns_w2", clockNS[1])
	t.set("sched.w2_over_w1", ratio(clockNS[1], clockNS[0]))
	return nil
}
