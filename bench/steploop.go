package main

import (
	"errors"
	"fmt"
	"time"

	"hmcsim/internal/core"
	"hmcsim/internal/host"
	"hmcsim/internal/packet"
	"hmcsim/internal/workload"
)

// batchIters is how many loop iterations share one span ID.
const batchIters = 1024

// phases is where the step loop's wall time went, by phase, with the
// calls each phase made into core.
type phases struct {
	drain, inject, clock, skip time.Duration
	wall, cpu                  time.Duration // of the whole loop
	iters                      uint64
	recvCalls                  uint64 // RecvPacket calls, empty polls included
	sendCalls                  uint64 // SendRequest calls
	sendStalls                 uint64 // of which returned ErrStall
	clockCalls                 uint64
	skipCalls                  uint64 // AdvanceIdle calls
	drawn                      uint64 // generator Next calls
}

func (p *phases) add(o phases) {
	p.drain += o.drain
	p.inject += o.inject
	p.clock += o.clock
	p.skip += o.skip
	p.wall += o.wall
	p.cpu += o.cpu
	p.iters += o.iters
	p.recvCalls += o.recvCalls
	p.sendCalls += o.sendCalls
	p.sendStalls += o.sendStalls
	p.clockCalls += o.clockCalls
	p.skipCalls += o.skipCalls
	p.drawn += o.drawn
}

// stepper is the benchmark's own host loop: the Figure 4 calling
// sequence over core's exported API — drain every host port, inject
// round-robin until a stall or tag exhaustion, Clock, AdvanceIdle when
// nothing is due — in the order and with the bookkeeping of
// host.Driver.run, so that it simulates the same cycles and digests the
// same. It exists so each phase can be timed from outside: one span per
// phase per cycle batch, never per call.
type stepper struct {
	h     *core.HMC
	dev   int
	route func(workload.Access) (int, uint64)
	gap   uint64
	walk  bool // never call AdvanceIdle

	hostLinks  []int
	drainPorts [][2]int
	sel        workload.RoundRobin
	pending    [][]int64
	freeTags   [][]uint16
	queued     workload.Access
	hasQueued  bool
	dataBuf    [16]uint64

	ph phases
}

func newStepper(l leg, b *built) *stepper {
	s := &stepper{h: b.h, gap: l.wl.GapCycles, walk: l.wl.NoIdleSkip}
	if b.sys != nil {
		s.dev, s.route = b.sys.InjectDev(), b.sys.Route
	}
	t := b.h.Topology()
	s.hostLinks = t.HostLinks(s.dev)
	for _, root := range t.Roots() {
		for _, link := range t.HostLinks(root) {
			s.drainPorts = append(s.drainPorts, [2]int{root, link})
		}
	}
	s.sel.NumLinks = len(s.hostLinks)
	nl := b.h.Config().NumLinks
	s.pending = make([][]int64, nl)
	s.freeTags = make([][]uint16, nl)
	for _, link := range s.hostLinks {
		s.pending[link] = make([]int64, packet.MaxTag+1)
		for i := range s.pending[link] {
			s.pending[link][i] = -1
		}
		s.freeTags[link] = make([]uint16, 0, packet.MaxTag+1)
		for tag := packet.MaxTag; tag >= 0; tag-- {
			s.freeTags[link] = append(s.freeTags[link], uint16(tag))
		}
	}
	return s
}

// run injects n accesses and clocks until every response is back. With
// stopAtSent > 0 it returns as soon as that many requests are in,
// leaving the engine mid-run and saturated. rec, when non-nil, receives
// one batch span and four phase spans per batchIters iterations under
// the span "run" of id.
func (s *stepper) run(gen workload.Generator, n, stopAtSent uint64, rec *recorder, id string) (host.Result, error) {
	var res host.Result
	var outstanding uint64
	maxCycles := 1000*n + 100000 + n*s.gap

	start, startCPU := time.Now(), cpuTime()
	batchStart, flushed, batch := start, s.ph, 0
	flush := func(now time.Time) {
		bid := fmt.Sprintf("%s/%d", id, batch)
		d := s.ph
		rec.add("host.batch", bid, "run", id, batchStart, now)
		rec.addBusy("host.drain", bid, "host.batch", batchStart, now, d.drain-flushed.drain, d.iters-flushed.iters)
		rec.addBusy("host.inject", bid, "host.batch", batchStart, now, d.inject-flushed.inject, d.iters-flushed.iters)
		rec.addBusy("core.clock", bid, "host.batch", batchStart, now, d.clock-flushed.clock, d.clockCalls-flushed.clockCalls)
		rec.addBusy("core.advance_idle", bid, "host.batch", batchStart, now, d.skip-flushed.skip, d.skipCalls-flushed.skipCalls)
		batchStart, flushed, batch = now, d, batch+1
	}

	t0 := start
	for {
		got, errs, err := s.drain(&res)
		if err != nil {
			return res, err
		}
		res.Completed += got
		res.Errors += errs
		outstanding -= got
		t1 := time.Now()

		injected, done, err := s.inject(gen, n, &res)
		if err != nil {
			return res, err
		}
		outstanding += injected
		finished := done && outstanding == 0 && s.h.Quiescent()
		t2 := time.Now()
		s.ph.drain += t1.Sub(t0)
		s.ph.inject += t2.Sub(t1)
		s.ph.iters++
		if finished || (stopAtSent > 0 && res.Sent >= stopAtSent) {
			t0 = t2
			break
		}

		if err := s.h.Clock(); err != nil {
			return res, err
		}
		s.ph.clockCalls++
		t3 := time.Now()
		if !s.walk {
			s.trySkip(n, &res, outstanding, maxCycles)
		}
		t4 := time.Now()
		s.ph.clock += t3.Sub(t2)
		s.ph.skip += t4.Sub(t3)
		if s.h.Clk() > maxCycles {
			return res, fmt.Errorf("bench: step loop exceeded %d cycles with %d outstanding (%d/%d sent)",
				maxCycles, outstanding, res.Sent, n)
		}
		if rec != nil && s.ph.iters%batchIters == 0 {
			flush(t4)
		}
		t0 = t4
	}
	if rec != nil {
		flush(t0)
	}
	s.ph.wall += t0.Sub(start)
	s.ph.cpu += cpuTime() - startCPU
	res.Cycles = s.h.Clk()
	res.Engine = s.h.Stats()
	sk := s.h.SkipStats()
	res.IdleCyclesSkipped, res.Wakeups = sk.IdleCyclesSkipped, sk.Wakeups
	return res, nil
}

// nextDue is the cycle the pacer releases the next access at: access k
// is due at k*gap.
func (s *stepper) nextDue() uint64 {
	k := s.ph.drawn
	if s.hasQueued {
		k--
	}
	return k * s.gap
}

func (s *stepper) trySkip(n uint64, res *host.Result, outstanding, maxCycles uint64) {
	var target uint64
	switch {
	case res.Sent >= n:
		if outstanding == 0 && s.h.Quiescent() {
			return
		}
		target = maxCycles + 1
	case s.gap > 0:
		due := s.nextDue()
		if due <= s.h.Clk() {
			return
		}
		target = min(due, maxCycles+1)
	default:
		return
	}
	s.ph.skipCalls++
	s.h.AdvanceIdle(target)
}

func (s *stepper) inject(gen workload.Generator, n uint64, res *host.Result) (uint64, bool, error) {
	var outstanding uint64
	for res.Sent < n {
		if s.gap > 0 && s.nextDue() > s.h.Clk() {
			return outstanding, false, nil
		}
		if !s.hasQueued {
			s.queued = gen.Next()
			s.ph.drawn++
			s.hasQueued = true
		}
		a := &s.queued
		pick := s.sel.Select(*a) % len(s.hostLinks)
		link := -1
		for off := 0; off < len(s.hostLinks); off++ {
			cand := s.hostLinks[(pick+off)%len(s.hostLinks)]
			if !s.h.LinkFailed(s.dev, cand) {
				link = cand
				break
			}
		}
		if link < 0 {
			return outstanding, false, host.ErrAllLinksFailed
		}
		ft := s.freeTags[link]
		if len(ft) == 0 {
			return outstanding, false, nil
		}
		tag := ft[len(ft)-1]

		cube, addr := s.dev, a.Addr
		if s.route != nil {
			cube, addr = s.route(*a)
		}
		var cmd packet.Command
		var data []uint64
		var err error
		if a.Write {
			if cmd, err = packet.WriteForSize(a.Size, false); err == nil {
				data = s.dataBuf[:a.Size/8]
				for i := range data {
					data[i] = a.Addr + uint64(i)
				}
			}
		} else {
			cmd, err = packet.ReadForSize(a.Size)
		}
		if err != nil {
			return outstanding, false, err
		}
		s.ph.sendCalls++
		err = s.h.SendRequest(s.dev, link, packet.Request{
			CUB: uint8(cube), Addr: addr, Tag: tag, Cmd: cmd, Data: data,
		})
		if errors.Is(err, core.ErrStall) {
			s.ph.sendStalls++
			return outstanding, false, nil
		}
		if err != nil {
			return outstanding, false, err
		}
		s.freeTags[link] = ft[:len(ft)-1]
		s.pending[link][tag] = int64(s.h.Clk())
		res.Sent++
		s.hasQueued = false
		outstanding++
	}
	return outstanding, true, nil
}

func (s *stepper) drain(res *host.Result) (completed, errs uint64, err error) {
	for _, port := range s.drainPorts {
		if s.h.LinkFailed(port[0], port[1]) {
			continue
		}
		for {
			s.ph.recvCalls++
			rsp, rerr := s.h.RecvPacket(port[0], port[1])
			if errors.Is(rerr, core.ErrStall) {
				break
			}
			if rerr != nil {
				return completed, errs, rerr
			}
			link := int(rsp.SLID)
			if link >= len(s.pending) || s.pending[link] == nil || s.pending[link][rsp.Tag] < 0 {
				return completed, errs, fmt.Errorf("bench: response on link %d with unknown tag %d", link, rsp.Tag)
			}
			res.Latency.Observe(s.h.Clk() - uint64(s.pending[link][rsp.Tag]))
			s.pending[link][rsp.Tag] = -1
			s.freeTags[link] = append(s.freeTags[link], rsp.Tag)
			completed++
			if rsp.Cmd == packet.CmdError {
				errs++
			}
		}
	}
	return completed, errs, nil
}
