package core_test

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"hmcsim/internal/addr"
	"hmcsim/internal/check"
	"hmcsim/internal/core"
	"hmcsim/internal/packet"
	"hmcsim/internal/topo"
)

// occupancyRig drives a two-cube chain (host on links 1-3 of cube 0) by a
// fixed script through the public API only, so the file runs unchanged
// against the revision that scanned every queue on every cycle: that is
// where the pinned digests of TestOccupancyIndexEveryPath were taken.
// check.Verify runs after every step that can move a packet; every
// response received, and the state digest at each phase boundary, fold
// into one result digest.
type occupancyRig struct {
	t      *testing.T
	cfg    core.Config
	h      *core.HMC
	rng    uint64
	tag    int
	result hash.Hash64
	step   string
}

func (r *occupancyRig) build() *core.HMC {
	r.t.Helper()
	h, err := core.New(r.cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	ch, err := topo.Chain(r.cfg.NumDevs, r.cfg.NumLinks)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := h.UseTopology(ch); err != nil {
		r.t.Fatal(err)
	}
	return h
}

func (r *occupancyRig) next(n uint64) uint64 {
	r.rng = r.rng*6364136223846793005 + 1442695040888963407
	return (r.rng >> 33) % n
}

func (r *occupancyRig) fold(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	r.result.Write(buf[:])
}

func (r *occupancyRig) verify(what string) {
	r.t.Helper()
	if err := check.Verify(r.h); err != nil {
		r.t.Fatalf("%s, after %s at cycle %d: %v", r.step, what, r.h.Clk(), err)
	}
}

// drain receives everything waiting on the host links and returns how
// many responses that was.
func (r *occupancyRig) drain() int {
	r.t.Helper()
	n := 0
	for l := 1; l < r.cfg.NumLinks; l++ {
		for {
			rsp, err := r.h.RecvPacket(0, l)
			if errors.Is(err, core.ErrStall) {
				break
			}
			if err != nil {
				r.t.Fatal(err)
			}
			r.fold(uint64(l)<<32 | uint64(rsp.Tag)<<8 | uint64(rsp.Cmd))
			r.fold(uint64(rsp.CUB)<<24 | uint64(rsp.SLID)<<16 | uint64(rsp.Seq)<<8 | uint64(rsp.ErrStat))
			for _, w := range rsp.Data {
				r.fold(w)
			}
			n++
		}
	}
	r.verify("drain")
	return n
}

var occupancyCmds = []packet.Command{
	packet.CmdRD16, packet.CmdRD64, packet.CmdWR16, packet.CmdWR64,
	packet.CmdADD16, packet.CmdPWR32,
}

// send submits one scripted request on link and reports whether it was
// accepted and whether it will be answered.
func (r *occupancyRig) send(link int) (accepted, answered bool) {
	r.t.Helper()
	var data [8]uint64
	cmd := occupancyCmds[r.next(uint64(len(occupancyCmds)))]
	d := data[:cmd.DataBytes()/8]
	for i := range d {
		d[i] = r.next(1 << 40)
	}
	err := r.h.SendRequest(0, link, packet.Request{
		CUB: uint8(r.next(uint64(r.cfg.NumDevs))), Addr: r.next(1<<30) &^ 15,
		Tag: uint16(r.tag & 0x1ff), Cmd: cmd, Data: d,
	})
	if errors.Is(err, core.ErrStall) {
		return false, false
	}
	if err != nil {
		r.t.Fatal(err)
	}
	r.tag++
	r.verify("send")
	return true, !cmd.IsPosted()
}

// clock walks one cycle, then lets the wheel skip what it will of the
// next idle cycles, auditing after each.
func (r *occupancyRig) clock(idle uint64) {
	r.t.Helper()
	if err := r.h.Clock(); err != nil {
		r.t.Fatal(err)
	}
	r.verify("Clock")
	r.fold(r.h.AdvanceIdle(r.h.Clk() + idle))
	r.verify("AdvanceIdle")
}

// oneInFlight sends n requests one at a time, each only after the last
// one is answered (or, posted, has left the device).
func (r *occupancyRig) oneInFlight(n int) {
	r.t.Helper()
	for i := 0; i < n; i++ {
		accepted, answered := r.send(1 + i%(r.cfg.NumLinks-1))
		if !accepted {
			r.t.Fatalf("%s: request %d stalled on an empty device", r.step, i)
		}
		for c := 0; ; c++ {
			r.clock(64)
			if got := r.drain(); (answered && got > 0) || (!answered && r.h.Quiescent()) {
				break
			}
			if c > 500 {
				r.t.Fatalf("%s: request %d unanswered after %d cycles", r.step, i, c)
			}
		}
	}
	r.fold(r.h.StateDigest())
}

// burst keeps every host link full for the given number of cycles.
func (r *occupancyRig) burst(cycles int) {
	r.t.Helper()
	for c := 0; c < cycles; c++ {
		for l := 1; l < r.cfg.NumLinks; l++ {
			for {
				if accepted, _ := r.send(l); !accepted {
					break
				}
			}
		}
		r.clock(8)
		r.drain()
	}
	r.fold(r.h.StateDigest())
}

// settle clocks until nothing is in flight.
func (r *occupancyRig) settle() {
	r.t.Helper()
	for c := 0; !r.h.Quiescent(); c++ {
		r.clock(64)
		r.drain()
		if c > 5000 {
			r.t.Fatalf("%s: device does not drain", r.step)
		}
	}
	r.fold(r.h.StateDigest())
}

// TestOccupancyIndexEveryPath audits the occupancy index after every
// operation that fills or empties a queue or a retry buffer — Send, Clock,
// AdvanceIdle, Recv, a push straight into a vault queue, Free, and a
// checkpoint carried through its wire form into a fresh engine — under
// one-request-in-flight and saturating traffic with transient link faults,
// with single-cycle and dwelling hops. The w= subtests set the ignored
// Config.Workers; each must reach the same digests. The digests are those
// of the revision before the index existed.
func TestOccupancyIndexEveryPath(t *testing.T) {
	pinned := map[int][2]uint64{ // LinkLatency -> final state digest, result digest
		1: {0x16d629060bd7e5ea, 0xcfe3e2ba79db08de},
		4: {0xef4749e96f05cdb8, 0xee548f151c74aebd},
	}
	for _, lat := range []int{1, 4} {
		for _, workers := range []int{1, 3, 4} {
			t.Run(fmt.Sprintf("lat=%d/w=%d", lat, workers), func(t *testing.T) {
				cfg := core.Config{
					NumDevs: 2, NumLinks: 4, NumVaults: 16, QueueDepth: 8,
					NumBanks: 8, NumDRAMs: 20, CapacityGB: 2, XbarDepth: 8,
					LinkLatency: lat, Workers: workers,
					RefreshInterval: 64, RefreshDuration: 4,
					FaultPPM: 20000, FaultSeed: 7,
				}
				r := &occupancyRig{t: t, cfg: cfg, rng: 0x1234, result: fnv.New64a()}
				r.h = r.build()
				r.verify("New")

				r.step = "one in flight"
				r.oneInFlight(40)
				r.step = "burst"
				r.burst(60)

				r.step = "restore"
				b, err := json.Marshal(r.h.Checkpoint())
				if err != nil {
					t.Fatal(err)
				}
				ck := new(core.Checkpoint)
				if err := json.Unmarshal(b, ck); err != nil {
					t.Fatal(err)
				}
				loaded := r.h.Occupancy()
				r.h = r.build()
				if err := r.h.Restore(ck); err != nil {
					t.Fatal(err)
				}
				r.verify("Restore")
				if got := r.h.Occupancy(); got != loaded || loaded.VaultRqst == 0 || loaded.XbarRsp == 0 {
					t.Fatalf("restored a census of %+v from a checkpoint of %+v", got, loaded)
				}
				r.burst(20)
				r.settle()

				r.step = "direct push"
				m := r.h.Device(0).Map
				for v := 0; v < cfg.NumVaults; v += 3 {
					for dev := 0; dev < cfg.NumDevs; dev++ {
						p, err := packet.BuildRequest(packet.Request{
							CUB:  uint8(dev),
							Addr: m.Encode(addr.Decoded{Vault: v, Bank: v % 8, DRAM: uint64(v) * 4}),
							Tag:  uint16(0x100 + v), Cmd: packet.CmdRD32, SLID: uint8(1 + v%3),
						})
						if err != nil {
							t.Fatal(err)
						}
						if err := r.h.Device(dev).Vaults[v].RqstQ.Push(&p, r.h.Clk()); err != nil {
							t.Fatal(err)
						}
						r.verify("push")
					}
				}
				r.settle()

				r.step = "free"
				r.burst(10)
				r.h.Free()
				r.verify("Free")
				if !r.h.Quiescent() {
					t.Fatal("freed engine is not quiescent")
				}
				ch, err := topo.Chain(cfg.NumDevs, cfg.NumLinks)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.h.UseTopology(ch); err != nil {
					t.Fatal(err)
				}
				r.oneInFlight(10)
				r.burst(10)

				if st := r.h.Stats(); st.LinkRetransmits == 0 || st.BankConflicts == 0 {
					t.Fatalf("run exercised no retry buffer or no arbitration: %+v", st)
				}
				want := pinned[lat]
				if state, result := r.h.StateDigest(), r.result.Sum64(); state != want[0] || result != want[1] {
					t.Errorf("state digest %#x, result digest %#x; pinned %#x, %#x", state, result, want[0], want[1])
				}
			})
		}
	}
}
