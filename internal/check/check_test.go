package check

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"hmcsim/internal/core"
	"hmcsim/internal/packet"
	"hmcsim/internal/topo"
)

func newSimple(t *testing.T) *core.HMC {
	t.Helper()
	cfg := core.Config{
		NumDevs: 1, NumLinks: 4, NumVaults: 16, QueueDepth: 16,
		NumBanks: 8, NumDRAMs: 20, CapacityGB: 2, XbarDepth: 32,
	}
	h, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 4; l++ {
		if err := h.ConnectHost(0, l); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func TestVerifyCleanSimulation(t *testing.T) {
	h := newSimple(t)
	rng := rand.New(rand.NewSource(5))
	sent, completed := 0, 0
	for completed < 400 {
		for sent < 400 {
			cmd := packet.CmdRD16
			var data []uint64
			if rng.Intn(2) == 0 {
				cmd = packet.CmdWR32
				data = make([]uint64, 4)
			}
			words, err := h.BuildRequestPacket(packet.Request{
				CUB: 0, Addr: uint64(rng.Int63()) & (1<<31 - 1) &^ 0x3F,
				Tag: uint16(sent % 512), Cmd: cmd, Data: data,
			}, sent%4)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Send(0, sent%4, words); err != nil {
				break
			}
			sent++
		}
		// Checked clock: invariants audited every cycle.
		if err := Clock(h); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < 4; l++ {
			for {
				if _, err := h.Recv(0, l); err != nil {
					break
				}
				completed++
			}
		}
		if h.Clk() > 5000 {
			t.Fatalf("stuck at %d/%d", completed, sent)
		}
	}
}

func TestVerifyChainedSimulation(t *testing.T) {
	cfg := core.Config{
		NumDevs: 3, NumLinks: 4, NumVaults: 16, QueueDepth: 8,
		NumBanks: 8, NumDRAMs: 20, CapacityGB: 2, XbarDepth: 16,
	}
	h, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := topo.Chain(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.UseTopology(ch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		words, err := h.BuildRequestPacket(packet.Request{
			CUB: uint8(i % 3), Addr: uint64(i) * 64, Tag: uint16(i), Cmd: packet.CmdRD16,
		}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Send(0, 1, words); err != nil {
			break
		}
	}
	for i := 0; i < 20; i++ {
		if err := Clock(h); err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := h.Recv(0, 1); err != nil {
				break
			}
		}
	}
}

func TestVerifyDetectsCorruptedPacket(t *testing.T) {
	h := newSimple(t)
	words, err := h.BuildRequestPacket(packet.Request{CUB: 0, Addr: 0x40, Tag: 1, Cmd: packet.CmdRD16}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Send(0, 0, words); err != nil {
		t.Fatal(err)
	}
	if err := Verify(h); err != nil {
		t.Fatalf("clean queue flagged: %v", err)
	}
	// Flip a payload bit in place: the CRC check must catch it.
	h.Device(0).Links[0].RqstQ.At(0).Words()[0] ^= 1 << 40
	if err := Verify(h); err == nil {
		t.Error("corrupted packet not detected")
	}
}

// TestVerifyCatchesUnfinalizedMutation holds the audit to the stamp
// contract: a queued packet whose CRC has been stamped — by its builder,
// or by the first read of its words when the engine built it in place —
// and whose field is then rewritten without Finalize fails Verify.
func TestVerifyCatchesUnfinalizedMutation(t *testing.T) {
	h := newSimple(t)
	p, err := packet.BuildRequest(packet.Request{CUB: 0, Addr: 0x40, Tag: 1, Cmd: packet.CmdRD16})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Device(0).Links[0].RqstQ.Push(&p, 0); err != nil {
		t.Fatal(err)
	}
	// Built in place by the engine, CRC pending until Verify reads it.
	if err := h.SendRequest(0, 1, packet.Request{Addr: 0x80, Tag: 2, Cmd: packet.CmdRD16}); err != nil {
		t.Fatal(err)
	}
	if err := Verify(h); err != nil {
		t.Fatalf("clean queues flagged: %v", err)
	}
	for _, l := range []int{0, 1} {
		q := h.Device(0).Links[l].RqstQ
		q.At(0).SetCUB(1)
		if err := Verify(h); !errors.Is(err, packet.ErrBadCRC) {
			t.Errorf("link %d: CUB rewritten without Finalize: Verify = %v, want ErrBadCRC", l, err)
		}
		q.At(0).Finalize()
		if err := Verify(h); err != nil {
			t.Fatalf("link %d: after Finalize: %v", l, err)
		}
	}
}

func TestVerifyDetectsForeignVaultPacket(t *testing.T) {
	h := newSimple(t)
	// Hand-plant a packet for vault 3 into vault 0's request queue.
	p, err := packet.BuildRequest(packet.Request{
		CUB: 0, Addr: 3 << 6 /* vault 3 under the default map */, Cmd: packet.CmdRD16,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = h.Clock() // seal
	if err := h.Device(0).Vaults[0].RqstQ.Push(&p, 0); err != nil {
		t.Fatal(err)
	}
	if err := Verify(h); err == nil {
		t.Error("misplaced vault packet not detected")
	}
}

func TestVerifyDetectsStaleCachedBank(t *testing.T) {
	h := newSimple(t)
	_ = h.Clock()
	p, err := packet.BuildRequest(packet.Request{CUB: 0, Addr: 0 /* vault 0, bank 0 */, Cmd: packet.CmdRD16})
	if err != nil {
		t.Fatal(err)
	}
	q := h.Device(0).Vaults[0].RqstQ
	if err := q.Push(&p, 0); err != nil {
		t.Fatal(err)
	}
	if err := Verify(h); err != nil {
		t.Fatalf("slot without a cached bank rejected: %v", err)
	}
	q.Tag(0).SetBank(0)
	if err := Verify(h); err != nil {
		t.Fatalf("correctly cached bank rejected: %v", err)
	}
	q.Tag(0).SetBank(5)
	if err := Verify(h); err == nil {
		t.Error("cached bank that disagrees with the packet's address not detected")
	}
}

// TestVerifyDetectsAliasedPacket pushes one packet into two queues: its
// arrival clock and retry count can describe only one stay, so Verify
// must reject the second holder, whichever queue it is.
func TestVerifyDetectsAliasedPacket(t *testing.T) {
	h := newSimple(t)
	_ = h.Clock() // seal
	p, err := packet.BuildRequest(packet.Request{CUB: 0, Addr: 0x40, Tag: 1, Cmd: packet.CmdRD16})
	if err != nil {
		t.Fatal(err)
	}
	d := h.Device(0)
	if err := d.Links[0].RqstQ.Push(&p, 0); err != nil {
		t.Fatal(err)
	}
	if err := Verify(h); err != nil {
		t.Fatalf("one holder flagged: %v", err)
	}
	if err := d.Links[2].RqstQ.Push(&p, 0); err != nil {
		t.Fatal(err)
	}
	if err := Verify(h); err == nil || !strings.Contains(err.Error(), "holds the packet") {
		t.Errorf("packet held by two queues: Verify = %v", err)
	}
}

// TestVerifyDetectsQueueHoles covers the ring audit and the arrival
// stamp: a slot within the queue's length emptied without a Compact,
// and a packet stamped after the device clock, both fail Verify.
func TestVerifyDetectsQueueHoles(t *testing.T) {
	h := newSimple(t)
	_ = h.Clock() // seal
	pkts := make([]packet.Packet, 2)
	q := h.Device(0).Links[0].RqstQ
	for i := range pkts {
		var err error
		if pkts[i], err = packet.BuildRequest(packet.Request{CUB: 0, Addr: 0x40, Tag: uint16(i), Cmd: packet.CmdRD16}); err != nil {
			t.Fatal(err)
		}
		if err := q.Push(&pkts[i], h.Clk()); err != nil {
			t.Fatal(err)
		}
	}
	if err := Verify(h); err != nil {
		t.Fatalf("clean queue flagged: %v", err)
	}
	q.Retire(0)
	if err := Verify(h); err == nil || !strings.Contains(err.Error(), "holds no packet") {
		t.Errorf("retired slot left inside the queue: Verify = %v", err)
	}
	q.Compact(1)
	if err := Verify(h); err != nil {
		t.Fatalf("compacted queue flagged: %v", err)
	}
	q.At(0).Arrived = h.Clk() + 1
	if err := Verify(h); err == nil || !strings.Contains(err.Error(), "after the clock") {
		t.Errorf("arrival stamp past the clock: Verify = %v", err)
	}
}

func TestVerifyDetectsStaleOccupancy(t *testing.T) {
	rqst, err := packet.BuildRequest(packet.Request{CUB: 0, Addr: 0 /* vault 0 */, Cmd: packet.CmdRD16})
	if err != nil {
		t.Fatal(err)
	}
	rsp, err := packet.BuildResponse(packet.Response{CUB: 0, Cmd: packet.CmdWRRS})
	if err != nil {
		t.Fatal(err)
	}
	// A queue rebound to a word the engine never reads stops reporting to
	// the index: whatever it does next leaves the engine's bit stale.
	var elsewhere uint64

	h := newSimple(t)
	_ = h.Clock()
	q := h.Device(0).Vaults[0].RqstQ
	if err := q.Push(&rqst, 0); err != nil {
		t.Fatal(err)
	}
	if err := Verify(h); err != nil {
		t.Fatalf("index does not follow a push straight into a vault queue: %v", err)
	}
	q.Bind(&elsewhere, 0)
	q.Pop()
	if err := Verify(h); err == nil {
		t.Error("bit still set for an emptied vault request queue not detected")
	}

	h = newSimple(t)
	_ = h.Clock()
	q = h.Device(0).Links[1].RspQ
	q.Bind(&elsewhere, 1)
	if err := q.Push(&rsp, 0); err != nil {
		t.Fatal(err)
	}
	if err := Verify(h); err == nil {
		t.Error("bit still clear for a loaded crossbar response queue not detected")
	}
}

func TestVerifyDetectsResponseInRequestQueue(t *testing.T) {
	h := newSimple(t)
	_ = h.Clock()
	rsp, err := packet.BuildResponse(packet.Response{CUB: 0, Cmd: packet.CmdWRRS})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Device(0).Links[2].RqstQ.Push(&rsp, 0); err != nil {
		t.Fatal(err)
	}
	if err := Verify(h); err == nil {
		t.Error("response in a request queue not detected")
	}
}

func TestVerifyDetectsModeRequestInVault(t *testing.T) {
	h := newSimple(t)
	_ = h.Clock()
	p, err := packet.BuildRequest(packet.Request{
		CUB: 0, Addr: 0x280000, Cmd: packet.CmdMDRD,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Device(0).Vaults[2].RqstQ.Push(&p, 0); err != nil {
		t.Fatal(err)
	}
	if err := Verify(h); err == nil {
		t.Error("mode request in a vault queue not detected")
	}
}

func TestVerifyDetectsBadCUB(t *testing.T) {
	h := newSimple(t)
	_ = h.Clock()
	p, err := packet.BuildRequest(packet.Request{CUB: 9, Cmd: packet.CmdRD16})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Device(0).Links[0].RqstQ.Push(&p, 0); err != nil {
		t.Fatal(err)
	}
	if err := Verify(h); err == nil {
		t.Error("CUB beyond the host ID not detected")
	}
}

func TestCheckedClockPropagatesErrors(t *testing.T) {
	// An unsealed object with no host links fails at Clock itself.
	cfg := core.Config{
		NumDevs: 1, NumLinks: 4, NumVaults: 16, QueueDepth: 4,
		NumBanks: 8, NumDRAMs: 20, CapacityGB: 2, XbarDepth: 4,
	}
	h, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Clock(h); err == nil {
		t.Error("Clock on an unwired object succeeded")
	}
}
