package core

import (
	"errors"
	"testing"

	"hmcsim/internal/packet"
	"hmcsim/internal/reg"
	"hmcsim/internal/topo"
	"hmcsim/internal/trace"
)

// testConfig is a small single-device configuration for fast tests.
func testConfig() Config {
	return Config{
		NumDevs: 1, NumLinks: 4, NumVaults: 16, QueueDepth: 8,
		NumBanks: 8, NumDRAMs: 20, CapacityGB: 2, XbarDepth: 16,
		StoreData: true,
	}
}

// newSimple returns an HMC with all of device 0's links wired to the host.
func newSimple(t *testing.T, cfg Config) *HMC {
	t.Helper()
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < cfg.NumLinks; l++ {
		if err := h.ConnectHost(0, l); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// sendReq builds and sends one request, failing the test on non-stall
// errors.
func sendReq(t *testing.T, h *HMC, dev, link int, req packet.Request) {
	t.Helper()
	words, err := h.BuildRequestPacket(req, link)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Send(dev, link, words); err != nil {
		t.Fatalf("Send: %v", err)
	}
}

// drain collects all waiting responses across every host link of dev.
func drain(t *testing.T, h *HMC, dev int) []packet.Response {
	t.Helper()
	var out []packet.Response
	for l := 0; l < h.Config().NumLinks; l++ {
		for {
			words, err := h.Recv(dev, l)
			if errors.Is(err, ErrStall) {
				break
			}
			if errors.Is(err, ErrNotHostLink) || errors.Is(err, ErrLinkDown) ||
				errors.Is(err, ErrLinkFailed) {
				break
			}
			if err != nil {
				t.Fatalf("Recv: %v", err)
			}
			rsp, err := DecodeMemResponse(words)
			if err != nil {
				t.Fatalf("DecodeMemResponse: %v", err)
			}
			// Copy the data out of the reused packet storage.
			rsp.Data = append([]uint64(nil), rsp.Data...)
			out = append(out, rsp)
		}
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted the zero config")
	}
	c := testConfig()
	c.NumDevs = 0
	if _, err := New(c); err == nil {
		t.Error("New accepted 0 devices")
	}
	c = testConfig()
	c.NumDevs = 100
	if _, err := New(c); err == nil {
		t.Error("New accepted a device count exceeding the cube ID space")
	}
	c = testConfig()
	c.NumVaults = 8
	if _, err := New(c); err == nil {
		t.Error("New accepted mismatched vault count")
	}
}

func TestTable1Configs(t *testing.T) {
	cfgs := Table1Configs()
	if len(cfgs) != 4 {
		t.Fatalf("%d configs, want 4", len(cfgs))
	}
	want := []struct{ links, banks, capGB int }{
		{4, 8, 2}, {4, 16, 4}, {8, 8, 4}, {8, 16, 8},
	}
	for i, w := range want {
		c := cfgs[i]
		if c.NumLinks != w.links || c.NumBanks != w.banks || c.CapacityGB != w.capGB {
			t.Errorf("config %d = %v", i, c)
		}
		if c.XbarDepth != 128 || c.QueueDepth != 64 {
			t.Errorf("config %d queue depths %d/%d, want 128/64", i, c.XbarDepth, c.QueueDepth)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("config %d invalid: %v", i, err)
		}
	}
	if s := cfgs[0].String(); s != "4-Link; 8-Bank; 2GB" {
		t.Errorf("String() = %q", s)
	}
}

// TestFigure4Sequence follows the paper's sample API calling sequence:
// init the devices, configure the link topology, build a request packet,
// send the request, clock the sim, and free the devices.
func TestFigure4Sequence(t *testing.T) {
	// Section A: init the devices.
	h, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Section B: config the link topology.
	for i := 0; i < 4; i++ {
		if err := h.ConnectHost(0, i); err != nil {
			t.Fatal(err)
		}
	}
	// Section C: build a request packet.
	head, tail, err := h.BuildMemRequest(0, 0x1000, 7, packet.CmdRD64, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkt := []uint64{head, tail}
	// Section C: send the request.
	if err := h.Send(0, 0, pkt); err != nil {
		t.Fatal(err)
	}
	// Clock the sim.
	if err := h.Clock(); err != nil {
		t.Fatal(err)
	}
	if h.Clk() != 1 {
		t.Errorf("Clk() = %d, want 1", h.Clk())
	}
	// The read response arrives on the same link.
	rsps := drain(t, h, 0)
	if len(rsps) != 1 {
		t.Fatalf("%d responses, want 1", len(rsps))
	}
	if rsps[0].Cmd != packet.CmdRDRS || rsps[0].Tag != 7 {
		t.Errorf("response = %+v", rsps[0])
	}
	if len(rsps[0].Data) != 8 {
		t.Errorf("RD64 response carries %d words, want 8", len(rsps[0].Data))
	}
	// Section A: free the devices.
	h.Free()
	if h.Clk() != 0 {
		t.Error("Free did not reset the clock")
	}
}

func TestWriteThenReadRoundTrip(t *testing.T) {
	h := newSimple(t, testConfig())
	data := make([]uint64, 8)
	for i := range data {
		data[i] = 0x1111111111111111 * uint64(i+1)
	}
	sendReq(t, h, 0, 0, packet.Request{
		CUB: 0, Addr: 0x4000, Tag: 1, Cmd: packet.CmdWR64, Data: data,
	})
	if err := h.Clock(); err != nil {
		t.Fatal(err)
	}
	rsps := drain(t, h, 0)
	if len(rsps) != 1 || rsps[0].Cmd != packet.CmdWRRS || rsps[0].Tag != 1 {
		t.Fatalf("write response = %+v", rsps)
	}
	// Read it back over a different link; the write landed in the bank, so
	// any link sees it.
	sendReq(t, h, 0, 2, packet.Request{
		CUB: 0, Addr: 0x4000, Tag: 2, Cmd: packet.CmdRD64,
	})
	if err := h.Clock(); err != nil {
		t.Fatal(err)
	}
	rsps = drain(t, h, 0)
	if len(rsps) != 1 || rsps[0].Cmd != packet.CmdRDRS {
		t.Fatalf("read response = %+v", rsps)
	}
	for i := range data {
		if rsps[0].Data[i] != data[i] {
			t.Errorf("read data[%d] = %#x, want %#x", i, rsps[0].Data[i], data[i])
		}
	}
}

func TestAllRequestSizes(t *testing.T) {
	h := newSimple(t, testConfig())
	tag := uint16(0)
	for size := 16; size <= 128; size += 16 {
		wr, _ := packet.WriteForSize(size, false)
		rd, _ := packet.ReadForSize(size)
		addr := uint64(size) * 0x100
		data := make([]uint64, size/8)
		for i := range data {
			data[i] = uint64(size)<<32 | uint64(i)
		}
		sendReq(t, h, 0, 0, packet.Request{CUB: 0, Addr: addr, Tag: tag, Cmd: wr, Data: data})
		tag++
		if err := h.Clock(); err != nil {
			t.Fatal(err)
		}
		drain(t, h, 0)
		sendReq(t, h, 0, 0, packet.Request{CUB: 0, Addr: addr, Tag: tag, Cmd: rd})
		tag++
		if err := h.Clock(); err != nil {
			t.Fatal(err)
		}
		rsps := drain(t, h, 0)
		if len(rsps) != 1 {
			t.Fatalf("size %d: %d responses", size, len(rsps))
		}
		if got := len(rsps[0].Data) * 8; got != size {
			t.Errorf("size %d: response carries %d bytes", size, got)
		}
		for i := range data {
			if rsps[0].Data[i] != data[i] {
				t.Errorf("size %d word %d: got %#x want %#x", size, i, rsps[0].Data[i], data[i])
			}
		}
	}
}

func TestPostedWritesGenerateNoResponse(t *testing.T) {
	h := newSimple(t, testConfig())
	sendReq(t, h, 0, 0, packet.Request{
		CUB: 0, Addr: 0x2000, Tag: 3, Cmd: packet.CmdPWR64, Data: make([]uint64, 8),
	})
	for i := 0; i < 4; i++ {
		if err := h.Clock(); err != nil {
			t.Fatal(err)
		}
	}
	if rsps := drain(t, h, 0); len(rsps) != 0 {
		t.Fatalf("posted write produced %d responses", len(rsps))
	}
	st := h.Stats()
	if st.Posted != 1 || st.Writes != 1 {
		t.Errorf("stats: posted=%d writes=%d", st.Posted, st.Writes)
	}
}

func TestAtomicEndToEnd(t *testing.T) {
	h := newSimple(t, testConfig())
	addr := uint64(0x8000)
	// Seed the location.
	sendReq(t, h, 0, 0, packet.Request{
		CUB: 0, Addr: addr, Tag: 1, Cmd: packet.CmdWR16, Data: []uint64{100, 200},
	})
	_ = h.Clock()
	drain(t, h, 0)
	// ADD16: +5 with no carry.
	sendReq(t, h, 0, 0, packet.Request{
		CUB: 0, Addr: addr, Tag: 2, Cmd: packet.CmdADD16, Data: []uint64{5, 0},
	})
	_ = h.Clock()
	rsps := drain(t, h, 0)
	if len(rsps) != 1 || rsps[0].Cmd != packet.CmdWRRS {
		t.Fatalf("atomic response = %+v", rsps)
	}
	// Read back.
	sendReq(t, h, 0, 0, packet.Request{CUB: 0, Addr: addr, Tag: 3, Cmd: packet.CmdRD16})
	_ = h.Clock()
	rsps = drain(t, h, 0)
	if len(rsps) != 1 {
		t.Fatal("no read response")
	}
	if rsps[0].Data[0] != 105 || rsps[0].Data[1] != 200 {
		t.Errorf("after ADD16: %v, want [105 200]", rsps[0].Data)
	}
	if h.Stats().Atomics != 1 {
		t.Errorf("atomics stat = %d", h.Stats().Atomics)
	}
}

func TestModeReadFeatRegister(t *testing.T) {
	h := newSimple(t, testConfig())
	sendReq(t, h, 0, 0, packet.Request{
		CUB: 0, Addr: reg.PhysFEAT, Tag: 9, Cmd: packet.CmdMDRD,
	})
	_ = h.Clock()
	rsps := drain(t, h, 0)
	if len(rsps) != 1 || rsps[0].Cmd != packet.CmdMDRDRS {
		t.Fatalf("mode response = %+v", rsps)
	}
	capGB, vaults, banks, _, links := reg.UnpackFeat(rsps[0].Data[0])
	if capGB != 2 || vaults != 16 || banks != 8 || links != 4 {
		t.Errorf("FEAT via MODE_READ = %dGB/%dv/%db/%dl", capGB, vaults, banks, links)
	}
	if h.Stats().Modes != 1 {
		t.Errorf("modes stat = %d", h.Stats().Modes)
	}
}

func TestModeWriteRoundTrip(t *testing.T) {
	h := newSimple(t, testConfig())
	sendReq(t, h, 0, 0, packet.Request{
		CUB: 0, Addr: reg.PhysGC, Tag: 1, Cmd: packet.CmdMDWR,
		Data: []uint64{0xCAFE, 0},
	})
	_ = h.Clock()
	rsps := drain(t, h, 0)
	if len(rsps) != 1 || rsps[0].Cmd != packet.CmdMDWRRS {
		t.Fatalf("mode write response = %+v", rsps)
	}
	// Verify via the side-band JTAG interface.
	v, err := h.JTAGRead(0, reg.PhysGC)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xCAFE {
		t.Errorf("GC = %#x, want 0xCAFE", v)
	}
}

func TestModeBadRegisterYieldsError(t *testing.T) {
	h := newSimple(t, testConfig())
	sendReq(t, h, 0, 0, packet.Request{
		CUB: 0, Addr: 0x12345, Tag: 4, Cmd: packet.CmdMDRD,
	})
	_ = h.Clock()
	rsps := drain(t, h, 0)
	if len(rsps) != 1 || rsps[0].Cmd != packet.CmdError {
		t.Fatalf("response = %+v, want ERROR", rsps)
	}
	if rsps[0].ErrStat != packet.ErrStatRegister {
		t.Errorf("errstat = %#x", rsps[0].ErrStat)
	}
	if rsps[0].Tag != 4 {
		t.Errorf("error response tag = %d, want 4", rsps[0].Tag)
	}
}

func TestJTAGOutOfBand(t *testing.T) {
	h := newSimple(t, testConfig())
	// JTAG works without any clocking.
	if err := h.JTAGWrite(0, reg.PhysGC, 0x77); err != nil {
		t.Fatal(err)
	}
	v, err := h.JTAGRead(0, reg.PhysGC)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x77 {
		t.Errorf("GC = %#x", v)
	}
	if err := h.JTAGWrite(0, reg.PhysFEAT, 1); err == nil {
		t.Error("JTAG write to RO register succeeded")
	}
	if _, err := h.JTAGRead(5, reg.PhysGC); err == nil {
		t.Error("JTAG read from bad device succeeded")
	}
}

func TestBadCubeYieldsErrorResponse(t *testing.T) {
	h := newSimple(t, testConfig())
	sendReq(t, h, 0, 0, packet.Request{
		CUB: 5, Addr: 0x100, Tag: 11, Cmd: packet.CmdRD32,
	})
	_ = h.Clock()
	rsps := drain(t, h, 0)
	if len(rsps) != 1 || rsps[0].Cmd != packet.CmdError {
		t.Fatalf("response = %+v, want ERROR", rsps)
	}
	if rsps[0].ErrStat != packet.ErrStatCube {
		t.Errorf("errstat = %#x, want ErrStatCube", rsps[0].ErrStat)
	}
	if !rsps[0].DInv {
		t.Error("error response should carry DINV")
	}
}

func TestOutOfRangeAddressYieldsErrorResponse(t *testing.T) {
	h := newSimple(t, testConfig())
	// 2GB device: addresses at or above 2^31 are out of range but still
	// fit the 34-bit field.
	sendReq(t, h, 0, 0, packet.Request{
		CUB: 0, Addr: 1 << 32, Tag: 12, Cmd: packet.CmdRD16,
	})
	_ = h.Clock()
	rsps := drain(t, h, 0)
	if len(rsps) != 1 || rsps[0].Cmd != packet.CmdError || rsps[0].ErrStat != packet.ErrStatAddr {
		t.Fatalf("response = %+v, want ERROR/ErrStatAddr", rsps)
	}
}

func TestSendValidation(t *testing.T) {
	h := newSimple(t, testConfig())
	// Corrupt CRC is rejected at the link.
	words, _ := h.BuildRequestPacket(packet.Request{CUB: 0, Addr: 0, Cmd: packet.CmdRD16}, 0)
	words[0] ^= 1 << 40
	if err := h.Send(0, 0, words); err == nil {
		t.Error("Send accepted a corrupted packet")
	}
	// Response commands cannot be sent by the host.
	rsp, _ := packet.BuildResponse(packet.Response{Cmd: packet.CmdRDRS, Data: make([]uint64, 2)})
	rw := append([]uint64(nil), rsp.Words()...)
	if err := h.Send(0, 0, rw); err == nil {
		t.Error("Send accepted a response packet")
	}
	// Bad link and device indices.
	good, _ := h.BuildRequestPacket(packet.Request{CUB: 0, Cmd: packet.CmdRD16}, 0)
	if err := h.Send(0, 99, good); err == nil {
		t.Error("Send accepted a bad link")
	}
	if err := h.Send(7, 0, good); err == nil {
		t.Error("Send accepted a bad device")
	}
}

// TestRejectedSendRequestDrawsNoSequence: a SendRequest that names no
// device or link of the object is rejected before it touches any state,
// so the next accepted packet on a link carries the sequence number it
// would have carried without the rejected call. Rejections further in
// (here: a stall) still draw, as the stall digests pin.
func TestRejectedSendRequestDrawsNoSequence(t *testing.T) {
	cfg := testConfig()
	cfg.XbarDepth = 2
	h := newSimple(t, cfg)
	req := packet.Request{Cmd: packet.CmdRD16}
	seqOfNewest := func() uint8 {
		q := h.Device(0).Links[0].RqstQ
		return q.At(q.Len() - 1).Seq()
	}

	if err := h.SendRequest(0, 0, req); err != nil {
		t.Fatal(err)
	}
	if got := seqOfNewest(); got != 0 {
		t.Fatalf("first packet SEQ = %d, want 0", got)
	}
	for _, bad := range [][2]int{{99, 0}, {-1, 0}, {0, 99}, {0, -1}} {
		if err := h.SendRequest(bad[0], bad[1], req); !errors.Is(err, ErrRange) {
			t.Fatalf("SendRequest(%d, %d) = %v, want ErrRange", bad[0], bad[1], err)
		}
	}
	if err := h.SendRequest(0, 0, req); err != nil {
		t.Fatal(err)
	}
	if got := seqOfNewest(); got != 1 {
		t.Errorf("SEQ after rejected out-of-range sends = %d, want 1", got)
	}

	// The queue (depth 2) is now full: this one stalls, and draws SEQ 2.
	if err := h.SendRequest(0, 0, req); !errors.Is(err, ErrStall) {
		t.Fatalf("SendRequest on a full queue = %v, want ErrStall", err)
	}
	if err := h.Clock(); err != nil {
		t.Fatal(err)
	}
	if err := h.SendRequest(0, 0, req); err != nil {
		t.Fatal(err)
	}
	if got := seqOfNewest(); got != 3 {
		t.Errorf("SEQ after a stalled send = %d, want 3 (a stall draws)", got)
	}
}

func TestSendStallWhenXbarFull(t *testing.T) {
	cfg := testConfig()
	cfg.XbarDepth = 4
	h := newSimple(t, cfg)
	tag := uint16(0)
	stalled := false
	for i := 0; i < 10; i++ {
		words, _ := h.BuildRequestPacket(packet.Request{
			CUB: 0, Addr: uint64(i) * 64, Tag: tag, Cmd: packet.CmdRD16,
		}, 0)
		err := h.Send(0, 0, words)
		if errors.Is(err, ErrStall) {
			stalled = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		tag++
	}
	if !stalled {
		t.Fatal("no stall after overfilling a 4-slot crossbar queue")
	}
	if h.Stats().SendStalls == 0 {
		t.Error("SendStalls not counted")
	}
	// After a clock the queue drains and sending resumes.
	_ = h.Clock()
	words, _ := h.BuildRequestPacket(packet.Request{CUB: 0, Tag: 100, Cmd: packet.CmdRD16}, 0)
	if err := h.Send(0, 0, words); err != nil {
		t.Errorf("Send after clock: %v", err)
	}
}

func TestFlowPacketsConsumedAtLink(t *testing.T) {
	h := newSimple(t, testConfig())
	fl, err := packet.BuildFlow(packet.CmdTRET, 9)
	if err != nil {
		t.Fatal(err)
	}
	words := append([]uint64(nil), fl.Words()...)
	if err := h.Send(0, 0, words); err != nil {
		t.Fatalf("Send(TRET): %v", err)
	}
	if got := h.Device(0).Links[0].Tokens; got != 9 {
		t.Errorf("tokens = %d, want 9", got)
	}
	fl, _ = packet.BuildFlow(packet.CmdPRET, 4)
	words = append(words[:0], fl.Words()...)
	_ = h.Send(0, 0, words)
	if got := h.Device(0).Links[0].Tokens; got != 5 {
		t.Errorf("tokens = %d, want 5", got)
	}
	if h.Device(0).Links[0].RqstQ.Len() != 0 {
		t.Error("flow packet occupied a queue slot")
	}
	if h.Stats().FlowPackets != 2 {
		t.Errorf("FlowPackets = %d", h.Stats().FlowPackets)
	}
}

func TestSealSemantics(t *testing.T) {
	h := newSimple(t, testConfig())
	_ = h.Clock()
	if err := h.ConnectHost(0, 0); !errors.Is(err, ErrSealed) {
		t.Errorf("ConnectHost after clock = %v, want ErrSealed", err)
	}
	if err := h.ConnectDevices(0, 0, 0, 1); !errors.Is(err, ErrSealed) {
		t.Errorf("ConnectDevices after clock = %v, want ErrSealed", err)
	}
	// Free reopens the topology.
	h.Free()
	if err := h.ConnectHost(0, 0); err != nil {
		t.Errorf("ConnectHost after Free: %v", err)
	}
}

func TestClockWithoutHostLinkFails(t *testing.T) {
	h, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Clock(); err == nil {
		t.Error("Clock succeeded with no host link (host has no access to main memory)")
	}
}

func TestUseTopology(t *testing.T) {
	cfg := testConfig()
	cfg.NumDevs = 4
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := topo.Ring(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.UseTopology(ring); err != nil {
		t.Fatal(err)
	}
	if err := h.Clock(); err != nil {
		t.Fatal(err)
	}
	// Mismatched shapes are rejected.
	h2, _ := New(testConfig())
	if err := h2.UseTopology(ring); err == nil {
		t.Error("UseTopology accepted a mismatched topology")
	}
}

func TestTraceMaskGating(t *testing.T) {
	h := newSimple(t, testConfig())
	rec := &trace.Recorder{}
	h.SetTracer(rec)
	h.SetTraceMask(trace.MaskNone)
	sendReq(t, h, 0, 0, packet.Request{CUB: 0, Addr: 0, Tag: 1, Cmd: packet.CmdRD16})
	_ = h.Clock()
	if len(rec.Events) != 0 {
		t.Fatalf("MaskNone emitted %d events", len(rec.Events))
	}
	h.SetTraceMask(trace.MaskAll)
	sendReq(t, h, 0, 0, packet.Request{CUB: 0, Addr: 64, Tag: 2, Cmd: packet.CmdRD16})
	_ = h.Clock()
	if len(rec.Events) == 0 {
		t.Fatal("MaskAll emitted nothing")
	}
	if got := rec.OfKind(trace.KindRqst); len(got) != 1 {
		t.Errorf("RQST events = %d, want 1", len(got))
	}
	if h.TraceMask() != trace.MaskAll {
		t.Error("TraceMask not stored")
	}
	h.SetTracer(nil) // must not panic
	_ = h.Clock()
}
