package core

import (
	"testing"

	"hmcsim/internal/packet"
)

func TestLinkTrafficAccounting(t *testing.T) {
	h := newSimple(t, testConfig())
	// One WR64 (5 flits in) + one RD64 (1 flit in, 5 flits out) + the
	// write response (1 flit out) on link 0.
	sendReq(t, h, 0, 0, packet.Request{
		CUB: 0, Addr: 0x100, Tag: 1, Cmd: packet.CmdWR64, Data: make([]uint64, 8),
	})
	sendReq(t, h, 0, 0, packet.Request{CUB: 0, Addr: 0x100, Tag: 2, Cmd: packet.CmdRD64})
	_ = h.Clock()
	_ = h.Clock()
	drain(t, h, 0)

	tr := h.LinkTraffic()
	if len(tr) != 4 {
		t.Fatalf("%d links reported", len(tr))
	}
	l0 := tr[0]
	if l0.ReqFlits != 6 {
		t.Errorf("ReqFlits = %d, want 6 (5 for WR64 + 1 for RD64)", l0.ReqFlits)
	}
	if l0.RspFlits != 6 {
		t.Errorf("RspFlits = %d, want 6 (1 WR_RS + 5 RD_RS)", l0.RspFlits)
	}
	if l0.Bytes() != 12*16 {
		t.Errorf("Bytes = %d", l0.Bytes())
	}
	// Other links idle.
	for _, l := range tr[1:] {
		if l.ReqFlits != 0 || l.RspFlits != 0 {
			t.Errorf("idle link %d has traffic %+v", l.Link, l)
		}
	}
}

func TestLinkTrafficAcrossChain(t *testing.T) {
	h := newChain(t, 2)
	sendReq(t, h, 0, 1, packet.Request{CUB: 1, Addr: 0x40, Tag: 1, Cmd: packet.CmdRD16})
	for i := 0; i < 10; i++ {
		_ = h.Clock()
	}
	drain(t, h, 0)
	tr := h.LinkTraffic()
	byID := map[[2]int]LinkTraffic{}
	for _, l := range tr {
		byID[[2]int{l.Dev, l.Link}] = l
	}
	// Host port of device 0 is link 1 (Chain wires link 0 to the next
	// device): 1 request FLIT in, 2 response FLITs out (an RD16 response
	// is header+tail plus one 16-byte data FLIT).
	if got := byID[[2]int{0, 1}]; got.ReqFlits != 1 || got.RspFlits != 2 {
		t.Errorf("host port traffic = %+v", got)
	}
	// The pass-through hop: device 1's link 1 received the request and
	// transmitted the 2-FLIT response back.
	if got := byID[[2]int{1, 1}]; got.ReqFlits != 1 || got.RspFlits != 2 {
		t.Errorf("pass-through ingress traffic = %+v", got)
	}
}

func TestFreeResetsLinkTraffic(t *testing.T) {
	h := newSimple(t, testConfig())
	sendReq(t, h, 0, 0, packet.Request{CUB: 0, Addr: 0, Tag: 1, Cmd: packet.CmdRD16})
	_ = h.Clock()
	drain(t, h, 0)
	h.Free()
	for _, l := range h.LinkTraffic() {
		if l.ReqFlits != 0 || l.RspFlits != 0 {
			t.Errorf("traffic survived Free: %+v", l)
		}
	}
}
