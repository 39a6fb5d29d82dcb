package core

import (
	"testing"

	"hmcsim/internal/packet"
)

// BenchmarkVaultStage isolates sub-cycle stages 3 and 4 — the
// bank-conflict and vault service passes — from the rest of the clock
// cycle. Crossbar delivery into the vault queues and response draining
// run with the timer stopped, so the measured cost is one vaultStages()
// call over loaded vault queues.
func BenchmarkVaultStage(b *testing.B) {
	cfg := testConfig()
	h, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for l := 0; l < cfg.NumLinks; l++ {
		if err := h.ConnectHost(0, l); err != nil {
			b.Fatal(err)
		}
	}
	if err := h.seal(); err != nil {
		b.Fatal(err)
	}
	// Deterministic address stream spreading load over vaults and banks.
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng
	}
	capacity := uint64(cfg.CapacityGB) << 30
	tag := 0
	// deliver tops up the vault request queues: send until the links
	// stall, then run the crossbar stage (Clock's stages 0-2 sans retry,
	// which is a no-op without faults) to move the packets inward.
	deliver := func() {
		for l := 0; l < cfg.NumLinks; l++ {
			for {
				words, err := h.BuildRequestPacket(packet.Request{
					Addr: next() % capacity &^ 63,
					Tag:  uint16(tag & 0x1ff), Cmd: packet.CmdRD64,
				}, l)
				if err != nil {
					b.Fatal(err)
				}
				tag++
				if h.Send(0, l, words) != nil {
					break
				}
			}
		}
		h.clearCycleFlags()
		for _, cube := range h.rootOrder {
			h.xbarRequestStage(cube)
		}
	}
	// drainResponses runs Clock's stage 5 and empties the host links so
	// the vault response queues never backpressure the timed stage.
	drainResponses := func() {
		for _, cube := range h.rootOrder {
			h.responseStage(cube)
		}
		for l := 0; l < cfg.NumLinks; l++ {
			for {
				if _, err := h.Recv(0, l); err != nil {
					break
				}
			}
		}
		h.clk++
	}
	deliver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.vaultStages()
		b.StopTimer()
		drainResponses()
		deliver()
		b.StartTimer()
	}
}

// BenchmarkClockOnePacket is the fixed cost of a walked cycle: Table I
// configuration 1 with one request in flight — answered, its response
// waiting at the host port for a host that does not come — so every stage
// of Clock runs and none has anything to move. BenchmarkClockSaturated
// is the other end: the same device full. ns/op is one
// Clock call; the wheel is not consulted.
func BenchmarkClockOnePacket(b *testing.B) {
	cfg := Table1Configs()[0]
	h, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for l := 0; l < cfg.NumLinks; l++ {
		if err := h.ConnectHost(0, l); err != nil {
			b.Fatal(err)
		}
	}
	if err := h.SendRequest(0, 1, packet.Request{Addr: 0x1240, Tag: 1, Cmd: packet.CmdRD64}); err != nil {
		b.Fatal(err)
	}
	for h.Occupancy().XbarRsp == 0 {
		if err := h.Clock(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Clock(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if o := h.Occupancy(); o.XbarRsp != 1 || o.XbarRqst+o.VaultRqst+o.VaultRsp != 0 || h.SkipStats().Wakeups != 0 {
		b.Fatalf("not one parked response on walked cycles: %+v, %+v", o, h.SkipStats())
	}
}
