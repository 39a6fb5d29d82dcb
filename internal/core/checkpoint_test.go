package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/fnv"
	"testing"

	"hmcsim/internal/addr"
	"hmcsim/internal/fault"
	"hmcsim/internal/packet"
	"hmcsim/internal/topo"
)

// pumpRequests injects a deterministic read/write mixture on every host
// link for the given number of cycles, draining responses as it goes.
// seq threads the injection position so two objects driven with the same
// seq value observe identical traffic.
func pumpRequests(t *testing.T, h *HMC, cycles int, seq *uint64) {
	t.Helper()
	for c := 0; c < cycles; c++ {
		for l := 0; l < h.Config().NumLinks; l++ {
			for i := 0; i < 2; i++ {
				s := *seq
				*seq++
				addr := (s * 0x9E37 * 64) % (1 << 28)
				req := packet.Request{Addr: addr, Tag: uint16(s % 256)}
				var err error
				if s%3 == 0 {
					req.Cmd, err = packet.WriteForSize(64, false)
					if err != nil {
						t.Fatal(err)
					}
					data := make([]uint64, 8)
					for j := range data {
						data[j] = s + uint64(j)
					}
					req.Data = data
				} else if req.Cmd, err = packet.ReadForSize(64); err != nil {
					t.Fatal(err)
				}
				if err := h.SendRequest(0, l, req); err != nil {
					if errors.Is(err, ErrStall) || errors.Is(err, ErrLinkFailed) {
						break
					}
					t.Fatal(err)
				}
			}
		}
		drainAll(t, h)
		if err := h.Clock(); err != nil {
			t.Fatal(err)
		}
	}
}

// drainAll discards every waiting response on every host link.
func drainAll(t *testing.T, h *HMC) {
	t.Helper()
	for l := 0; l < h.Config().NumLinks; l++ {
		for {
			_, err := h.RecvPacket(0, l)
			if errors.Is(err, ErrStall) || errors.Is(err, ErrLinkFailed) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func checkpointConfig() Config {
	cfg := testConfig()
	cfg.Fault = fault.Config{TransientPPM: 3000, VaultPPM: 2000, Seed: 9}
	return cfg
}

// TestCheckpointRestoreDigestIdentical pins the core durability contract:
// restoring a mid-run checkpoint (through its JSON wire form) into a
// freshly built object reproduces the uninterrupted run's digest stream
// cycle for cycle.
func TestCheckpointRestoreDigestIdentical(t *testing.T) {
	cfg := checkpointConfig()
	const warm = 12

	hA := newSimple(t, cfg)
	var seq uint64
	pumpRequests(t, hA, warm, &seq)

	ck := hA.Checkpoint()
	if ck.Snap.Cycles != hA.Clk() {
		t.Fatalf("checkpoint at cycle %d, clock is %d", ck.Snap.Cycles, hA.Clk())
	}
	b, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	wire := new(Checkpoint)
	if err := json.Unmarshal(b, wire); err != nil {
		t.Fatal(err)
	}

	hB := newSimple(t, cfg)
	if err := hB.Restore(wire); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if hB.Clk() != hA.Clk() {
		t.Fatalf("restored clock %d, want %d", hB.Clk(), hA.Clk())
	}
	if hB.StateDigest() != hA.StateDigest() {
		t.Fatal("restored digest differs immediately after restore")
	}

	// Keep injecting identical traffic on both, comparing the digest at
	// every cycle boundary, then let both drain to quiescence.
	seqB := seq
	for c := 0; c < 30; c++ {
		pumpRequests(t, hA, 1, &seq)
		pumpRequests(t, hB, 1, &seqB)
		if da, db := hA.StateDigest(), hB.StateDigest(); da != db {
			t.Fatalf("digest diverged at cycle %d: %016x vs %016x", hA.Clk(), da, db)
		}
	}
	for c := 0; c < 2000 && !hA.Quiescent(); c++ {
		drainAll(t, hA)
		drainAll(t, hB)
		if err := hA.Clock(); err != nil {
			t.Fatal(err)
		}
		if err := hB.Clock(); err != nil {
			t.Fatal(err)
		}
		if da, db := hA.StateDigest(), hB.StateDigest(); da != db {
			t.Fatalf("digest diverged while draining at cycle %d", hA.Clk())
		}
	}
	if sa, sb := hA.Snapshot(), hB.Snapshot(); sa != sb {
		t.Fatalf("final snapshots differ:\n a %+v\n b %+v", sa, sb)
	}
}

// TestRestoreRejectsBadTargets pins the restore guard rails: used
// engines, mismatched shapes and corrupted payloads must all fail with
// ErrCheckpoint instead of silently diverging.
func TestRestoreRejectsBadTargets(t *testing.T) {
	cfg := checkpointConfig()
	hA := newSimple(t, cfg)
	var seq uint64
	pumpRequests(t, hA, 8, &seq)
	ck := hA.Checkpoint()

	// A clocked object is not a valid restore target.
	used := newSimple(t, cfg)
	if err := used.Clock(); err != nil {
		t.Fatal(err)
	}
	if err := used.Restore(ck); !errors.Is(err, ErrCheckpoint) {
		t.Errorf("Restore into used object: %v, want ErrCheckpoint", err)
	}

	// Flipped architectural state must fail digest verification.
	corrupt := new(Checkpoint)
	b, _ := json.Marshal(ck)
	if err := json.Unmarshal(b, corrupt); err != nil {
		t.Fatal(err)
	}
	corrupt.Devices[0].Links[0].ReqFlits++
	if err := newSimple(t, cfg).Restore(corrupt); !errors.Is(err, ErrCheckpoint) {
		t.Errorf("Restore of corrupted checkpoint: %v, want ErrCheckpoint", err)
	}

	// A retry buffer listed twice would be counted twice: one buffer, two
	// pending transfers, and an engine that never goes quiet.
	cfgR := cfg
	cfgR.Fault.TransientPPM = 500000
	hR := newSimple(t, cfgR)
	for tag := uint16(0); len(hR.Checkpoint().Retry) == 0; tag++ {
		if tag == 64 {
			t.Fatal("no transfer ever waited in a retry buffer")
		}
		err := hR.SendRequest(0, int(tag)%cfgR.NumLinks, packet.Request{Addr: uint64(tag) * 64, Tag: tag, Cmd: packet.CmdRD64})
		if err != nil && !errors.Is(err, ErrStall) {
			t.Fatal(err)
		}
	}
	twice := hR.Checkpoint()
	if err := newSimple(t, cfgR).Restore(twice); err != nil {
		t.Fatalf("Restore with an occupied retry buffer: %v", err)
	}
	twice.Retry = append(twice.Retry, twice.Retry[0])
	if err := newSimple(t, cfgR).Restore(twice); !errors.Is(err, ErrCheckpoint) {
		t.Errorf("Restore of a retry buffer listed twice: %v, want ErrCheckpoint", err)
	}

	// A mangled queued packet must fail CRC validation, not restore.
	mangled := new(Checkpoint)
	if err := json.Unmarshal(b, mangled); err != nil {
		t.Fatal(err)
	}
	damaged := false
	mangle := func(q []SlotCheckpoint) {
		if !damaged && len(q) > 0 {
			q[0].Words[0] ^= 0xFF00
			damaged = true
		}
	}
	for di := range mangled.Devices {
		d := &mangled.Devices[di]
		for vi := range d.Vaults {
			mangle(d.Vaults[vi].Rqst)
			mangle(d.Vaults[vi].Rsp)
		}
		for li := range d.Links {
			mangle(d.Links[li].Rqst)
			mangle(d.Links[li].Rsp)
		}
	}
	if !damaged {
		t.Skip("no queued vault packet at the capture point")
	}
	if err := newSimple(t, cfg).Restore(mangled); !errors.Is(err, ErrCheckpoint) {
		t.Errorf("Restore of mangled packet: %v, want ErrCheckpoint", err)
	}
}

// pumpLinks injects two requests per cycle on each of the given host
// links of device 0, built by mk from a running sequence number, and
// drains those links' responses, for the given number of cycles.
func pumpLinks(t *testing.T, h *HMC, links []int, cycles int, seq *uint64, mk func(s uint64) packet.Request) {
	t.Helper()
	for c := 0; c < cycles; c++ {
		for _, l := range links {
			for i := 0; i < 2; i++ {
				s := *seq
				*seq++
				if err := h.SendRequest(0, l, mk(s)); err != nil {
					if errors.Is(err, ErrStall) || errors.Is(err, ErrLinkFailed) {
						break
					}
					t.Fatal(err)
				}
			}
			for {
				if _, err := h.RecvPacket(0, l); err != nil {
					break
				}
			}
		}
		if err := h.Clock(); err != nil {
			t.Fatal(err)
		}
	}
}

// mixedRequest is a 64-byte write for every third s and a 64-byte read
// otherwise.
func mixedRequest(s uint64, cub uint8, addr uint64) packet.Request {
	if s%3 == 0 {
		return packet.Request{CUB: cub, Addr: addr, Tag: uint16(s % 256), Cmd: packet.CmdWR64, Data: make([]uint64, 8)}
	}
	return packet.Request{CUB: cub, Addr: addr, Tag: uint16(s % 256), Cmd: packet.CmdRD64}
}

// TestCheckpointBytesPinned pins the JSON bytes of two mid-run
// checkpoints whose queue slots carry all four per-slot fields: a single
// cube pumped into bank contention (deferred), and a 2-cube chain with a
// 3-cycle link latency and transient faults, whose pass-through links
// hold dwelling (arrived), freshly forwarded (moved) and replayed
// (retries) packets. The slot bookkeeping may move around inside the
// engine; what a checkpoint records of it may not. Restoring each
// checkpoint and capturing again gives the same bytes.
func TestCheckpointBytesPinned(t *testing.T) {
	chainCfg := checkpointConfig()
	chainCfg.NumDevs, chainCfg.LinkLatency = 2, 3
	chainCfg.Fault.TransientPPM = 100000
	cases := []struct {
		name  string
		build func(t *testing.T) *HMC
		pump  func(t *testing.T, h *HMC, cycles int, seq *uint64)
		warm  int
		want  uint64
	}{
		// Every request decodes to bank 0 or 1 of vault 0 or 1, so vault
		// request queues fill and most requests lose bank arbitration.
		{"contention", func(t *testing.T) *HMC { return newSimple(t, checkpointConfig()) },
			func(t *testing.T, h *HMC, cycles int, seq *uint64) {
				pumpLinks(t, h, []int{0, 1, 2, 3}, cycles, seq, func(s uint64) packet.Request {
					return mixedRequest(s, 0, h.Device(0).Map.Encode(addr.Decoded{Vault: int(s % 2), Bank: int(s / 2 % 2), DRAM: s * 4}))
				})
			}, 12, 0x7f537e4780be7c9c},
		{"chain", func(t *testing.T) *HMC {
			h, err := New(chainCfg)
			if err != nil {
				t.Fatal(err)
			}
			ch, err := topo.Chain(2, chainCfg.NumLinks)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.UseTopology(ch); err != nil {
				t.Fatal(err)
			}
			return h
		},
			// Device 0's host links are 1-3; every other request is for
			// cube 1, across the pass-through link.
			func(t *testing.T, h *HMC, cycles int, seq *uint64) {
				pumpLinks(t, h, []int{1, 2, 3}, cycles, seq, func(s uint64) packet.Request {
					return mixedRequest(s, uint8(s%2), (s*0x9E37*64)%(1<<28))
				})
			}, 14, 0x73ecc7e8eaa7fd24},
	}
	seen := map[string]bool{}
	for _, c := range cases {
		h := c.build(t)
		var seq uint64
		c.pump(t, h, c.warm, &seq)
		b, err := json.Marshal(h.Checkpoint())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []string{"deferred", "moved", "retries", "arrived"} {
			if n := bytes.Count(b, []byte(`"`+f+`":`)); n > 0 {
				seen[f] = true
				t.Logf("%s: %d slots carry %q", c.name, n, f)
			}
		}
		sum := fnv.New64a()
		sum.Write(b)
		if got := sum.Sum64(); got != c.want {
			t.Errorf("%s: checkpoint JSON hashes to %#x, want %#x (%d bytes)", c.name, got, c.want, len(b))
		}
		wire := new(Checkpoint)
		if err := json.Unmarshal(b, wire); err != nil {
			t.Fatal(err)
		}
		r := c.build(t)
		if err := r.Restore(wire); err != nil {
			t.Fatalf("%s: Restore: %v", c.name, err)
		}
		again, err := json.Marshal(r.Checkpoint())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, b) {
			t.Errorf("%s: restore then checkpoint changed the bytes", c.name)
		}
	}
	for _, f := range []string{"deferred", "moved", "retries", "arrived"} {
		if !seen[f] {
			t.Errorf("no checkpointed slot carries %q", f)
		}
	}
}
