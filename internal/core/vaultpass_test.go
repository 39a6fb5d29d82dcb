package core_test

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash"
	"hash/fnv"
	"testing"

	"hmcsim/internal/addr"
	"hmcsim/internal/check"
	"hmcsim/internal/core"
	"hmcsim/internal/packet"
)

// These tests guard the vault pass — bank arbitration over a window of the
// vault request queue, then service of the winners — through the public
// API only, so the file runs unchanged against any earlier revision of
// the engine: that is how the pinned digests below were taken.

func newHosted(t *testing.T, cfg core.Config) *core.HMC {
	t.Helper()
	h, err := core.New(cfg)
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

// saturator keeps every host link's crossbar queue full with a
// deterministic mix of reads, writes, atomics and posted requests, and
// folds every response it receives, in order, into a result digest.
type saturator struct {
	rng    uint64
	tag    int
	result hash.Hash64
}

func newSaturator() *saturator { return &saturator{rng: 0x1234, result: fnv.New64a()} }

func (s *saturator) next(n uint64) uint64 {
	s.rng = s.rng*6364136223846793005 + 1442695040888963407
	return (s.rng >> 33) % n
}

var saturatorCmds = []packet.Command{
	packet.CmdRD16, packet.CmdRD64, packet.CmdRD128, packet.CmdWR16,
	packet.CmdWR64, packet.CmdADD16, packet.Cmd2ADD8, packet.CmdPWR32,
}

// cycle drains every host link, tops every link up until it stalls, and
// clocks once.
func (s *saturator) cycle(t *testing.T, h *core.HMC) {
	t.Helper()
	var buf [8]byte
	fold := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		s.result.Write(buf[:])
	}
	links := h.Config().NumLinks
	for l := 0; l < links; l++ {
		for {
			rsp, err := h.RecvPacket(0, l)
			if errors.Is(err, core.ErrStall) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			fold(uint64(l)<<32 | uint64(rsp.Tag)<<8 | uint64(rsp.Cmd))
			fold(uint64(rsp.SLID)<<16 | uint64(rsp.Seq)<<8 | uint64(rsp.ErrStat))
			for _, w := range rsp.Data {
				fold(w)
			}
		}
	}
	var data [8]uint64
	for l := 0; l < links; l++ {
		for {
			cmd := saturatorCmds[s.next(uint64(len(saturatorCmds)))]
			d := data[:cmd.DataBytes()/8]
			for i := range d {
				d[i] = s.next(1 << 40)
			}
			err := h.SendRequest(0, l, packet.Request{
				Addr: s.next(1<<30) &^ 15, Tag: uint16(s.tag & 0x1ff), Cmd: cmd, Data: d,
			})
			if errors.Is(err, core.ErrStall) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			s.tag++
		}
	}
	if err := h.Clock(); err != nil {
		t.Fatal(err)
	}
}

// TestSaturatedVaultPassVerified runs Table I configuration 1 saturated
// with the structural audit after every clock — every queued packet
// CRC-valid, in the right kind of queue, in the vault it decodes to, with
// a cached bank that matches its address — and pins the digests the
// serial engine has always produced, on a configuration carrying the
// ignored worker count.
func TestSaturatedVaultPassVerified(t *testing.T) {
	cfg := core.Table1Configs()[0]
	cfg.Workers = 4
	h := newHosted(t, cfg)
	s := newSaturator()
	digests := fnv.New64a()
	for c := 0; c < 2000; c++ {
		s.cycle(t, h)
		if err := check.Verify(h); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		if c%50 == 49 {
			binary.Write(digests, binary.LittleEndian, h.StateDigest())
		}
	}
	st := h.Stats()
	if st.BankConflicts < st.Serviced() || st.XbarRqstStalls == 0 {
		t.Fatalf("run not saturated: %+v", st)
	}
	if state, result := digests.Sum64(), s.result.Sum64(); state != saturatedState || result != saturatedResult {
		t.Errorf("state trajectory digest %#x, result digest %#x; pinned %#x, %#x",
			state, result, saturatedState, saturatedResult)
	}
}

// The digests TestSaturatedVaultPassVerified ends on.
const (
	saturatedState  = uint64(0x87d3e63c05f7e669)
	saturatedResult = uint64(0xc8b2dfce521d94c0)
)

// TestVaultPassDeepQueue runs a vault request queue deeper than a byte
// can index, saturated, with the whole queue as the arbitration window:
// bank arbitration and service must reach winners at FIFO positions past
// 255. At 64 banks every bit of the 64-bit claim mask is a bank, the
// most a vault may have: 128 banks is a configuration error. It audits
// the structure after every clock and pins digests: the 16-bank row's
// from the revision that walked the window twice per cycle, the 64-bank
// row's from the winner-list pass that reproduced that revision's.
func TestVaultPassDeepQueue(t *testing.T) {
	wide := core.Table1Configs()[1]
	wide.NumBanks = 128
	if _, err := core.New(wide); !errors.Is(err, core.ErrConfig) {
		t.Errorf("128 banks per vault: err = %v, want ErrConfig", err)
	}

	for _, tc := range []struct {
		banks, deeper int
		state, result uint64
	}{
		{16, 256, 0x2db7c16bbd8791e9, 0xeaa037d718aef8b1},
		{64, 128, 0x46841671658abdcc, 0xd30ff40a4026d316},
	} {
		cfg := core.Table1Configs()[1]
		cfg.NumBanks, cfg.QueueDepth, cfg.XbarDepth, cfg.ConflictWindow = tc.banks, 300, 512, 0
		h := newHosted(t, cfg)
		s := newSaturator()
		digests := fnv.New64a()
		deepest := 0
		for c := 0; c < 600; c++ {
			s.cycle(t, h)
			if err := check.Verify(h); err != nil {
				t.Fatalf("%d banks, cycle %d: %v", tc.banks, c, err)
			}
			for v := range h.Device(0).Vaults {
				deepest = max(deepest, h.Device(0).Vaults[v].RqstQ.Len())
			}
			if c%50 == 49 {
				binary.Write(digests, binary.LittleEndian, h.StateDigest())
			}
		}
		if deepest <= tc.deeper {
			t.Fatalf("%d banks: deepest vault request queue held %d packets; the test needs more than %d",
				tc.banks, deepest, tc.deeper)
		}
		if state, result := digests.Sum64(), s.result.Sum64(); state != tc.state || result != tc.result {
			t.Errorf("%d banks: state trajectory digest %#x, result digest %#x; pinned %#x, %#x",
				tc.banks, state, result, tc.state, tc.result)
		}
	}
}

// TestBankArbitrationWithoutCachedBank covers the two ways a request
// reaches a vault request queue without passing the crossbar stage that
// caches its decoded bank — pushed there directly, and restored from a
// checkpoint — and pins the outcome: the run must arbitrate banks exactly
// as the engine did before the bank was cached, so the state and result
// digests below are those of the revision that decoded every waiting
// request on every cycle.
func TestBankArbitrationWithoutCachedBank(t *testing.T) {
	_, state, result := bankArbitrationRun(t, newHosted(t, bankArbitrationConfig))
	if state != bankArbitrationState || result != bankArbitrationResult {
		t.Errorf("state digest %#x, result digest %#x; pinned %#x, %#x",
			state, result, bankArbitrationState, bankArbitrationResult)
	}
}

// The digests bankArbitrationRun ends on.
const (
	bankArbitrationState  = uint64(0x3c3116857d76f1c0)
	bankArbitrationResult = uint64(0xdacd9422d8d21114)
)

// bankArbitrationConfig is the engine bankArbitrationRun runs on, every
// link a host link (newHosted).
var bankArbitrationConfig = core.Config{
	NumDevs: 1, NumLinks: 4, NumVaults: 16, QueueDepth: 16,
	NumBanks: 8, NumDRAMs: 20, CapacityGB: 2, XbarDepth: 32,
	ConflictWindow: 12, RefreshInterval: 64, RefreshDuration: 4,
}

// bankArbitrationRun is the scenario TestBankArbitrationWithoutCachedBank
// pins, run from the start on hA: a bankArbitrationConfig engine wired by
// newHosted, never clocked. It returns hA, still holding its last queued
// packets, and its final state and result digests.
func bankArbitrationRun(t *testing.T, hA *core.HMC) (h *core.HMC, state, result uint64) {
	t.Helper()
	cfg := bankArbitrationConfig

	// Three requests per vault straight into the vault queue, two of them
	// on one bank: the engine has to decode these itself.
	m := hA.Device(0).Map
	tag := uint16(0x100)
	for v := 0; v < cfg.NumVaults; v++ {
		for _, bank := range []int{v % 8, (v + 3) % 8, v % 8} {
			p, err := packet.BuildRequest(packet.Request{
				Addr: m.Encode(addr.Decoded{Vault: v, Bank: bank, DRAM: uint64(tag) * 4}),
				Tag:  tag, Cmd: packet.CmdRD32, SLID: uint8(v % cfg.NumLinks),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := hA.Device(0).Vaults[v].RqstQ.Push(&p, 0); err != nil {
				t.Fatal(err)
			}
			tag++
		}
	}

	sA := newSaturator()
	for c := 0; c < 60; c++ {
		sA.cycle(t, hA)
		if err := check.Verify(hA); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
	}

	// Mid-run, with every vault queue holding waiting requests, carry the
	// state through the checkpoint wire form into a fresh engine.
	b, err := json.Marshal(hA.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	ck := new(core.Checkpoint)
	if err := json.Unmarshal(b, ck); err != nil {
		t.Fatal(err)
	}
	hB := newHosted(t, cfg)
	if err := hB.Restore(ck); err != nil {
		t.Fatal(err)
	}
	// The restored engine's responses are compared while still queued:
	// the state digest covers every word of every queued packet.
	sB := &saturator{rng: sA.rng, tag: sA.tag, result: fnv.New64a()}

	for c := 0; c < 60; c++ {
		sA.cycle(t, hA)
		sB.cycle(t, hB)
		if err := check.Verify(hB); err != nil {
			t.Fatalf("restored engine, cycle %d: %v", c, err)
		}
		if a, b := hA.StateDigest(), hB.StateDigest(); a != b {
			t.Fatalf("restored engine diverged %d cycles after the restore: %#x vs %#x", c+1, b, a)
		}
	}
	if hA.Stats() != hB.Stats() {
		t.Fatalf("stats diverged:\n%+v\n%+v", hA.Stats(), hB.Stats())
	}
	if st := hA.Stats(); st.BankConflicts == 0 || st.RefreshStalls == 0 {
		t.Fatalf("run exercised no arbitration: %+v", st)
	}
	return hA, hA.StateDigest(), sA.result.Sum64()
}
