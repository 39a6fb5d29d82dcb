package core

import (
	"errors"
	"strconv"
	"testing"

	"hmcsim/internal/fault"
	"hmcsim/internal/packet"
	"hmcsim/internal/trace"
)

// eventCapture collects every trace event in arrival order, so two runs
// can be compared event for event.
type eventCapture struct{ events []trace.Event }

func (c *eventCapture) Trace(e trace.Event) { c.events = append(c.events, e) }

func TestShardPartition(t *testing.T) {
	cfg := testConfig() // 1 dev x 16 vaults
	for _, w := range []int{0, 1, 2, 3, 5, 16, MaxWorkers} {
		cfg.Workers = w
		shards, spans := buildShards(cfg)
		want := w
		if want < 1 {
			want = 1
		}
		if want > 16 {
			want = 16 // capped at the vault count
		}
		if len(shards) != want {
			t.Fatalf("Workers=%d: %d shards, want %d", w, len(shards), want)
		}
		// The shards tile the device-major vault space contiguously,
		// exactly once, with sizes differing by at most one.
		next, min, max, nspans := 0, 16, 0, 0
		for _, sh := range shards {
			n := 0
			for _, sp := range sh.spans {
				if sp.dev != 0 || sp.lo != next || sp.hi <= sp.lo {
					t.Fatalf("Workers=%d: span %d:%d..%d out of order (want vault %d)", w, sp.dev, sp.lo, sp.hi, next)
				}
				n += sp.hi - sp.lo
				next = sp.hi
				nspans++
			}
			if n < min {
				min = n
			} else if n > max {
				max = n
			}
		}
		if next != 16 || nspans != len(spans) {
			t.Fatalf("Workers=%d: %d units covered in %d of %d spans, want 16", w, next, nspans, len(spans))
		}
		if max > 0 && max-min > 1 {
			t.Errorf("Workers=%d: shard sizes spread %d..%d, want balanced", w, min, max)
		}
	}
}

// parallelRun drives a deterministic mixed workload — reads, writes,
// atomics and posted requests across every host link, with refresh
// enabled — and returns periodic state digests, the final counters and
// the complete trace event stream.
func parallelRun(t *testing.T, cfg Config, cycles int) ([]uint64, Stats, []trace.Event) {
	t.Helper()
	h := newSimple(t, cfg)
	cap := &eventCapture{}
	h.SetTracer(cap)
	h.SetTraceMask(trace.MaskAll)

	cmds := []packet.Command{
		packet.CmdRD16, packet.CmdRD64, packet.CmdRD128,
		packet.CmdWR16, packet.CmdWR64, packet.CmdADD16,
		packet.Cmd2ADD8, packet.CmdPWR32, packet.CmdP2ADD8, packet.CmdPBWR,
	}
	rng := uint64(0x1234)
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	drainQuiet := func() {
		for l := 0; l < cfg.NumLinks; l++ {
			for {
				if _, err := h.Recv(0, l); err != nil {
					break
				}
			}
		}
	}

	var digests []uint64
	tag := 0
	for c := 0; c < cycles; c++ {
		for l := 0; l < cfg.NumLinks; l++ {
			for k := 0; k < 2; k++ {
				cmd := cmds[next(uint64(len(cmds)))]
				data := make([]uint64, cmd.DataBytes()/8)
				for i := range data {
					data[i] = next(1 << 40)
				}
				req := packet.Request{
					CUB: 0, Addr: next(1<<30) &^ 15,
					Tag: uint16(tag & 0x1ff), Cmd: cmd, Data: data,
				}
				words, err := h.BuildRequestPacket(req, l)
				if err != nil {
					t.Fatal(err)
				}
				if err := h.Send(0, l, words); err != nil && !errors.Is(err, ErrStall) {
					t.Fatal(err)
				}
				tag++
			}
		}
		if err := h.Clock(); err != nil {
			t.Fatal(err)
		}
		if c%3 == 0 {
			drainQuiet()
		}
		if c%16 == 15 {
			digests = append(digests, h.StateDigest())
		}
	}
	// Let the device drain completely so the final digest covers the
	// whole packet population.
	for i := 0; i < 4*cycles && !h.Quiescent(); i++ {
		if err := h.Clock(); err != nil {
			t.Fatal(err)
		}
		drainQuiet()
	}
	digests = append(digests, h.StateDigest())
	return digests, h.Stats(), cap.events
}

// compareRuns asserts two runs are indistinguishable: same digest
// trajectory, same counters, same trace event stream.
func compareRuns(t *testing.T, label string,
	refD []uint64, refS Stats, refE []trace.Event,
	gotD []uint64, gotS Stats, gotE []trace.Event) {
	t.Helper()
	if len(gotD) != len(refD) {
		t.Fatalf("%s: %d digest checkpoints, want %d", label, len(gotD), len(refD))
	}
	for i := range refD {
		if gotD[i] != refD[i] {
			t.Fatalf("%s: digest checkpoint %d = %#x, want %#x (first divergence)",
				label, i, gotD[i], refD[i])
		}
	}
	if gotS != refS {
		t.Errorf("%s: stats diverged:\n got %+v\nwant %+v", label, gotS, refS)
	}
	if len(gotE) != len(refE) {
		t.Fatalf("%s: %d trace events, want %d", label, len(gotE), len(refE))
	}
	for i := range refE {
		if gotE[i] != refE[i] {
			t.Fatalf("%s: trace event %d = %+v, want %+v (first divergence)",
				label, i, gotE[i], refE[i])
		}
	}
}

func TestWorkersConformance(t *testing.T) {
	// The determinism guarantee of the sharded engine: for any worker
	// count, digests, counters and the trace stream are bit-identical to
	// the serial engine — under bank conflicts, refresh, queue-full
	// stalls and posted traffic.
	cycles := 240
	if testing.Short() {
		cycles = 80
	}
	base := testConfig()
	base.RefreshInterval = 64
	base.RefreshDuration = 4

	refD, refS, refE := parallelRun(t, base, cycles)
	if refS.BankConflicts == 0 || refS.RefreshStalls == 0 || refS.Posted == 0 {
		t.Fatalf("workload too tame to prove conformance: %+v", refS)
	}
	for _, w := range []int{1, 2, 3, 5, 8, 16} {
		cfg := base
		cfg.Workers = w
		gotD, gotS, gotE := parallelRun(t, cfg, cycles)
		compareRuns(t, "Workers="+strconv.Itoa(w), refD, refS, refE, gotD, gotS, gotE)
	}
}

func TestWorkersFaultConformance(t *testing.T) {
	// The fault engine stays deterministic when sharded: per-vault fault
	// streams are pure functions of (seed, dev, vault, draw index), so
	// poisoned reads land on the same requests regardless of worker
	// count or scheduling.
	cycles := 200
	if testing.Short() {
		cycles = 80
	}
	base := testConfig()
	base.Fault = fault.Config{TransientPPM: 20000, VaultPPM: 60000, Seed: 99, MaxRetries: 4}

	refD, refS, refE := parallelRun(t, base, cycles)
	if refS.PoisonedReads == 0 || refS.LinkRetransmits == 0 {
		t.Fatalf("fault workload fired no faults: %+v", refS)
	}
	cfg := base
	cfg.Workers = 4
	gotD, gotS, gotE := parallelRun(t, cfg, cycles)
	compareRuns(t, "fault Workers=4", refD, refS, refE, gotD, gotS, gotE)
}

func TestClockNIdleAdvanceWorkers(t *testing.T) {
	// ClockN's idle bulk-advance must observe quiescence identically in
	// serial and sharded mode: the merge precedes the idle check, so the
	// pool in-use count and queue census it reads are always the fully
	// merged state. The active-cycle count before quiescence is pinned
	// against the serial engine.
	active := func(workers int) (int, uint64, uint64) {
		cfg := testConfig()
		cfg.Workers = workers
		h := newSimple(t, cfg)
		for i := 0; i < 12; i++ {
			sendReq(t, h, 0, i%cfg.NumLinks, packet.Request{
				CUB: 0, Addr: uint64(i) * 64, Tag: uint16(i), Cmd: packet.CmdRD16,
			})
		}
		n := 0
		for ; !(h.idle() && h.regsClean()); n++ {
			if n > 1000 {
				t.Fatal("simulation never went quiescent")
			}
			if err := h.Clock(); err != nil {
				t.Fatal(err)
			}
			for l := 0; l < cfg.NumLinks; l++ {
				for {
					if _, err := h.Recv(0, l); err != nil {
						break
					}
				}
			}
		}
		// The remaining cycles of a bulk advance must be pure clock
		// movement: digest changes only through the clock word.
		if err := h.ClockN(5000); err != nil {
			t.Fatal(err)
		}
		return n, h.Clk(), h.StateDigest()
	}

	serialN, serialClk, serialDig := active(0)
	if serialN == 0 {
		t.Fatal("workload produced no active cycles")
	}
	for _, w := range []int{2, 4} {
		n, clk, dig := active(w)
		if n != serialN {
			t.Errorf("Workers=%d: %d active cycles before quiescence, serial %d", w, n, serialN)
		}
		if clk != serialClk {
			t.Errorf("Workers=%d: clock %d after bulk advance, serial %d", w, clk, serialClk)
		}
		if dig != serialDig {
			t.Errorf("Workers=%d: digest %#x after bulk advance, serial %#x", w, dig, serialDig)
		}
	}
}

func TestWorkersValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = -1
	if _, err := New(cfg); !errors.Is(err, ErrConfig) {
		t.Errorf("Workers=-1: err = %v, want ErrConfig", err)
	}
	cfg.Workers = MaxWorkers + 1
	if _, err := New(cfg); !errors.Is(err, ErrConfig) {
		t.Errorf("Workers=%d: err = %v, want ErrConfig", cfg.Workers, err)
	}
	h, err := NewWithOptions(testConfig(), WithWorkers(MaxWorkers))
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Config().Workers; got != MaxWorkers {
		t.Errorf("WithWorkers: Config.Workers = %d, want %d", got, MaxWorkers)
	}
	// The shard count is capped at the vault count, so an oversized
	// worker request cannot produce empty shards.
	if len(h.shards) != 16 {
		t.Errorf("shard count = %d, want 16 (vault cap)", len(h.shards))
	}
	if h.sched == nil || h.sched.Workers() != 16 {
		t.Error("worker pool missing or mis-sized for capped worker count")
	}
}
