package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"hmcsim/internal/fault"
	"hmcsim/internal/packet"
	"hmcsim/internal/trace"
)

// mixedRun drives a deterministic mixed workload — reads, writes,
// atomics and posted requests across every host link, with refresh
// enabled — and returns periodic state digests, the final counters and
// the complete trace event stream.
func mixedRun(t *testing.T, cfg Config, cycles int) ([]uint64, Stats, []trace.Event) {
	t.Helper()
	h := newSimple(t, cfg)
	rec := &trace.Recorder{}
	h.SetTracer(rec)
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
	return digests, h.Stats(), rec.Events
}

// runDigest folds a mixedRun — its digest trajectory, counters and
// every trace event in order — into one value to pin.
func runDigest(digests []uint64, st Stats, events []trace.Event) uint64 {
	f := fnv.New64a()
	for _, d := range digests {
		fmt.Fprintf(f, "%x ", d)
	}
	fmt.Fprintf(f, "%+v", st)
	for _, e := range events {
		fmt.Fprintf(f, "%+v", e)
	}
	return f.Sum64()
}

// TestWorkersConformance pins a mixed workload — bank conflicts, refresh,
// queue-full stalls and posted traffic — on a configuration that carries
// a worker count: the engine ignores it, and digests, counters and the
// trace stream are those the serial engine has always produced.
func TestWorkersConformance(t *testing.T) {
	cfg := testConfig()
	cfg.RefreshInterval = 64
	cfg.RefreshDuration = 4
	cfg.Workers = 8
	d, st, ev := mixedRun(t, cfg, 240)
	if st.BankConflicts == 0 || st.RefreshStalls == 0 || st.Posted == 0 {
		t.Fatalf("workload too tame to pin: %+v", st)
	}
	if got := runDigest(d, st, ev); got != workersConformanceDigest {
		t.Errorf("run digest %#x, pinned %#x", got, workersConformanceDigest)
	}
}

// TestWorkersFaultConformance is TestWorkersConformance under transient
// link faults and vault faults: the per-vault fault streams poison the
// same reads as ever.
func TestWorkersFaultConformance(t *testing.T) {
	cfg := testConfig()
	cfg.Fault = fault.Config{TransientPPM: 20000, VaultPPM: 60000, Seed: 99, MaxRetries: 4}
	cfg.Workers = 4
	d, st, ev := mixedRun(t, cfg, 200)
	if st.PoisonedReads == 0 || st.LinkRetransmits == 0 {
		t.Fatalf("fault workload fired no faults: %+v", st)
	}
	if got := runDigest(d, st, ev); got != workersFaultConformanceDigest {
		t.Errorf("run digest %#x, pinned %#x", got, workersFaultConformanceDigest)
	}
}

// The digests of the serial engine's runs above.
const (
	workersConformanceDigest      = uint64(0xc1297210efba4e9c)
	workersFaultConformanceDigest = uint64(0x65a3405d9b85eace)
)

// TestClockNIdleAdvanceWorkers pins ClockN's idle bulk advance: the
// active cycles before quiescence, and a bulk advance that moves the
// clock and nothing else.
func TestClockNIdleAdvanceWorkers(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 4
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
	if err := h.ClockN(5000); err != nil {
		t.Fatal(err)
	}
	if n != 1 || h.Clk() != 5001 || h.StateDigest() != 0x4296c78596254f2c {
		t.Errorf("active cycles, clock, digest = %d, %d, %#x; pinned 1, 5001, 0x4296c78596254f2c", n, h.Clk(), h.StateDigest())
	}
}

func TestWorkersValidation(t *testing.T) {
	// The ignored worker count keeps its range check.
	cfg := testConfig()
	cfg.Workers = -1
	if _, err := New(cfg); !errors.Is(err, ErrConfig) {
		t.Errorf("Workers=-1: err = %v, want ErrConfig", err)
	}
	cfg.Workers = MaxWorkers + 1
	if _, err := New(cfg); !errors.Is(err, ErrConfig) {
		t.Errorf("Workers=%d: err = %v, want ErrConfig", cfg.Workers, err)
	}
	cfg.Workers = MaxWorkers
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Config().Workers; got != MaxWorkers {
		t.Errorf("Config.Workers = %d, want %d", got, MaxWorkers)
	}
}
