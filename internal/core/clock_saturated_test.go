package core_test

import (
	"runtime"
	"testing"
	"time"

	"hmcsim/internal/core"
	"hmcsim/internal/eval"
	"hmcsim/internal/obs"
	"hmcsim/internal/packet"
	"hmcsim/internal/workload"
)

// saturated is Table I configuration 1 with every host link's crossbar
// request queue filled with reads of the paper's random access stream.
type saturated struct {
	tb  testing.TB
	cfg core.Config
	h   *core.HMC
	gen workload.Generator
}

func newSaturated(tb testing.TB) *saturated {
	tb.Helper()
	cfg := core.Table1Configs()[0]
	h, err := eval.BuildSimple(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	gen, err := eval.RandomWorkload(cfg, 1)
	if err != nil {
		tb.Fatal(err)
	}
	s := &saturated{tb: tb, cfg: cfg, h: h, gen: gen}
	s.refill()
	return s
}

// refill sends reads on every link until each stalls.
func (s *saturated) refill() {
	for link := 0; link < s.cfg.NumLinks; link++ {
		for {
			words, err := s.h.BuildRequestPacket(packet.Request{
				CUB: 0, Addr: s.gen.Next().Addr, Tag: uint16(link), Cmd: packet.CmdRD64,
			}, link)
			if err != nil {
				s.tb.Fatal(err)
			}
			if s.h.Send(0, link, words) != nil {
				break
			}
		}
	}
}

// drain receives every response waiting at the host links.
func (s *saturated) drain() {
	for link := 0; link < s.cfg.NumLinks; link++ {
		for {
			if _, err := s.h.Recv(0, link); err != nil {
				break
			}
		}
	}
}

// BenchmarkClockSaturated measures the wall cost of one Clock call on a
// fully loaded device: BenchmarkClockOnePacket's other end. The drain
// and refill between calls run with the timer stopped.
func BenchmarkClockSaturated(b *testing.B) {
	benchClockSaturated(b, nil)
}

// BenchmarkClockSaturatedProbe is the saturated clock loop with the live
// progress probe updated every cycle, the way host.Driver.Run does when
// a job is served with progress reporting. The -benchmem line must stay
// at 0 allocs/op: the probe is three atomic stores and may not push the
// clock hot path off the allocation-free discipline (DESIGN.md §11).
func BenchmarkClockSaturatedProbe(b *testing.B) {
	probe := new(obs.Probe)
	probe.Begin(uint64(b.N), time.Now())
	benchClockSaturated(b, probe)
}

// benchClockSaturated counts to b.N rather than using b.Loop: on go
// 1.24.0, b.Loop ends a run by the time since the last StartTimer, so a
// loop that stops the timer every iteration never ends.
func benchClockSaturated(b *testing.B, probe *obs.Probe) {
	s := newSaturated(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.h.Clock(); err != nil {
			b.Fatal(err)
		}
		if probe != nil {
			probe.Set(s.h.Clk(), uint64(i), uint64(i))
		}
		b.StopTimer()
		s.drain()
		s.refill()
		b.StartTimer()
	}
}

// TestClockSaturatedAllocFree pins the clock's zero-allocation contract
// (DESIGN.md §9): a Clock call on a saturated Table I configuration 1
// device allocates nothing. Only the Clock calls are counted, not the
// drain and refill between them.
func TestClockSaturatedAllocFree(t *testing.T) {
	s := newSaturated(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	var mallocs uint64
	for range 64 {
		runtime.ReadMemStats(&before)
		err := s.h.Clock()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		mallocs += after.Mallocs - before.Mallocs
		s.drain()
		s.refill()
	}
	if mallocs != 0 {
		t.Errorf("64 saturated Clock calls allocated %d objects, want 0", mallocs)
	}
}
