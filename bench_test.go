// Package hmcsim_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation, plus ablation benches for
// the design choices called out in DESIGN.md.
//
// Reproduction map:
//
//   - Table I  -> BenchmarkTableI_* (one per device configuration; the
//     sim_cycles/req and req/sim_cycle metrics carry the simulated
//     runtime; cmd/hmcsim-table1 prints the assembled table)
//   - Figure 5 -> BenchmarkFigure5Trace (full per-cycle tracing active;
//     cmd/hmcsim-fig5 emits the CSV series)
//   - Figure 1 -> BenchmarkTopology* (routed traffic through ring, mesh
//     and torus fabrics)
//   - Figure 4 -> BenchmarkAPISequence (the quickstart calling sequence)
//
// Ablations: queue depths, crossbar depths, block sizes, trace verbosity,
// link-selection policy, functional data storage, conflict window, and
// the banked-DDR baseline.
package hmcsim_test

import (
	"io"
	"testing"
	"time"

	"hmcsim/internal/cache"
	"hmcsim/internal/core"
	"hmcsim/internal/cpu"
	"hmcsim/internal/ddrsim"
	"hmcsim/internal/eval"
	"hmcsim/internal/host"
	"hmcsim/internal/numa"
	"hmcsim/internal/obs"
	"hmcsim/internal/packet"
	"hmcsim/internal/topo"
	"hmcsim/internal/trace"
	"hmcsim/internal/workload"
)

// benchRequests is the number of memory requests per benchmark iteration.
// Each iteration is a complete harness run; the paper-scale run (2^25
// requests) is available through cmd/hmcsim-table1 -paper.
const benchRequests = 1 << 14

// reportRun attaches the simulated-runtime metrics to a benchmark.
func reportRun(b *testing.B, res host.Result) {
	b.Helper()
	b.ReportMetric(float64(res.Cycles)/float64(res.Sent), "sim_cycles/req")
	b.ReportMetric(res.Throughput(), "req/sim_cycle")
}

// benchRandom runs the paper's random access harness against cfg once per
// iteration.
func benchRandom(b *testing.B, cfg core.Config, opts host.Options) {
	b.Helper()
	var last host.Result
	for i := 0; i < b.N; i++ {
		h, err := eval.BuildSimple(cfg)
		if err != nil {
			b.Fatal(err)
		}
		gen, err := eval.RandomWorkload(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		d, err := host.NewDriver(h, opts)
		if err != nil {
			b.Fatal(err)
		}
		last, err = d.Run(gen, benchRequests)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRun(b, last)
}

// --- Table I -------------------------------------------------------------

func BenchmarkTableI_4Link8Bank2GB(b *testing.B) {
	benchRandom(b, core.Table1Configs()[0], host.Options{})
}

func BenchmarkTableI_4Link16Bank4GB(b *testing.B) {
	benchRandom(b, core.Table1Configs()[1], host.Options{})
}

func BenchmarkTableI_8Link8Bank4GB(b *testing.B) {
	benchRandom(b, core.Table1Configs()[2], host.Options{})
}

func BenchmarkTableI_8Link16Bank8GB(b *testing.B) {
	benchRandom(b, core.Table1Configs()[3], host.Options{})
}

// --- Figure 5 ------------------------------------------------------------

// BenchmarkFigure5Trace runs the first Table I configuration with the full
// performance trace mask enabled and a per-cycle collector attached — the
// configuration that produced the paper's largest (40GB) trace files.
func BenchmarkFigure5Trace(b *testing.B) {
	cfg := core.Table1Configs()[0]
	var run eval.Figure5Run
	var err error
	for i := 0; i < b.N; i++ {
		run, err = eval.RunFigure5(cfg, benchRequests, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRun(b, run.Result)
	b.ReportMetric(float64(len(run.Collector.Samples)), "samples")
}

// --- Sparse traffic / event-wheel idle skip --------------------------------

// sparseRequests is the per-iteration request count of the gap-paced
// benchmarks. The gap multiplies the simulated cycle count (gap 200 →
// ~200k cycles per run), so the sparse rows use a smaller request count
// than benchRequests to keep the walk-forced variants affordable.
const sparseRequests = 1 << 10

// benchSparse runs a gap-paced workload — one access released every gap
// cycles, the dead time between them pure idle — with the event wheel
// either active (the default) or forced off. The paired rows are the
// committed evidence for the wheel's speedup: identical simulations
// (digests are pinned by TestIdleSkipEquivalenceProperty), wall clock
// apart.
func benchSparse(b *testing.B, spec workload.Spec, gap uint64, forceWalk bool) {
	b.Helper()
	cfg := core.Table1Configs()[0]
	var last host.Result
	for i := 0; i < b.N; i++ {
		h, err := eval.BuildSimple(cfg)
		if err != nil {
			b.Fatal(err)
		}
		gen, err := spec.Build(uint64(cfg.CapacityGB) << 30)
		if err != nil {
			b.Fatal(err)
		}
		d, err := host.NewDriver(h, host.Options{GapCycles: gap, DisableIdleSkip: forceWalk})
		if err != nil {
			b.Fatal(err)
		}
		last, err = d.Run(gen, sparseRequests)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRun(b, last)
	b.ReportMetric(float64(last.IdleCyclesSkipped)/float64(last.Cycles), "skip_frac")
}

func sparseRandomSpec() workload.Spec {
	return workload.Spec{Kind: "random", Seed: 1, Size: 64, WritePercent: 50}
}

func sparseChaseSpec() workload.Spec {
	return workload.Spec{Kind: "chase", Seed: 1, Size: 64}
}

func BenchmarkSparse_RandomGap200(b *testing.B) {
	benchSparse(b, sparseRandomSpec(), 200, false)
}

func BenchmarkSparse_RandomGap200Walk(b *testing.B) {
	benchSparse(b, sparseRandomSpec(), 200, true)
}

func BenchmarkSparse_ChaseGap500(b *testing.B) {
	benchSparse(b, sparseChaseSpec(), 500, false)
}

func BenchmarkSparse_ChaseGap500Walk(b *testing.B) {
	benchSparse(b, sparseChaseSpec(), 500, true)
}

// --- Figure 1 topologies ---------------------------------------------------

func benchTopology(b *testing.B, t *topo.Topology) {
	b.Helper()
	cfg := core.Config{
		NumDevs: t.NumDevs(), NumLinks: t.NumLinks(), NumVaults: 4 * t.NumLinks(),
		QueueDepth: 64, NumBanks: 8, NumDRAMs: 20, CapacityGB: 2, XbarDepth: 128,
	}
	var last host.Result
	for i := 0; i < b.N; i++ {
		h, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.UseTopology(t); err != nil {
			b.Fatal(err)
		}
		roots := t.Roots()
		d, err := host.NewDriver(h, host.Options{
			Dev: roots[0],
			DestCube: func(a workload.Access) int {
				return int(a.Addr>>12) % t.NumDevs()
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		gen, err := workload.NewRandomAccess(1, 2<<30, 64, 50)
		if err != nil {
			b.Fatal(err)
		}
		last, err = d.Run(gen, benchRequests)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRun(b, last)
	b.ReportMetric(float64(last.Engine.RouteHops)/float64(last.Sent), "hops/req")
}

func BenchmarkTopologyRing4(b *testing.B) {
	t, err := topo.Ring(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	benchTopology(b, t)
}

func BenchmarkTopologyMesh2x2(b *testing.B) {
	t, err := topo.Mesh(2, 2, 4)
	if err != nil {
		b.Fatal(err)
	}
	benchTopology(b, t)
}

func BenchmarkTopologyTorus3x3(b *testing.B) {
	t, err := topo.Torus(3, 3, 8)
	if err != nil {
		b.Fatal(err)
	}
	benchTopology(b, t)
}

// --- Figure 4 API sequence --------------------------------------------------

// BenchmarkAPISequence measures the full init / wire / send / clock / recv
// round trip of the sample calling sequence.
func BenchmarkAPISequence(b *testing.B) {
	cfg := core.Table1Configs()[0]
	h, err := eval.BuildSimple(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		head, tail, err := h.BuildMemRequest(0, uint64(i)%(2<<30)&^0x3F, uint16(i)&packet.MaxTag, packet.CmdRD64, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Send(0, 0, []uint64{head, tail}); err != nil {
			b.Fatal(err)
		}
		if err := h.Clock(); err != nil {
			b.Fatal(err)
		}
		if _, err := h.Recv(0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---------------------------------------------------------------

func BenchmarkAblationQueueDepth(b *testing.B) {
	for _, depth := range []int{8, 16, 64, 256} {
		b.Run(sizeName(depth), func(b *testing.B) {
			cfg := core.Table1Configs()[0]
			cfg.QueueDepth = depth
			benchRandom(b, cfg, host.Options{})
		})
	}
}

func BenchmarkAblationXbarDepth(b *testing.B) {
	for _, depth := range []int{16, 64, 128, 512} {
		b.Run(sizeName(depth), func(b *testing.B) {
			cfg := core.Table1Configs()[0]
			cfg.XbarDepth = depth
			benchRandom(b, cfg, host.Options{})
		})
	}
}

func BenchmarkAblationBlockSize(b *testing.B) {
	for _, size := range []int{32, 64, 128} {
		b.Run(sizeName(size), func(b *testing.B) {
			cfg := core.Table1Configs()[0]
			cfg.BlockSize = size
			var last host.Result
			for i := 0; i < b.N; i++ {
				h, err := eval.BuildSimple(cfg)
				if err != nil {
					b.Fatal(err)
				}
				gen, err := workload.NewRandomAccess(1, uint64(cfg.CapacityGB)<<30, size, 50)
				if err != nil {
					b.Fatal(err)
				}
				d, err := host.NewDriver(h, host.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last, err = d.Run(gen, benchRequests)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportRun(b, last)
		})
	}
}

func BenchmarkAblationConflictWindow(b *testing.B) {
	for _, w := range []int{2, 8, 0} { // 0 = whole queue
		b.Run(sizeName(w), func(b *testing.B) {
			cfg := core.Table1Configs()[0]
			cfg.ConflictWindow = w
			benchRandom(b, cfg, host.Options{})
		})
	}
}

func BenchmarkAblationLinkSelection(b *testing.B) {
	cfg := core.Table1Configs()[0]
	b.Run("RoundRobin", func(b *testing.B) {
		benchRandom(b, cfg, host.Options{})
	})
	b.Run("Locality", func(b *testing.B) {
		m, err := eval.BuildSimple(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sel := &workload.Locality{Map: m.Device(0).Map, NumLinks: cfg.NumLinks}
		benchRandom(b, cfg, host.Options{Select: sel})
	})
	b.Run("Fixed", func(b *testing.B) {
		benchRandom(b, cfg, host.Options{Select: workload.Fixed{Link: 0}})
	})
}

func BenchmarkAblationXbarPassing(b *testing.B) {
	for _, passing := range []bool{false, true} {
		name := "Strict"
		if passing {
			name = "Passing"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.Table1Configs()[0]
			cfg.XbarPassing = passing
			benchRandom(b, cfg, host.Options{})
		})
	}
}

func BenchmarkAblationStoreData(b *testing.B) {
	for _, store := range []bool{false, true} {
		name := "Off"
		if store {
			name = "On"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.Table1Configs()[0]
			cfg.StoreData = store
			benchRandom(b, cfg, host.Options{})
		})
	}
}

// BenchmarkAblationTraceOverhead compares untraced runs against counting
// and full-text tracing (the paper's full-verbosity traces reached 40GB).
func BenchmarkAblationTraceOverhead(b *testing.B) {
	cfg := core.Table1Configs()[0]
	run := func(b *testing.B, tr trace.Tracer, mask trace.Kind) {
		b.Helper()
		var last host.Result
		for i := 0; i < b.N; i++ {
			h, err := eval.BuildSimple(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if tr != nil {
				h.SetTracer(tr)
				h.SetTraceMask(mask)
			}
			gen, err := eval.RandomWorkload(cfg, 1)
			if err != nil {
				b.Fatal(err)
			}
			d, err := host.NewDriver(h, host.Options{})
			if err != nil {
				b.Fatal(err)
			}
			last, err = d.Run(gen, benchRequests)
			if err != nil {
				b.Fatal(err)
			}
		}
		reportRun(b, last)
	}
	b.Run("Off", func(b *testing.B) { run(b, nil, trace.MaskNone) })
	b.Run("Counter", func(b *testing.B) { run(b, trace.NewCounter(), trace.MaskPerf) })
	b.Run("TextAll", func(b *testing.B) { run(b, trace.NewWriter(io.Discard), trace.MaskAll) })
}

// BenchmarkAblationRefresh sweeps the DRAM refresh duty cycle.
func BenchmarkAblationRefresh(b *testing.B) {
	type point struct{ interval, duration int }
	for _, pt := range []point{{0, 0}, {128, 8}, {128, 32}} {
		name := "Off"
		if pt.interval > 0 {
			name = sizeName(pt.duration) + "of" + sizeName(pt.interval)
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.Table1Configs()[0]
			cfg.RefreshInterval = pt.interval
			cfg.RefreshDuration = pt.duration
			benchRandom(b, cfg, host.Options{})
		})
	}
}

// BenchmarkAblationFaultInjection sweeps the injected link fault rate
// (error simulation).
func BenchmarkAblationFaultInjection(b *testing.B) {
	for _, ppm := range []int{0, 10000, 100000} {
		b.Run(sizeName(ppm), func(b *testing.B) {
			cfg := core.Table1Configs()[0]
			cfg.FaultPPM = ppm
			cfg.FaultSeed = 1
			benchRandom(b, cfg, host.Options{})
		})
	}
}

// BenchmarkNUMAChannels measures concurrent multi-object scaling.
func BenchmarkNUMAChannels(b *testing.B) {
	for _, channels := range []int{1, 4} {
		b.Run(sizeName(channels), func(b *testing.B) {
			var last numa.Result
			for i := 0; i < b.N; i++ {
				sys, err := numa.New(numa.Config{Channels: channels, Object: core.Table1Configs()[0]})
				if err != nil {
					b.Fatal(err)
				}
				last, err = sys.Run(func(ch int) workload.Generator {
					g, err := workload.NewRandomAccess(uint32(ch+1), 2<<30, 64, 50)
					if err != nil {
						b.Fatal(err)
					}
					return g
				}, benchRequests, host.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.Throughput(), "agg_req/sim_cycle")
		})
	}
}

// BenchmarkCachedCPI measures the core model with an L1 in front of each
// memory system.
func BenchmarkCachedCPI(b *testing.B) {
	const insts = 1 << 13
	run := func(b *testing.B, mkBacking func() cpu.Memory) {
		b.Helper()
		var last cpu.Result
		for i := 0; i < b.N; i++ {
			l1, err := cache.New(cache.L1D(), mkBacking())
			if err != nil {
				b.Fatal(err)
			}
			gen, err := workload.NewHotspot(1, 1<<26, 16<<10, 90, 64, 30)
			if err != nil {
				b.Fatal(err)
			}
			c, err := cpu.New(cpu.Config{MLP: 16, MemPercent: 40, LoadPercent: 80, BlockingPercent: 50}, l1, gen)
			if err != nil {
				b.Fatal(err)
			}
			last, err = c.Run(insts)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(last.CPI(), "CPI")
	}
	b.Run("L1+HMC", func(b *testing.B) {
		run(b, func() cpu.Memory {
			h, err := eval.BuildSimple(core.Table1Configs()[0])
			if err != nil {
				b.Fatal(err)
			}
			m, err := cpu.NewHMCBackend(h, 0)
			if err != nil {
				b.Fatal(err)
			}
			return m
		})
	})
	b.Run("L1+DDR", func(b *testing.B) {
		run(b, func() cpu.Memory {
			m, err := cpu.NewDDRBackend(ddrsim.DDR3_1600(2))
			if err != nil {
				b.Fatal(err)
			}
			return m
		})
	})
}

// --- DDR baseline --------------------------------------------------------------

func benchDDR(b *testing.B, gen func() workload.Generator) {
	b.Helper()
	var last ddrsim.Result
	var err error
	for i := 0; i < b.N; i++ {
		last, err = ddrsim.Run(ddrsim.DDR3_1600(2), gen(), benchRequests)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(last.Cycles)/float64(last.Sent), "sim_cycles/req")
	b.ReportMetric(last.Throughput(), "req/sim_cycle")
}

func BenchmarkDDRBaselineRandom(b *testing.B) {
	benchDDR(b, func() workload.Generator {
		g, err := workload.NewRandomAccess(1, 2<<30, 64, 50)
		if err != nil {
			b.Fatal(err)
		}
		return g
	})
}

func BenchmarkDDRBaselineStream(b *testing.B) {
	benchDDR(b, func() workload.Generator {
		g, err := workload.NewStream(1, 1<<28, 64, 50)
		if err != nil {
			b.Fatal(err)
		}
		return g
	})
}

// --- CPU timing model -------------------------------------------------------------

// BenchmarkCPI runs the in-order core model against both memory systems
// at the extremes of the dependent-load sweep.
func BenchmarkCPI(b *testing.B) {
	const insts = 1 << 13
	run := func(b *testing.B, mem func() cpu.Memory, blocking int) {
		b.Helper()
		var last cpu.Result
		for i := 0; i < b.N; i++ {
			gen, err := workload.NewRandomAccess(1, 1<<28, 16, 0)
			if err != nil {
				b.Fatal(err)
			}
			c, err := cpu.New(cpu.Config{
				MLP: 32, MemPercent: 40, LoadPercent: 80, BlockingPercent: blocking,
			}, mem(), gen)
			if err != nil {
				b.Fatal(err)
			}
			last, err = c.Run(insts)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(last.CPI(), "CPI")
	}
	newHMC := func() cpu.Memory {
		h, err := eval.BuildSimple(core.Table1Configs()[0])
		if err != nil {
			b.Fatal(err)
		}
		m, err := cpu.NewHMCBackend(h, 0)
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	newDDR := func() cpu.Memory {
		m, err := cpu.NewDDRBackend(ddrsim.DDR3_1600(2))
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	b.Run("HMC/Decoupled", func(b *testing.B) { run(b, newHMC, 0) })
	b.Run("HMC/PointerChase", func(b *testing.B) { run(b, newHMC, 100) })
	b.Run("DDR/Decoupled", func(b *testing.B) { run(b, newDDR, 0) })
	b.Run("DDR/PointerChase", func(b *testing.B) { run(b, newDDR, 100) })
}

// --- Microbenchmarks -------------------------------------------------------------

func BenchmarkPacketBuildRequest(b *testing.B) {
	data := make([]uint64, 8)
	for i := 0; i < b.N; i++ {
		_, err := packet.BuildRequest(packet.Request{
			CUB: 1, Addr: uint64(i) & 0x3FFFFFFF, Tag: uint16(i) & packet.MaxTag,
			Cmd: packet.CmdWR64, Data: data,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPacketDecodeResponse(b *testing.B) {
	p, err := packet.BuildResponse(packet.Response{
		CUB: 1, Tag: 3, Cmd: packet.CmdRDRS, Data: make([]uint64, 8),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.AsResponse(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCRC(b *testing.B) {
	words := make([]uint64, packet.MaxWords)
	for i := range words {
		words[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	b.SetBytes(int64(len(words) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = packet.CRC(words)
	}
}

func BenchmarkAddressDecode(b *testing.B) {
	h, err := eval.BuildSimple(core.Table1Configs()[0])
	if err != nil {
		b.Fatal(err)
	}
	m := h.Device(0).Map
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += m.Decode(uint64(i) * 64).Vault
	}
	_ = sink
}

func BenchmarkGlibcRand(b *testing.B) {
	g := workload.NewGlibcRand(1)
	var sink int32
	for i := 0; i < b.N; i++ {
		sink += g.Next()
	}
	_ = sink
}

// BenchmarkClockSaturated measures the wall cost of one Clock call on a
// fully loaded device.
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

func benchClockSaturated(b *testing.B, probe *obs.Probe) {
	cfg := core.Table1Configs()[0]
	h, err := eval.BuildSimple(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := eval.RandomWorkload(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	// Preload the crossbar queues.
	refill := func() {
		for link := 0; link < cfg.NumLinks; link++ {
			for {
				a := gen.Next()
				words, err := h.BuildRequestPacket(packet.Request{
					CUB: 0, Addr: a.Addr, Tag: uint16(link), Cmd: packet.CmdRD64,
				}, link)
				if err != nil {
					b.Fatal(err)
				}
				if h.Send(0, link, words) != nil {
					break
				}
			}
		}
	}
	refill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Clock(); err != nil {
			b.Fatal(err)
		}
		if probe != nil {
			probe.Set(h.Clk(), uint64(i), uint64(i))
		}
		b.StopTimer()
		for link := 0; link < cfg.NumLinks; link++ {
			for {
				if _, err := h.Recv(0, link); err != nil {
					break
				}
			}
		}
		refill()
		b.StartTimer()
	}
}

func sizeName(n int) string {
	if n == 0 {
		return "Unbounded"
	}
	digits := []byte{}
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}
