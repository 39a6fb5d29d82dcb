package cpu

import (
	"errors"
	"fmt"
	"testing"

	"hmcsim/internal/core"
	"hmcsim/internal/ddrsim"
	"hmcsim/internal/eval"
	"hmcsim/internal/fault"
	"hmcsim/internal/host"
	"hmcsim/internal/workload"
)

// hmcBackend is the HMC engine's host driver with posted stores.
func hmcBackend(t *testing.T) *host.Driver {
	t.Helper()
	h, err := eval.BuildSimple(core.Config{
		NumDevs: 1, NumLinks: 4, NumVaults: 16, QueueDepth: 32,
		NumBanks: 8, NumDRAMs: 20, CapacityGB: 2, XbarDepth: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := host.NewDriver(h, host.Options{Posted: true})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func ddrBackend(t *testing.T) *ddrsim.DDR {
	t.Helper()
	d, err := ddrsim.New(ddrsim.DDR3_1600(2))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func gen(t *testing.T) workload.Generator {
	t.Helper()
	g, err := workload.NewRandomAccess(1, 1<<28, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConfigValidate(t *testing.T) {
	good := Config{MLP: 8, MemPercent: 30, LoadPercent: 70, BlockingPercent: 10}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{MLP: 0, MemPercent: 30},
		{MLP: 4, MemPercent: 101},
		{MLP: 4, LoadPercent: -1},
		{MLP: 4, BlockingPercent: 200},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := New(good, nil, nil); err == nil {
		t.Error("New accepted nil backend")
	}
}

func TestComputeOnlyCPIIsOne(t *testing.T) {
	c, err := New(Config{MLP: 8, MemPercent: 0, LoadPercent: 100}, hmcBackend(t), gen(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 1000 || res.MemOps != 0 {
		t.Fatalf("insts=%d mem=%d", res.Instructions, res.MemOps)
	}
	if res.CPI() != 1.0 {
		t.Errorf("compute-only CPI = %v, want exactly 1", res.CPI())
	}
}

func TestDecoupledLoadsStayNearOneCPI(t *testing.T) {
	// With a deep window and no dependent loads, HMC memory latency hides
	// almost completely.
	c, err := New(Config{MLP: 64, MemPercent: 40, LoadPercent: 100, BlockingPercent: 0},
		hmcBackend(t), gen(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(4000)
	if err != nil {
		t.Fatal(err)
	}
	if cpi := res.CPI(); cpi > 1.3 {
		t.Errorf("decoupled CPI = %.3f, want near 1", cpi)
	}
	if res.Loads == 0 {
		t.Error("no loads issued")
	}
}

func TestPointerChaseCPITracksLatency(t *testing.T) {
	// Fully blocking loads expose round-trip latency. Against the DDR
	// baseline (tRCD+tCAS+burst per cold access) CPI rises far above 1;
	// against the lightly loaded HMC (single-cycle unloaded round trip)
	// the chase stays near 1 — exactly the contrast the stacked-memory
	// architecture promises for latency-bound codes.
	chase := Config{MLP: 64, MemPercent: 50, LoadPercent: 100, BlockingPercent: 100}
	c, err := New(chase, ddrBackend(t), gen(t))
	if err != nil {
		t.Fatal(err)
	}
	ddrRes, err := c.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	if cpi := ddrRes.CPI(); cpi < 3 {
		t.Errorf("DDR pointer-chase CPI = %.3f, want well above 1", cpi)
	}
	if ddrRes.StallDepend == 0 {
		t.Error("no dependence stalls recorded on DDR")
	}

	c, err = New(chase, hmcBackend(t), gen(t))
	if err != nil {
		t.Fatal(err)
	}
	hmcRes, err := c.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	if hmcRes.CPI() >= ddrRes.CPI() {
		t.Errorf("HMC chase CPI %.2f not better than DDR %.2f", hmcRes.CPI(), ddrRes.CPI())
	}
}

func TestBlockingMonotonicity(t *testing.T) {
	run := func(blocking int) float64 {
		c, err := New(Config{MLP: 32, MemPercent: 40, LoadPercent: 100, BlockingPercent: blocking},
			hmcBackend(t), gen(t))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(3000)
		if err != nil {
			t.Fatal(err)
		}
		return res.CPI()
	}
	c0, c50, c100 := run(0), run(50), run(100)
	if !(c0 <= c50 && c50 <= c100) {
		t.Errorf("CPI not monotone in blocking fraction: %v %v %v", c0, c50, c100)
	}
}

func TestMLPWindowMatters(t *testing.T) {
	// Against the slow DDR baseline, a wider window overlaps more misses.
	run := func(mlp int) float64 {
		c, err := New(Config{MLP: mlp, MemPercent: 50, LoadPercent: 100, BlockingPercent: 0},
			ddrBackend(t), gen(t))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(2000)
		if err != nil {
			t.Fatal(err)
		}
		return res.CPI()
	}
	narrow, wide := run(1), run(32)
	if wide >= narrow {
		t.Errorf("MLP=32 CPI %.2f not better than MLP=1 CPI %.2f", wide, narrow)
	}
}

func TestHMCBeatsDDROnRandomLoads(t *testing.T) {
	mk := func(mem Memory) float64 {
		c, err := New(Config{MLP: 32, MemPercent: 60, LoadPercent: 100, BlockingPercent: 0},
			mem, gen(t))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(3000)
		if err != nil {
			t.Fatal(err)
		}
		return res.CPI()
	}
	hmcCPI := mk(hmcBackend(t))
	ddrCPI := mk(ddrBackend(t))
	if hmcCPI >= ddrCPI {
		t.Errorf("HMC CPI %.2f not better than DDR CPI %.2f on random loads", hmcCPI, ddrCPI)
	}
}

func TestStoresArePosted(t *testing.T) {
	c, err := New(Config{MLP: 8, MemPercent: 50, LoadPercent: 0},
		hmcBackend(t), gen(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stores == 0 || res.Loads != 0 {
		t.Fatalf("loads=%d stores=%d", res.Loads, res.Stores)
	}
	// Posted stores never block: CPI stays at 1 apart from issue stalls.
	if cpi := res.CPI(); cpi > 1.2 {
		t.Errorf("store-only CPI = %.3f", cpi)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Result {
		c, err := New(Config{MLP: 16, MemPercent: 40, LoadPercent: 80, BlockingPercent: 20, Seed: 5},
			hmcBackend(t), gen(t))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(2000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); a != b {
		t.Errorf("CPU runs not deterministic: %+v vs %+v", a, b)
	}
}

// errMemory fails its Tick after a few cycles to exercise error
// propagation.
type errMemory struct{ ticks int }

func (m *errMemory) Issue(a workload.Access) (uint64, bool) { return 1, true }
func (m *errMemory) Tick() ([]uint64, error) {
	m.ticks++
	if m.ticks > 3 {
		return nil, errBoom
	}
	return nil, nil
}
func (m *errMemory) OutstandingLimit() int { return 64 }

var errBoom = fmt.Errorf("backend boom")

func TestBackendErrorPropagates(t *testing.T) {
	c, err := New(Config{MLP: 4, MemPercent: 100, LoadPercent: 100}, &errMemory{}, gen(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(100); err == nil {
		t.Error("backend error swallowed")
	}
}

// TestMemOpMixIndependentOfBackend pins that backpressure stalls a
// memory instruction rather than redrawing it: the same seed yields the
// same memory, load and store counts on the HMC and on the far slower
// DDR baseline, however long each stalls.
func TestMemOpMixIndependentOfBackend(t *testing.T) {
	cfg := Config{MLP: 1, MemPercent: 40, LoadPercent: 80, Seed: 7}
	run := func(mem Memory) Result {
		c, err := New(cfg, mem, gen(t))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(5000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	h, d := run(hmcBackend(t)), run(ddrBackend(t))
	if h.MemOps != d.MemOps || h.Loads != d.Loads || h.Stores != d.Stores {
		t.Errorf("HMC mem/loads/stores %d/%d/%d, DDR %d/%d/%d",
			h.MemOps, h.Loads, h.Stores, d.MemOps, d.Loads, d.Stores)
	}
	if d.StallMLP == 0 {
		t.Error("DDR at MLP 1 never stalled: the case exercises no backpressure")
	}
}

// TestIssueErrorSurfaces runs a core over a device whose host links have
// all failed: the driver's refusal must end the run with its error, not
// stall it forever.
func TestIssueErrorSurfaces(t *testing.T) {
	cfg := core.Table1Configs()[0]
	for l := range cfg.NumLinks {
		cfg.Fault.FailedLinks = append(cfg.Fault.FailedLinks, fault.LinkID{Dev: 0, Link: l})
	}
	h, err := eval.BuildSimple(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := host.NewDriver(h, host.Options{Posted: true})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{MLP: 8, MemPercent: 40, LoadPercent: 80}, d, gen(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(1000); !errors.Is(err, host.ErrAllLinksFailed) {
		t.Fatalf("Run = %v, want %v", err, host.ErrAllLinksFailed)
	}
}

// TestStreamOverDriverEqualsRun pins that the driver's Memory face is the
// same host as its Run loop: on every Table I configuration Stream
// measures the cycles, requests and latency distribution Run does.
func TestStreamOverDriverEqualsRun(t *testing.T) {
	const n = 1 << 14
	for _, cfg := range core.Table1Configs() {
		want, err := eval.RunRandom(cfg, n, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		h, err := eval.BuildSimple(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d, err := host.NewDriver(h, host.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := eval.RandomWorkload(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Stream(d, g, n)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != want.Cycles || got.Sent != want.Sent || got.Latency != want.Latency {
			t.Errorf("%v: Stream %d cycles, %d sent, mean latency %.3f; Run %d, %d, %.3f",
				cfg, got.Cycles, got.Sent, got.Latency.Mean(), want.Cycles, want.Sent, want.Latency.Mean())
		}
	}
}
