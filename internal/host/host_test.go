package host

import (
	"testing"

	"hmcsim/internal/core"
	"hmcsim/internal/fault"
	"hmcsim/internal/topo"
	"hmcsim/internal/workload"
)

func smallConfig() core.Config {
	return core.Config{
		NumDevs: 1, NumLinks: 4, NumVaults: 16, QueueDepth: 16,
		NumBanks: 8, NumDRAMs: 20, CapacityGB: 2, XbarDepth: 32,
	}
}

func newSimpleHMC(t *testing.T, cfg core.Config) *core.HMC {
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

func TestDriverRequiresHostLinks(t *testing.T) {
	cfg := smallConfig()
	cfg.NumDevs = 2
	h, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := topo.Chain(2, 4)
	if err := h.UseTopology(ch); err != nil {
		t.Fatal(err)
	}
	// Device 1 in a chain has no host links.
	if _, err := NewDriver(h, Options{Dev: 1}); err == nil {
		t.Error("NewDriver accepted a device with no host links")
	}
	if _, err := NewDriver(h, Options{Dev: 0}); err != nil {
		t.Errorf("NewDriver(dev 0): %v", err)
	}
}

func TestDriverRandomRun(t *testing.T) {
	h := newSimpleHMC(t, smallConfig())
	d, err := NewDriver(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewRandomAccess(1, 1<<30, 64, 50)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	res, err := d.Run(gen, n)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != n {
		t.Errorf("sent %d, want %d", res.Sent, n)
	}
	if res.Completed != n {
		t.Errorf("completed %d, want %d (no posted traffic)", res.Completed, n)
	}
	if res.Errors != 0 {
		t.Errorf("errors = %d", res.Errors)
	}
	if res.Cycles == 0 || res.Cycles > n {
		t.Errorf("cycles = %d out of plausible range", res.Cycles)
	}
	if res.Engine.Serviced() != n {
		t.Errorf("engine serviced %d", res.Engine.Serviced())
	}
	// Roughly half the traffic should be writes.
	w := res.Engine.Writes
	if w < n*3/10 || w > n*7/10 {
		t.Errorf("writes = %d of %d", w, n)
	}
	if res.Latency.Count() != n {
		t.Errorf("latency observations = %d", res.Latency.Count())
	}
	if res.Latency.Min() < 1 {
		t.Errorf("minimum latency %d < 1 cycle", res.Latency.Min())
	}
	if res.Throughput() <= 0 {
		t.Error("non-positive throughput")
	}
}

func TestDriverPostedWrites(t *testing.T) {
	h := newSimpleHMC(t, smallConfig())
	d, err := NewDriver(h, Options{Posted: true})
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := workload.NewRandomAccess(2, 1<<28, 64, 100) // all writes
	const n = 2000
	res, err := d.Run(gen, n)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != n {
		t.Errorf("sent %d", res.Sent)
	}
	if res.Completed != 0 {
		t.Errorf("completed %d responses for all-posted traffic", res.Completed)
	}
	if res.Engine.Posted != n {
		t.Errorf("engine posted = %d", res.Engine.Posted)
	}
}

func TestDriverDeterministic(t *testing.T) {
	run := func() Result {
		h := newSimpleHMC(t, smallConfig())
		d, err := NewDriver(h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		gen, _ := workload.NewRandomAccess(7, 1<<30, 64, 50)
		res, err := d.Run(gen, 3000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Engine != b.Engine {
		t.Errorf("driver runs not deterministic: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

func TestDriverLocalitySelectorReducesLatencyEvents(t *testing.T) {
	// The paper's corollary: locality-aware host-side link routing reduces
	// internal latency penalties versus naive round-robin.
	run := func(localityAware bool) core.Stats {
		h := newSimpleHMC(t, smallConfig())
		var sel workload.LinkSelector
		if localityAware {
			sel = &workload.Locality{Map: h.Device(0).Map, NumLinks: 4}
		}
		d, err := NewDriver(h, Options{Select: sel})
		if err != nil {
			t.Fatal(err)
		}
		gen, _ := workload.NewRandomAccess(1, 1<<30, 64, 50)
		res, err := d.Run(gen, 4000)
		if err != nil {
			t.Fatal(err)
		}
		return res.Engine
	}
	rr := run(false)
	loc := run(true)
	if loc.LatencyEvents != 0 {
		t.Errorf("locality-aware routing still raised %d latency events", loc.LatencyEvents)
	}
	if rr.LatencyEvents == 0 {
		t.Error("round-robin raised no latency events (expected ~3/4 of traffic)")
	}
}

func TestDriverChainedDevices(t *testing.T) {
	cfg := smallConfig()
	cfg.NumDevs = 3
	h, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := topo.Chain(3, 4)
	if err := h.UseTopology(ch); err != nil {
		t.Fatal(err)
	}
	// Spread traffic across all three devices by address.
	d, err := NewDriver(h, Options{
		Dev: 0,
		Route: func(a workload.Access) (int, uint64) {
			return int(a.Addr>>20) % 3, a.Addr
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := workload.NewRandomAccess(5, 1<<30, 64, 50)
	const n = 2000
	res, err := d.Run(gen, n)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n || res.Errors != 0 {
		t.Fatalf("completed=%d errors=%d", res.Completed, res.Errors)
	}
	if res.Engine.RouteHops == 0 {
		t.Error("no route hops recorded for chained traffic")
	}
	// Remote requests take longer than local ones, so p99 must exceed the
	// minimum by the chain depth.
	if res.Latency.Max() < res.Latency.Min()+4 {
		t.Errorf("latency spread too small for a 3-chain: min=%d max=%d",
			res.Latency.Min(), res.Latency.Max())
	}
}

func TestDriverMaxCyclesAborts(t *testing.T) {
	cfg := smallConfig()
	cfg.NumDevs = 2
	h, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Device 1 unreachable: requests to it produce error responses, which
	// still complete; instead force an abort with an absurdly low bound.
	for l := 0; l < 4; l++ {
		_ = h.ConnectHost(0, l)
	}
	d, err := NewDriver(h, Options{MaxCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := workload.NewRandomAccess(1, 1<<30, 64, 50)
	if _, err := d.Run(gen, 100000); err == nil {
		t.Error("Run did not abort at MaxCycles")
	}
}

func TestDriverErrorResponsesCounted(t *testing.T) {
	cfg := smallConfig()
	cfg.NumDevs = 2
	h, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 4; l++ {
		_ = h.ConnectHost(0, l)
	}
	// All traffic addressed to unreachable device 1.
	d, err := NewDriver(h, Options{Route: func(a workload.Access) (int, uint64) { return 1, a.Addr }})
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := workload.NewRandomAccess(1, 1<<28, 64, 0)
	res, err := d.Run(gen, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 200 {
		t.Errorf("errors = %d, want 200", res.Errors)
	}
}

func TestDriverFillData(t *testing.T) {
	cfg := smallConfig()
	cfg.StoreData = true
	h := newSimpleHMC(t, cfg)
	d, err := NewDriver(h, Options{
		FillData: func(a workload.Access, buf []uint64) {
			for i := range buf {
				buf[i] = 0xD00D
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := workload.NewStream(1, 1<<16, 64, 100) // all writes, sequential
	if _, err := d.Run(gen, 64); err != nil {
		t.Fatal(err)
	}
	dec := h.Device(0).Map.Decode(0)
	var got [2]uint64
	h.Device(0).Bank(dec.Vault, dec.Bank).Read(dec.DRAM, got[:])
	if got[0] != 0xD00D {
		t.Errorf("bank word = %#x, want 0xD00D", got[0])
	}
}

func TestOccupancySampling(t *testing.T) {
	h := newSimpleHMC(t, smallConfig())
	d, err := NewDriver(h, Options{SampleOccupancy: true})
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := workload.NewRandomAccess(1, 1<<30, 64, 50)
	res, err := d.Run(gen, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.VaultOccupancy.Count() != res.Cycles {
		t.Errorf("vault occupancy samples %d != cycles %d", res.VaultOccupancy.Count(), res.Cycles)
	}
	// Under saturating traffic the vault queues are busy.
	if res.VaultOccupancy.Mean() < 1 {
		t.Errorf("mean vault occupancy %.2f implausibly low", res.VaultOccupancy.Mean())
	}
	// Occupancy never exceeds capacity.
	cap := uint64(16 * 16) // vaults * queue depth
	if res.VaultOccupancy.Max() > cap {
		t.Errorf("vault occupancy %d exceeds capacity %d", res.VaultOccupancy.Max(), cap)
	}
	// Sampling off by default.
	d2, _ := NewDriver(newSimpleHMC(t, smallConfig()), Options{})
	gen2, _ := workload.NewRandomAccess(1, 1<<30, 64, 50)
	res2, err := d2.Run(gen2, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res2.VaultOccupancy.Count() != 0 {
		t.Error("occupancy sampled without the option")
	}
}

func TestWarmupExclusion(t *testing.T) {
	run := func(warmup uint64) Result {
		h := newSimpleHMC(t, smallConfig())
		d, err := NewDriver(h, Options{Warmup: warmup})
		if err != nil {
			t.Fatal(err)
		}
		gen, _ := workload.NewRandomAccess(3, 1<<30, 64, 50)
		res, err := d.Run(gen, 4000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := run(0)
	warm := run(1000)
	if warm.Sent != 4000 {
		t.Errorf("warm sent = %d", warm.Sent)
	}
	// The measurement window covers fewer cycles and fewer serviced
	// requests than the full run.
	if warm.Cycles >= cold.Cycles {
		t.Errorf("warmup did not shrink the window: %d vs %d cycles", warm.Cycles, cold.Cycles)
	}
	if warm.Engine.Serviced() >= cold.Engine.Serviced() {
		t.Errorf("warmup did not exclude serviced requests: %d vs %d",
			warm.Engine.Serviced(), cold.Engine.Serviced())
	}
	// The latency histogram only holds post-warm-up completions.
	if warm.Latency.Count() >= cold.Latency.Count() {
		t.Errorf("latency samples not trimmed: %d vs %d", warm.Latency.Count(), cold.Latency.Count())
	}
	if warm.Latency.Count() == 0 {
		t.Error("no measured latencies at all")
	}
}

func TestDriverStaticFailedHostLink(t *testing.T) {
	// A host link failed from reset is only applied on the first
	// simulation call, after the driver's own port census: both the
	// drain and inject paths must treat the late ErrLinkFailed as a
	// dead port, not a run failure.
	cfg := smallConfig()
	cfg.Fault.FailedLinks = []fault.LinkID{{Dev: 0, Link: 0}}
	h := newSimpleHMC(t, cfg)
	d, err := NewDriver(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewRandomAccess(1, 1<<30, 64, 50)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	res, err := d.Run(gen, n)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n {
		t.Errorf("completed %d/%d with a failed host link", res.Completed, n)
	}
	if res.Errors != 0 {
		t.Errorf("errors = %d", res.Errors)
	}
	if res.Engine.LinkFailures != 1 {
		t.Errorf("LinkFailures = %d, want 1", res.Engine.LinkFailures)
	}
}
