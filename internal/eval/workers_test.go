package eval

import (
	"testing"

	"hmcsim/internal/core"
	"hmcsim/internal/fault"
	"hmcsim/internal/host"
)

// runWorkers executes the random access harness against cfg with the
// given worker count, which the engine ignores, and returns the final
// architectural state digest, the result digest and the raw result.
func runWorkers(t *testing.T, cfg core.Config, workers int, requests uint64) (uint64, uint64, host.Result) {
	t.Helper()
	cfg.Workers = workers
	h, err := BuildSimple(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := RandomWorkload(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	d, err := host.NewDriver(h, host.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(gen, requests)
	if err != nil {
		t.Fatal(err)
	}
	return h.StateDigest(), ResultDigest(res), res
}

func TestTableIWorkersConformance(t *testing.T) {
	// The end-to-end determinism guarantee: the full Table I harness —
	// driver, workload generator and engine together — reproduces the
	// pinned StateDigest and ResultDigest on all four paper
	// configurations, with a worker count set that the engine ignores.
	// Request counts are sized per configuration (throughput differs by
	// config; see Table I) to cross 1250 cycles.
	requests := []uint64{165_000, 270_000, 300_000, 525_000}
	pinned := [][2]uint64{ // state, result
		{0x2f1b11ee7b6f5a02, 0x5f43292ad08b77dd},
		{0x26d451a414d0b172, 0x0713393fbcaffad5},
		{0xa454e8711f4dc57f, 0xe74033193c87edf0},
		{0xdc9581661b4f0930, 0x496f7b0940b329d0},
	}
	for i, cfg := range core.Table1Configs() {
		state, result, res := runWorkers(t, cfg, 8, requests[i])
		if res.Cycles < 1250 {
			t.Errorf("%v: only %d cycles simulated, want >= 1250 (undersized workload)", cfg, res.Cycles)
		}
		if got := [2]uint64{state, result}; got != pinned[i] {
			t.Errorf("%v: StateDigest, ResultDigest %#x; pinned %#x", cfg, got, pinned[i])
		}
	}
}

func TestTableIWorkersFaultConformance(t *testing.T) {
	// TestTableIWorkersConformance under transient link faults and vault
	// faults.
	cfg := core.Table1Configs()[0]
	cfg.Fault = fault.Config{TransientPPM: 5000, VaultPPM: 2000, Seed: 31, MaxRetries: 6}
	state, result, res := runWorkers(t, cfg, 4, 200_000)
	if res.Engine.PoisonedReads == 0 || res.Engine.LinkRetransmits == 0 {
		t.Fatalf("fault workload fired no faults: %+v", res.Engine)
	}
	if got, want := [2]uint64{state, result}, [2]uint64{0x7d6a65c098cd3e62, 0x5810c08c01fd7a87}; got != want {
		t.Errorf("StateDigest, ResultDigest %#x; pinned %#x", got, want)
	}
}
