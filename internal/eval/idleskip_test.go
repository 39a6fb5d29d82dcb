package eval

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"hmcsim/internal/core"
	"hmcsim/internal/fabric"
	"hmcsim/internal/fabric/engine"
	"hmcsim/internal/fault"
	"hmcsim/internal/host"
	"hmcsim/internal/trace"
	"hmcsim/internal/workload"
)

// skipCase is one randomized spec of the idle-skip equivalence property.
type skipCase struct {
	spec  workload.Spec
	fault fault.Config
	gap   uint64
}

// skipCases derives n pseudo-random sparse specs from the loop index
// alone, so the set is stable across runs without seeding a test-local
// RNG: kinds, seeds, gaps and the fault dimension all rotate on coprime
// periods.
func skipCases(n int) []skipCase {
	kinds := []string{"random", "stream", "stride", "chase", "hotspot"}
	gaps := []uint64{32, 64, 200, 512}
	out := make([]skipCase, 0, n)
	for i := 0; i < n; i++ {
		c := skipCase{
			spec: workload.Spec{
				Kind: kinds[i%len(kinds)],
				Seed: uint32(i*2654435761 + 1),
				Size: 64,
			},
			gap: gaps[i%len(gaps)],
		}
		switch c.spec.Kind {
		case "stride":
			c.spec.StrideBytes = 4096
		case "hotspot":
			c.spec.HotBytes = 1 << 20
			c.spec.HotPercent = 80
		}
		if c.spec.Kind != "chase" {
			c.spec.WritePercent = 50
		}
		switch i % 3 {
		case 1:
			c.fault = fault.Config{TransientPPM: 5000, Seed: uint64(i + 1), MaxRetries: 4}
		case 2:
			c.fault = fault.Config{FailAt: []fault.TimedLinkFailure{
				{Cycle: uint64(500 + 100*i), Dev: 0, Link: 3},
			}}
		}
		out = append(out, c)
	}
	return out
}

// runSkipCase executes one spec and returns the result, the final
// engine snapshot and the full trace stream.
func runSkipCase(t *testing.T, c skipCase, n uint64, forceWalk bool) (host.Result, core.Snapshot, []trace.Event) {
	t.Helper()
	cfg := core.Config{
		NumDevs: 1, NumLinks: 4, NumVaults: 16, NumBanks: 8,
		NumDRAMs: 8, CapacityGB: 2, QueueDepth: 16, XbarDepth: 32,
		Fault: c.fault,
	}
	rec := &trace.Recorder{}
	h, err := BuildSimpleWithOptions(cfg, core.WithTrace(rec, trace.MaskAll))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := c.spec.Build(uint64(cfg.CapacityGB) << 30)
	if err != nil {
		t.Fatal(err)
	}
	d, err := host.NewDriver(h, host.Options{
		GapCycles:       c.gap,
		DisableIdleSkip: forceWalk,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(gen, n)
	if err != nil {
		t.Fatal(err)
	}
	return res, h.Snapshot(), rec.Events
}

// TestIdleSkipEquivalenceProperty is the randomized acceptance property
// of the event wheel: across random sparse specs — kinds, seeds, gaps
// and fault injection all varying — the wheel path and the walk-forced
// path produce bit-identical result digests, architectural state and
// full trace streams, differing only in the skip counters (which must
// be busy on the wheel side and zero on the walked side).
func TestIdleSkipEquivalenceProperty(t *testing.T) {
	const requests = 384
	for i, c := range skipCases(12) {
		c := c
		t.Run(fmt.Sprintf("case%02d_%s_gap%d", i, c.spec.Kind, c.gap), func(t *testing.T) {
			t.Parallel()
			wheelRes, wheelSnap, wheelTrace := runSkipCase(t, c, requests, false)
			walkRes, walkSnap, walkTrace := runSkipCase(t, c, requests, true)

			if wheelRes.IdleCyclesSkipped == 0 {
				t.Error("wheel path never skipped; the spec is not sparse enough to test anything")
			}
			if walkRes.IdleCyclesSkipped != 0 || walkRes.Wakeups != 0 {
				t.Errorf("walk-forced path reported skips: %d/%d",
					walkRes.IdleCyclesSkipped, walkRes.Wakeups)
			}
			if a, b := ResultDigest(wheelRes), ResultDigest(walkRes); a != b {
				t.Errorf("result digests differ: wheel %016x, walk %016x", a, b)
			}
			if wheelSnap != walkSnap {
				t.Errorf("snapshots differ:\n wheel %+v\n walk  %+v", wheelSnap, walkSnap)
			}
			if !reflect.DeepEqual(wheelTrace, walkTrace) {
				t.Errorf("trace streams differ: %d vs %d events; first divergence %+v",
					len(wheelTrace), len(walkTrace), firstTraceDiff(wheelTrace, walkTrace))
			}
		})
	}
}

// firstTraceDiff locates the first differing event of two streams, for
// failure messages.
func firstTraceDiff(a, b []trace.Event) any {
	for i := range a {
		if i >= len(b) {
			return fmt.Sprintf("index %d: %+v vs <missing>", i, a[i])
		}
		if a[i] != b[i] {
			return fmt.Sprintf("index %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(b) > len(a) {
		return fmt.Sprintf("index %d: <missing> vs %+v", len(a), b[len(a)])
	}
	return "streams equal"
}

// TestIdleSkipFabricEquivalence extends the property across a
// multi-cube fabric with LinkLatency > 1, the regime where the wheel
// must model in-flight dwell on inter-cube links: a packet travelling a
// cable is pure dead time until its arrival cycle, so the wheel may
// jump to exactly that cycle and no further. Wheel and walk-forced runs
// must agree on the result digest, the fabric traffic digest and the
// architectural snapshot.
func TestIdleSkipFabricEquivalence(t *testing.T) {
	cube := core.Config{
		NumLinks: 4, NumVaults: 16, NumBanks: 8,
		NumDRAMs: 8, CapacityGB: 2, QueueDepth: 16, XbarDepth: 32,
	}
	spec := fabric.Spec{
		Topology: fabric.TopoChain, Cubes: 4,
		LinkLatency: 6, InterleaveBytes: 128,
	}
	wl := workload.Spec{Kind: "random", Seed: 9, Size: 64, WritePercent: 50}
	const requests = 256

	run := func(forceWalk bool) (host.Result, core.Snapshot, uint64) {
		sys, err := engine.Build(spec, cube)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := wl.Build(sys.Capacity())
		if err != nil {
			t.Fatal(err)
		}
		d, err := sys.NewDriver(host.Options{GapCycles: 300, DisableIdleSkip: forceWalk})
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run(gen, requests)
		if err != nil {
			t.Fatal(err)
		}
		return res, sys.Engine().Snapshot(), sys.Totals().Digest()
	}

	wheelRes, wheelSnap, wheelFab := run(false)
	walkRes, walkSnap, walkFab := run(true)
	if wheelRes.IdleCyclesSkipped == 0 {
		t.Error("fabric wheel path never skipped; the dwell scenario is dead")
	}
	if a, b := ResultDigest(wheelRes), ResultDigest(walkRes); a != b {
		t.Errorf("fabric result digests differ: wheel %016x, walk %016x", a, b)
	}
	if wheelSnap != walkSnap {
		t.Errorf("fabric snapshots differ:\n wheel %+v\n walk  %+v", wheelSnap, walkSnap)
	}
	if wheelFab != walkFab {
		t.Errorf("fabric traffic digests differ: wheel %016x, walk %016x", wheelFab, walkFab)
	}
}

// TestIdleSkipSuspendResumeMidSkip pins the checkpoint half of the
// wheel contract: a gap-paced run suspended partway through its
// skip-heavy stretch and resumed into a fresh engine finishes with the
// result digest and architectural state of both the uninterrupted wheel
// run and the walk-forced run.
func TestIdleSkipSuspendResumeMidSkip(t *testing.T) {
	c := skipCase{
		spec: workload.Spec{Kind: "random", Seed: 77, Size: 64, WritePercent: 50},
		gap:  200,
		fault: fault.Config{FailAt: []fault.TimedLinkFailure{
			{Cycle: 30000, Dev: 0, Link: 2},
		}},
	}
	const requests = 384
	refRes, refSnap, _ := runSkipCase(t, c, requests, false)
	walkRes, _, _ := runSkipCase(t, c, requests, true)
	if refRes.IdleCyclesSkipped == 0 {
		t.Fatal("reference run never skipped; the scenario is dead")
	}

	cfg := core.Config{
		NumDevs: 1, NumLinks: 4, NumVaults: 16, NumBanks: 8,
		NumDRAMs: 8, CapacityGB: 2, QueueDepth: 16, XbarDepth: 32,
		Fault: c.fault,
	}
	build := func() (*core.HMC, workload.Generator) {
		h, err := BuildSimple(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := c.spec.Build(uint64(cfg.CapacityGB) << 30)
		if err != nil {
			t.Fatal(err)
		}
		return h, gen
	}

	// First leg: run with a cycle-triggered suspend landing inside the
	// skip-heavy region (well past warm-up, well before the drain tail).
	h1, gen1 := build()
	var ck *host.Checkpoint
	suspendAt := uint64(requests) * c.gap / 2
	d1, err := host.NewDriver(h1, host.Options{
		GapCycles: c.gap,
		Interrupt: func() error {
			if h1.Clk() >= suspendAt {
				return host.ErrSuspended
			}
			return nil
		},
		Checkpoint: func(k *host.Checkpoint) error { ck = k; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Run(gen1, requests); !errors.Is(err, host.ErrSuspended) {
		t.Fatalf("first leg = %v, want ErrSuspended", err)
	}
	if ck == nil {
		t.Fatal("suspend delivered no checkpoint")
	}
	if skipped := h1.SkipStats().IdleCyclesSkipped; skipped == 0 {
		t.Fatal("suspend landed before any skip; the mid-skip scenario is dead")
	}

	// Second leg: fresh engine, fresh generator, resume to completion.
	h2, gen2 := build()
	d2, err := host.NewDriver(h2, host.Options{GapCycles: c.gap})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d2.Resume(gen2, requests, ck)
	if err != nil {
		t.Fatal(err)
	}

	if a, b := ResultDigest(res), ResultDigest(refRes); a != b {
		t.Errorf("resumed result digest %016x != uninterrupted %016x", a, b)
	}
	if a, b := ResultDigest(res), ResultDigest(walkRes); a != b {
		t.Errorf("resumed result digest %016x != walk-forced %016x", a, b)
	}
	if snap := h2.Snapshot(); snap != refSnap {
		t.Errorf("resumed snapshot differs:\n resumed %+v\n ref     %+v", snap, refSnap)
	}
}
