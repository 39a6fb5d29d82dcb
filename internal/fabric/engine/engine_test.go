package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/fnv"
	"testing"

	"hmcsim/internal/core"
	"hmcsim/internal/eval"
	"hmcsim/internal/fabric"
	"hmcsim/internal/fault"
	"hmcsim/internal/host"
	"hmcsim/internal/trace"
	"hmcsim/internal/workload"
)

// mesh2x2 is the acceptance-criterion fabric: four cubes in a 2x2 mesh
// with a multi-cycle link.
func mesh2x2() fabric.Spec {
	return fabric.Spec{Topology: fabric.TopoMesh, Rows: 2, Cols: 2, LinkLatency: 4}
}

func cubeConfig() core.Config {
	return core.Config{
		NumDevs: 1, NumLinks: 4, NumVaults: 16, QueueDepth: 8,
		NumBanks: 8, NumDRAMs: 20, CapacityGB: 1, XbarDepth: 16,
	}
}

func faultyConfig() core.Config {
	cfg := cubeConfig()
	cfg.Fault = fault.Config{TransientPPM: 20000, Seed: 7, MaxRetries: 4}
	return cfg
}

// fabricRun drives n requests through a freshly built fabric with full
// tracing and returns every observable the conformance contract pins.
type runOut struct {
	res          host.Result
	resultDigest uint64
	stateDigest  uint64
	totals       Totals
	trace        []byte
}

func fabricRun(t *testing.T, spec fabric.Spec, cfg core.Config, n uint64) runOut {
	t.Helper()
	sys, err := Build(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	sys.Engine().SetTracer(tw)
	sys.Engine().SetTraceMask(trace.MaskAll)
	d, err := sys.NewDriver(host.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewRandomAccess(11, sys.Capacity(), 64, 30)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(gen, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return runOut{
		res:          res,
		resultDigest: eval.ResultDigest(res),
		stateDigest:  sys.Engine().StateDigest(),
		totals:       sys.Totals(),
		trace:        buf.Bytes(),
	}
}

// TestFabricConformance is the acceptance criterion of the fabric
// subsystem: a 2x2 mesh, four cubes, driven over the interleave — result
// digest, engine state digest, fabric traffic digest and a hash of the
// full text trace stream are pinned, with and without fault injection,
// on cube configurations carrying the ignored worker count.
func TestFabricConformance(t *testing.T) {
	pinned := map[string][4]uint64{ // result, state, fabric, trace
		"clean": {0xdc786cee54fc5de5, 0x0fcc76ab62b462db, 0xc2af754b5583f3f6, 0x743680243b205bbb},
		"fault": {0x51e6c26b77f1c24c, 0x271315e4d5c7be8d, 0xc2af754b5583f3f6, 0x8276f8a49c12bc9c},
	}
	for _, fc := range []struct {
		name string
		cfg  core.Config
	}{
		{"clean", cubeConfig()},
		{"fault", faultyConfig()},
	} {
		t.Run(fc.name, func(t *testing.T) {
			cfg := fc.cfg
			cfg.Workers = 4
			out := fabricRun(t, mesh2x2(), cfg, 1500)
			if out.totals.IntercubePackets == 0 || out.totals.Hops == 0 {
				t.Fatalf("no inter-cube traffic: %+v", out.totals)
			}
			tr := fnv.New64a()
			tr.Write(out.trace)
			got := [4]uint64{out.resultDigest, out.stateDigest, out.totals.Digest(), tr.Sum64()}
			if want := pinned[fc.name]; got != want {
				t.Errorf("result, state, fabric, trace digests %#x; pinned %#x", got, want)
			}
		})
	}
}

// TestFabricTraceCarriesCubeIDs checks the trace stream names every
// cube, not just the injection cube — events are attributable in a
// multi-cube system.
func TestFabricTraceCarriesCubeIDs(t *testing.T) {
	out := fabricRun(t, mesh2x2(), cubeConfig(), 800)
	sc := trace.NewScanner(bytes.NewReader(out.trace))
	seen := make(map[int]bool)
	for sc.Scan() {
		seen[sc.Event().Dev] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for cube := 0; cube < 4; cube++ {
		if !seen[cube] {
			t.Errorf("trace stream has no events from cube %d", cube)
		}
	}
}

// TestFabricTotalsShape sanity-checks the traffic census against the
// run's own counters: every request lands exactly once, the link census
// covers each mesh cable once, and remote completions match the
// off-cube delivery count.
func TestFabricTotalsShape(t *testing.T) {
	const n = 1200
	out := fabricRun(t, mesh2x2(), cubeConfig(), n)
	tls := out.totals
	if len(tls.Cubes) != 4 {
		t.Fatalf("%d cube entries, want 4", len(tls.Cubes))
	}
	var delivered, modes uint64
	for _, cs := range tls.Cubes {
		delivered += cs.Delivered
		modes += cs.Modes
	}
	if delivered+modes != n {
		t.Errorf("cubes delivered %d + modes %d, want %d requests", delivered, modes, n)
	}
	// A 2x2 mesh has exactly 4 cables, each carrying traffic both ways
	// under a uniform random workload.
	if len(tls.Links) != 4 {
		t.Fatalf("%d link entries, want 4: %+v", len(tls.Links), tls.Links)
	}
	// Dimension-order routing from inject cube 0 goes X first, so the
	// 0-1, 0-2 and 1-3 cables carry requests while 2-3 may stay idle;
	// require at least three busy cables rather than all four.
	busy := 0
	for _, lu := range tls.Links {
		if lu.FlitsAB > 0 || lu.FlitsBA > 0 {
			busy++
		}
	}
	if busy < 3 {
		t.Errorf("only %d of 4 cables carried traffic: %+v", busy, tls.Links)
	}
	if tls.Hops < tls.IntercubePackets {
		t.Errorf("hops %d < inter-cube packets %d", tls.Hops, tls.IntercubePackets)
	}
	if got := out.res.RemoteLatency.Count(); got == 0 {
		t.Error("no remote completions observed by the driver")
	}
}

// TestFabricSuspendResume suspends a fabric run mid-flight, serializes
// the checkpoint through JSON, resumes it in a freshly built system and
// requires every digest to match the uninterrupted run — checkpoints
// compose across cubes including in-flight inter-cube packets.
func TestFabricSuspendResume(t *testing.T) {
	const n = 1000
	spec := mesh2x2()
	ref := fabricRun(t, spec, faultyConfig(), n)

	build := func() *System {
		sys, err := Build(spec, faultyConfig())
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	// Suspend once the clock passes 50 cycles; capture the final
	// checkpoint through a JSON round trip, as the server store would.
	var saved *host.Checkpoint
	susSys, susOpts := build(), host.Options{}
	susOpts.Interrupt = func() error {
		if susSys.Engine().Clk() >= 50 {
			return host.ErrSuspended
		}
		return nil
	}
	susOpts.Checkpoint = func(ck *host.Checkpoint) error {
		raw, err := json.Marshal(ck)
		if err != nil {
			return err
		}
		saved = new(host.Checkpoint)
		return json.Unmarshal(raw, saved)
	}
	susD, err := susSys.NewDriver(susOpts)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewRandomAccess(11, susSys.Capacity(), 64, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := susD.Run(gen, n); !errors.Is(err, host.ErrSuspended) {
		t.Fatalf("suspended run returned %v, want ErrSuspended", err)
	}
	if saved == nil {
		t.Fatal("no checkpoint delivered on suspend")
	}

	resSys := build()
	resD, err := resSys.NewDriver(host.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := workload.NewRandomAccess(11, resSys.Capacity(), 64, 30)
	if err != nil {
		t.Fatal(err)
	}
	res, err := resD.Resume(gen2, n, saved)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := eval.ResultDigest(res), ref.resultDigest; got != want {
		t.Errorf("resumed result digest %016x, want %016x", got, want)
	}
	if got, want := resSys.Engine().StateDigest(), ref.stateDigest; got != want {
		t.Errorf("resumed state digest %016x, want %016x", got, want)
	}
	if got, want := resSys.Totals().Digest(), ref.totals.Digest(); got != want {
		t.Errorf("resumed fabric digest %016x, want %016x\n got %+v\nwant %+v",
			got, want, resSys.Totals(), ref.totals)
	}
}

// TestBuildRejectsBadSpec pins that construction surfaces spec errors.
func TestBuildRejectsBadSpec(t *testing.T) {
	if _, err := Build(fabric.Spec{Topology: "blob"}, cubeConfig()); err == nil {
		t.Error("bad topology built")
	}
	if _, err := Build(fabric.Spec{Topology: fabric.TopoMesh, Rows: 1, Cols: 1}, cubeConfig()); err == nil {
		t.Error("1x1 mesh built")
	}
}
