package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hmcsim/internal/core"
	"hmcsim/internal/fabric"
	"hmcsim/internal/fault"
)

// fabricSpec is the acceptance-criterion job: a 2x2 mesh of four cubes
// driven through the block interleave.
func fabricSpec(name string, requests uint64) JobSpec {
	spec := testSpec(name, core.Table1Configs()[0], requests)
	spec.Fabric = &fabric.Spec{
		Topology: fabric.TopoMesh, Rows: 2, Cols: 2, LinkLatency: 4,
	}
	return spec
}

// TestFabricJobOverHTTP submits a 2x2 mesh fabric job through /v1 and
// checks the result carries the per-cube breakdown, fabric totals and
// digest, and that the manager's fabric metrics advanced.
func TestFabricJobOverHTTP(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 2, QueueDepth: 8})
	defer shutdownNow(t, m)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	body, _ := json.Marshal(fabricSpec("fabric-http", 2048))
	rsp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(rsp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()
	if rsp.StatusCode != http.StatusAccepted && rsp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", rsp.StatusCode)
	}
	waitTerminal(t, m, st.ID)

	r, err := http.Get(srv.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got Status
	if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if got.State != StateDone {
		t.Fatalf("job finished %s (%s)", got.State, got.Error)
	}
	f := got.Result.Fabric
	if f == nil {
		t.Fatal("fabric job result has no fabric block")
	}
	if f.Topology != fabric.TopoMesh || f.Cubes != 4 || len(f.PerCube) != 4 {
		t.Fatalf("fabric block %+v, want 4-cube mesh with per-cube rows", f)
	}
	if f.IntercubePackets == 0 || f.Hops == 0 {
		t.Errorf("no inter-cube traffic recorded: %+v", f)
	}
	if len(f.FabricDigest) != 16 {
		t.Errorf("fabric digest %q, want 16 hex chars", f.FabricDigest)
	}
	if f.RemoteCompleted == 0 || f.RemoteLatencyMean <= 0 {
		t.Errorf("remote latency not observed: %+v", f)
	}
	var delivered uint64
	for _, c := range f.PerCube {
		delivered += c.Delivered + c.Modes
	}
	if delivered != 2048 {
		t.Errorf("per-cube deliveries sum to %d, want 2048", delivered)
	}
	if len(f.Links) == 0 {
		t.Error("fabric block lists no link census")
	}

	// The fabric metrics advanced with the completed job.
	if v := m.fabricCubes.Value(); v != 4 {
		t.Errorf("fabric_cubes = %d, want 4", v)
	}
	if m.fabricHops.Value() == 0 || m.fabricPackets.Value() == 0 {
		t.Error("fabric hop/packet counters did not advance")
	}

	// A plain job leaves the fabric block out entirely.
	plain, err := Execute(context.Background(), testSpec("plain", core.Table1Configs()[0], 256))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Fabric != nil {
		t.Error("non-fabric job result carries a fabric block")
	}
}

// TestFabricWorkersDigestConformance is the fabric acceptance criterion
// at the service layer: a 2x2 mesh job that carries a worker count, which
// the engine ignores, keeps its pinned result, state and fabric digests,
// with and without fault injection.
func TestFabricWorkersDigestConformance(t *testing.T) {
	pinned := map[string][3]string{ // result, state, fabric
		"clean": {"1492674717e9ec8d", "8edef3aa758bf83c", "aa6d480b7750b077"},
		"fault": {"02666d92918d03b2", "8f8cc0274e952280", "aa6d480b7750b077"},
	}
	for _, faulty := range []bool{false, true} {
		name := "clean"
		if faulty {
			name = "fault"
		}
		t.Run(name, func(t *testing.T) {
			spec := fabricSpec("conf-"+name, 4096)
			spec.Config.Workers = 16
			if faulty {
				spec.Config.Fault = fault.Config{TransientPPM: 20000, Seed: 7, MaxRetries: 4}
			}
			got, err := Execute(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if got.Fabric == nil || got.Fabric.IntercubePackets == 0 {
				t.Fatalf("no fabric traffic: %+v", got.Fabric)
			}
			if d := [3]string{got.ResultDigest, got.StateDigest, got.Fabric.FabricDigest}; d != pinned[name] {
				t.Errorf("result, state, fabric digests %q; pinned %q", d, pinned[name])
			}
		})
	}
}

// TestFabricSuspendResumeService suspends a store-backed fabric job via
// shutdown mid-run and resumes it under a second manager over the same
// store: result, state and fabric digests all match an uninterrupted
// run. This is the fabric variant of TestSuspendResumeDigestIdentical.
func TestFabricSuspendResumeService(t *testing.T) {
	spec := fabricSpec("fabric-suspendable", 1<<18)
	ref, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	s := openStore(t, dir)
	m1 := NewManager(ManagerConfig{
		Workers: 1, QueueDepth: 4, Store: s, CheckpointEvery: 256,
	})
	st, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for m1.checkpoints.Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoints after 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	shutdownNow(t, m1)
	s.Close()

	s2 := openStore(t, dir)
	defer s2.Close()
	if !s2.HasCheckpoint(st.ID) {
		t.Fatal("suspended fabric job left no checkpoint")
	}
	m2 := NewManager(ManagerConfig{
		Workers: 1, QueueDepth: 4, Store: s2, CheckpointEvery: 256,
	})
	defer shutdownNow(t, m2)
	fin := waitTerminal(t, m2, st.ID)
	if fin.State != StateDone {
		t.Fatalf("resumed fabric job finished %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Result.ResultDigest != ref.ResultDigest {
		t.Errorf("resumed result digest %s != uninterrupted %s",
			fin.Result.ResultDigest, ref.ResultDigest)
	}
	if fin.Result.StateDigest != ref.StateDigest {
		t.Errorf("resumed state digest %s != uninterrupted %s",
			fin.Result.StateDigest, ref.StateDigest)
	}
	if fin.Result.Fabric == nil || ref.Fabric == nil {
		t.Fatalf("fabric block missing: resumed %v, reference %v", fin.Result.Fabric, ref.Fabric)
	}
	if fin.Result.Fabric.FabricDigest != ref.Fabric.FabricDigest {
		t.Errorf("resumed fabric digest %s != uninterrupted %s",
			fin.Result.Fabric.FabricDigest, ref.Fabric.FabricDigest)
	}
}
