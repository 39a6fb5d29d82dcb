package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"hmcsim/internal/core"
	"hmcsim/internal/fabric"
	"hmcsim/internal/server/api"
	"hmcsim/internal/server/cache"
)

// cacheMB is a budget comfortably larger than any test working set.
const cacheMB = 1 << 20

// TestCacheHitServesIdenticalResult runs a spec cold, resubmits it under
// a different name, and requires the hit to complete immediately with
// provenance "hit" and a digest-identical result — without simulating
// anything again.
func TestCacheHitServesIdenticalResult(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 2, QueueDepth: 8, CacheBytes: cacheMB})
	defer shutdownNow(t, m)

	spec := testSpec("cold", core.Table1Configs()[0], 512)
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	cold := waitTerminal(t, m, st.ID)
	if cold.State != StateDone {
		t.Fatalf("cold run finished %s (%s)", cold.State, cold.Error)
	}
	if cold.Result.Cache != "" {
		t.Errorf("cold result provenance = %q, want empty", cold.Result.Cache)
	}
	if cold.Result.SpecKey == "" {
		t.Error("cold result has no spec key")
	}
	cyclesAfterCold := m.cycles.Value()

	hot := spec
	hot.Name = "hot" // a label flip must not defeat the cache
	st2, err := m.Submit(hot)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone {
		t.Fatalf("hit submission returned state %s, want immediate done", st2.State)
	}
	r := st2.Result
	if r == nil || r.Cache != api.CacheHit {
		t.Fatalf("hit provenance = %+v, want cache=%q", r, api.CacheHit)
	}
	if r.SpecKey != cold.Result.SpecKey {
		t.Errorf("spec keys differ: %s vs %s", r.SpecKey, cold.Result.SpecKey)
	}
	if r.ResultDigest != cold.Result.ResultDigest || r.StateDigest != cold.Result.StateDigest ||
		r.Cycles != cold.Result.Cycles {
		t.Errorf("hit result diverged from cold: %+v vs %+v", r, cold.Result)
	}
	if got := m.cycles.Value(); got != cyclesAfterCold {
		t.Errorf("cache hit advanced cycles_simulated by %d", got-cyclesAfterCold)
	}
	if m.cacheHits.Value() != 1 || m.completed.Value() != 2 {
		t.Errorf("hits=%d completed=%d, want 1/2", m.cacheHits.Value(), m.completed.Value())
	}
}

// TestCacheHitFabricJob pins digest-equality of cached fabric results:
// the key covers the system graph, and the served copy carries the full
// fabric summary.
func TestCacheHitFabricJob(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 2, QueueDepth: 8, CacheBytes: cacheMB})
	defer shutdownNow(t, m)

	spec := testSpec("fabric-cold", core.Table1Configs()[0], 512)
	spec.Fabric = &fabric.Spec{Topology: fabric.TopoMesh, Rows: 2, Cols: 2}
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	cold := waitTerminal(t, m, st.ID)
	if cold.State != StateDone || cold.Result.Fabric == nil {
		t.Fatalf("cold fabric run: state=%s fabric=%v", cold.State, cold.Result.Fabric)
	}

	st2, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone || st2.Result.Cache != api.CacheHit {
		t.Fatalf("fabric resubmit: state=%s cache=%q", st2.State, st2.Result.Cache)
	}
	if st2.Result.ResultDigest != cold.Result.ResultDigest ||
		st2.Result.Fabric == nil || st2.Result.Fabric.Hops != cold.Result.Fabric.Hops {
		t.Errorf("cached fabric result diverged: %+v vs %+v", st2.Result, cold.Result)
	}

	// A semantically different fabric (deeper links) must miss.
	other := spec
	f := *spec.Fabric
	f.LinkLatency = 8
	other.Fabric = &f
	st3, err := m.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	if st3.State == StateDone {
		t.Fatal("different fabric spec served from cache")
	}
	waitTerminal(t, m, st3.ID)
}

// TestCacheVerifyAcrossWorkers runs with CacheVerify=1 so every hit
// reruns the simulation, across job-pool sizes. Every verification must
// agree with the cached digest.
func TestCacheVerifyAcrossWorkers(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			m := NewManager(ManagerConfig{
				Workers: workers, QueueDepth: 32,
				CacheBytes: cacheMB, CacheVerify: 1.0,
			})
			defer shutdownNow(t, m)

			spec := testSpec("verify", core.Table1Configs()[1], 512)
			st, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			cold := waitTerminal(t, m, st.ID)
			if cold.State != StateDone {
				t.Fatalf("cold run failed: %s", cold.Error)
			}
			for i := 0; i < 3; i++ {
				st2, err := m.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				ver := waitTerminal(t, m, st2.ID)
				if ver.State != StateDone {
					t.Fatalf("verify rerun %d failed: %s", i, ver.Error)
				}
				if ver.Result.Cache != api.CacheVerified {
					t.Errorf("rerun %d provenance = %q, want %q", i, ver.Result.Cache, api.CacheVerified)
				}
				if ver.Result.ResultDigest != cold.Result.ResultDigest {
					t.Errorf("rerun %d digest %s != cold %s", i, ver.Result.ResultDigest, cold.Result.ResultDigest)
				}
			}
			if m.verifyFails.Value() != 0 {
				t.Errorf("verify failures = %d, want 0", m.verifyFails.Value())
			}
		})
	}
}

// TestCacheVerifyMismatchFailsLoudly forges a poisoned cache entry and
// checks that the sampled re-execution evicts it and fails the job.
func TestCacheVerifyMismatchFailsLoudly(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 8, CacheBytes: cacheMB, CacheVerify: 1.0})
	defer shutdownNow(t, m)

	spec := testSpec("poison", core.Table1Configs()[0], 256)
	key := cache.JobKey(spec)
	m.cache.Put(key, &Result{ResultDigest: "not-the-real-digest", Cycles: 1}, 0)

	st, err := m.Submit(spec) // hit, sampled for verification
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, st.ID)
	if fin.State != StateFailed {
		t.Fatalf("poisoned verify finished %s, want failed", fin.State)
	}
	if m.verifyFails.Value() != 1 {
		t.Errorf("verify failures = %d, want 1", m.verifyFails.Value())
	}
	if m.cache.Contains(key) {
		t.Error("poisoned entry survived the mismatch")
	}
}

// gatedRun builds a runFn whose executions block until release is
// closed (or a per-run verdict arrives on errs, when non-nil).
func gatedRun(calls *atomic.Int64, started chan<- string, errs <-chan error) func(context.Context, JobSpec, ExecOptions) (Result, error) {
	return func(ctx context.Context, spec JobSpec, eo ExecOptions) (Result, error) {
		calls.Add(1)
		started <- spec.Name
		var err error
		if errs != nil {
			select {
			case err = <-errs:
			case <-ctx.Done():
				return Result{}, ctx.Err()
			}
		}
		if err != nil {
			return Result{}, err
		}
		return Result{
			Cycles: 7, Sent: spec.Requests, Completed: spec.Requests,
			ResultDigest: "00000000feedface", StateDigest: "00000000deadbeef",
		}, nil
	}
}

// TestCancelFollowerDoesNotDisturbLeader cancels one follower of a
// running leader: the leader and the remaining followers must complete,
// the cancelled follower must settle cancelled, and the lifecycle
// counters must reconcile exactly:
// submitted = completed + failed + cancelled + coalesced.
func TestCancelFollowerDoesNotDisturbLeader(t *testing.T) {
	var calls atomic.Int64
	started := make(chan string, 16)
	verdicts := make(chan error, 16)
	m := NewManager(ManagerConfig{
		Workers: 2, QueueDepth: 16, CacheBytes: cacheMB,
		runFn: gatedRun(&calls, started, verdicts),
	})
	defer shutdownNow(t, m)

	spec := testSpec("leader", core.Table1Configs()[0], 64)
	lead, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := <-started; got != "leader" {
		t.Fatalf("first run is %q", got)
	}

	var followers []string
	for i := 0; i < 3; i++ {
		s := spec
		s.Name = fmt.Sprintf("follower-%d", i)
		st, err := m.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateQueued {
			t.Fatalf("follower %d state %s, want queued behind the leader", i, st.State)
		}
		followers = append(followers, st.ID)
	}
	if calls.Load() != 1 {
		t.Fatalf("followers started their own runs: %d calls", calls.Load())
	}

	if _, err := m.Cancel(followers[1]); err != nil {
		t.Fatalf("cancel follower: %v", err)
	}
	verdicts <- nil // release the leader, successfully

	fin := waitTerminal(t, m, lead.ID)
	if fin.State != StateDone || fin.Result.Cache != "" {
		t.Fatalf("leader finished %s cache=%q", fin.State, fin.Result.Cache)
	}
	for i, id := range followers {
		st := waitTerminal(t, m, id)
		switch {
		case i == 1:
			if st.State != StateCancelled {
				t.Errorf("cancelled follower finished %s", st.State)
			}
		default:
			if st.State != StateDone || st.Result.Cache != api.CacheCoalesced {
				t.Errorf("follower %d: state=%s cache=%q err=%q", i, st.State, st.Result.Cache, st.Error)
			}
			if st.Result.ResultDigest != fin.Result.ResultDigest {
				t.Errorf("follower %d digest %s != leader %s", i, st.Result.ResultDigest, fin.Result.ResultDigest)
			}
		}
	}
	if calls.Load() != 1 {
		t.Errorf("coalesced batch ran %d simulations, want 1", calls.Load())
	}
	sub, comp, failed, canc, coal := m.submitted.Value(), m.completed.Value(),
		m.failed.Value(), m.cancelledN.Value(), m.coalesced.Value()
	if sub != comp+failed+canc+coal {
		t.Errorf("counters do not reconcile: submitted %d != completed %d + failed %d + cancelled %d + coalesced %d",
			sub, comp, failed, canc, coal)
	}
	if coal != 2 || canc != 1 || comp != 1 {
		t.Errorf("coalesced=%d cancelled=%d completed=%d, want 2/1/1", coal, canc, comp)
	}
}

// TestLeaderFailurePromotesFollower fails a leader permanently and
// requires the first surviving follower to be promoted and run — no
// follower is stranded behind a leader that produced no result.
func TestLeaderFailurePromotesFollower(t *testing.T) {
	var calls atomic.Int64
	started := make(chan string, 16)
	verdicts := make(chan error, 16)
	m := NewManager(ManagerConfig{
		Workers: 2, QueueDepth: 16, CacheBytes: cacheMB,
		runFn: gatedRun(&calls, started, verdicts),
	})
	defer shutdownNow(t, m)

	spec := testSpec("doomed-leader", core.Table1Configs()[0], 64)
	lead, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started

	var followers []string
	for i := 0; i < 2; i++ {
		s := spec
		s.Name = fmt.Sprintf("survivor-%d", i)
		st, err := m.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		followers = append(followers, st.ID)
	}
	verdicts <- errors.New("simulated permanent failure")

	// The promoted follower starts a run of its own.
	if got := <-started; got != "survivor-0" {
		t.Fatalf("promoted run is %q, want survivor-0", got)
	}
	verdicts <- nil

	if st := waitTerminal(t, m, lead.ID); st.State != StateFailed {
		t.Fatalf("doomed leader finished %s", st.State)
	}
	if st := waitTerminal(t, m, followers[0]); st.State != StateDone || st.Result.Cache != "" {
		t.Errorf("promoted follower: state=%s cache=%q err=%q", st.State, st.Result.Cache, st.Error)
	}
	if st := waitTerminal(t, m, followers[1]); st.State != StateDone || st.Result.Cache != api.CacheCoalesced {
		t.Errorf("re-attached follower: state=%s cache=%q err=%q", st.State, st.Result.Cache, st.Error)
	}
	if calls.Load() != 2 {
		t.Errorf("ran %d simulations, want 2 (failed leader + promoted follower)", calls.Load())
	}
	sub, comp, failed, canc, coal := m.submitted.Value(), m.completed.Value(),
		m.failed.Value(), m.cancelledN.Value(), m.coalesced.Value()
	if sub != comp+failed+canc+coal {
		t.Errorf("counters do not reconcile: %d != %d+%d+%d+%d", sub, comp, failed, canc, coal)
	}
}

// TestCacheEvictionUnderBudget sizes the budget for exactly one entry
// and walks an A, B, A, A pattern: B evicts A, the A resubmit reruns
// (and evicts B), the final A is a hit.
func TestCacheEvictionUnderBudget(t *testing.T) {
	var calls atomic.Int64
	started := make(chan string, 64)
	probe := NewManager(ManagerConfig{
		Workers: 1, QueueDepth: 8, CacheBytes: cacheMB,
		runFn: gatedRun(&calls, started, nil),
	})
	specA := testSpec("a", core.Table1Configs()[0], 64)
	specB := testSpec("b", core.Table1Configs()[0], 64)
	specB.Workload.Seed = 99
	st, err := probe.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	waitTerminal(t, probe, st.ID)
	entrySize := probe.cache.Bytes()
	if entrySize <= 0 {
		t.Fatalf("probe cached nothing")
	}
	shutdownNow(t, probe)

	calls.Store(0)
	m := NewManager(ManagerConfig{
		Workers: 1, QueueDepth: 8, CacheBytes: entrySize + entrySize/2,
		runFn: gatedRun(&calls, started, nil),
	})
	defer shutdownNow(t, m)
	for _, step := range []struct {
		spec    JobSpec
		wantHit bool
	}{
		{specA, false}, // cold
		{specB, false}, // cold; evicts A
		{specA, false}, // rerun; evicts B
		{specA, true},  // hit
	} {
		st, err := m.Submit(step.spec)
		if err != nil {
			t.Fatal(err)
		}
		if !step.wantHit {
			<-started
		}
		fin := waitTerminal(t, m, st.ID)
		if fin.State != StateDone {
			t.Fatalf("step %q failed: %s", step.spec.Name, fin.Error)
		}
		if gotHit := fin.Result.Cache == api.CacheHit; gotHit != step.wantHit {
			t.Errorf("step %q: hit=%v, want %v", step.spec.Name, gotHit, step.wantHit)
		}
	}
	if calls.Load() != 3 {
		t.Errorf("ran %d simulations, want 3", calls.Load())
	}
	if m.cacheEvict.Value() != 2 {
		t.Errorf("evictions = %d, want 2", m.cacheEvict.Value())
	}
}

// TestCacheSmokeHTTP is the end-to-end smoke the CI cache-smoke target
// runs: three identical submissions over HTTP yield one simulation and
// two provenance-stamped hits, visible in the metrics exposition; then a
// burst of identical concurrent submissions of a fresh spec simulates
// once, every other copy served as a hit or coalesced.
func TestCacheSmokeHTTP(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 2, QueueDepth: 8, CacheBytes: cacheMB})
	defer shutdownNow(t, m)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	post := func(spec JobSpec) (Status, error) {
		body, _ := json.Marshal(spec)
		var st Status
		rsp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return st, err
		}
		defer rsp.Body.Close()
		return st, json.NewDecoder(rsp.Body).Decode(&st)
	}
	var digests []string
	for i := 0; i < 3; i++ {
		st, err := post(testSpec("smoke", core.Table1Configs()[0], 512))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && st.State != StateDone {
			t.Fatalf("submission %d not served from cache: %s", i, st.State)
		}
		fin := waitTerminal(t, m, st.ID)
		if fin.State != StateDone {
			t.Fatalf("submission %d failed: %s", i, fin.Error)
		}
		digests = append(digests, fin.Result.ResultDigest)
		want := ""
		if i > 0 {
			want = api.CacheHit
		}
		if fin.Result.Cache != want {
			t.Errorf("submission %d provenance %q, want %q", i, fin.Result.Cache, want)
		}
	}
	if digests[1] != digests[0] || digests[2] != digests[0] {
		t.Errorf("digests diverged: %v", digests)
	}

	rsp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	var vars map[string]any
	if err := json.NewDecoder(rsp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		"cache_hits": 2, "cache_misses": 1, "cache_entries": 1,
	} {
		if got, ok := vars[key].(float64); !ok || got != want {
			t.Errorf("metrics[%q] = %v, want %v", key, vars[key], want)
		}
	}
	if b, ok := vars["cache_bytes"].(float64); !ok || b <= 0 {
		t.Errorf("cache_bytes = %v, want > 0", vars["cache_bytes"])
	}
	if h, ok := vars["cache_lookup_seconds"].(map[string]any); !ok || h["count"].(float64) < 3 {
		t.Errorf("cache_lookup_seconds histogram missing or undercounted: %v", vars["cache_lookup_seconds"])
	}

	// Identical concurrent submissions of a spec not yet run: one
	// simulates, every other copy attaches to it or hits its result. The
	// job is long enough that copies arrive while it runs, so a broken
	// coalescer shows as extra simulations rather than as cache hits.
	const burst = 6
	ids := make([]string, burst)
	errs := make([]error, burst)
	var wg sync.WaitGroup
	for i := range burst {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := post(testSpec(fmt.Sprintf("burst-%d", i), core.Table1Configs()[1], 1<<16))
			ids[i], errs[i] = st.ID, err
		}()
	}
	wg.Wait()
	cold, served := 0, 0
	var burstDigest string
	for i, id := range ids {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		fin := waitTerminal(t, m, id)
		if fin.State != StateDone {
			t.Fatalf("burst copy %d failed: %s", i, fin.Error)
		}
		switch fin.Result.Cache {
		case "":
			cold++
		case api.CacheHit, api.CacheCoalesced:
			served++
		default:
			t.Errorf("burst copy %d provenance %q", i, fin.Result.Cache)
		}
		if burstDigest == "" {
			burstDigest = fin.Result.ResultDigest
		} else if fin.Result.ResultDigest != burstDigest {
			t.Errorf("burst copy %d digest %s, copy 0 %s", i, fin.Result.ResultDigest, burstDigest)
		}
	}
	if cold != 1 || served != burst-1 {
		t.Errorf("burst of %d: %d simulated, %d hits or coalesced; want 1 and %d", burst, cold, served, burst-1)
	}
}

// TestCacheDisabledByDefault pins the compatibility default: without a
// budget every submission runs, and results carry no cache annotations.
func TestCacheDisabledByDefault(t *testing.T) {
	var calls atomic.Int64
	started := make(chan string, 8)
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 8, runFn: gatedRun(&calls, started, nil)})
	defer shutdownNow(t, m)
	spec := testSpec("plain", core.Table1Configs()[0], 64)
	for i := 0; i < 2; i++ {
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-started
		fin := waitTerminal(t, m, st.ID)
		if fin.State != StateDone || fin.Result.Cache != "" || fin.Result.SpecKey != "" {
			t.Fatalf("run %d: state=%s cache=%q key=%q", i, fin.State, fin.Result.Cache, fin.Result.SpecKey)
		}
	}
	if calls.Load() != 2 {
		t.Errorf("ran %d simulations, want 2", calls.Load())
	}
}
