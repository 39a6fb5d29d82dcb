package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hmcsim/internal/core"
	"hmcsim/internal/host"
	"hmcsim/internal/workload"
)

// testSpec is a small, fast fixed-seed job.
func testSpec(name string, cfg core.Config, requests uint64) JobSpec {
	return JobSpec{
		Name:     name,
		Config:   cfg,
		Workload: workload.TableISpec(1),
		Requests: requests,
	}
}

// waitTerminal polls until the job leaves the queue/run states.
func waitTerminal(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 60s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func shutdownNow(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestJobLifecycleHTTP(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 2, QueueDepth: 8})
	defer shutdownNow(t, m)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	spec := testSpec("lifecycle", core.Table1Configs()[0], 512)
	spec.Fig5Interval = 64
	body, _ := json.Marshal(spec)
	rsp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if rsp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", rsp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(rsp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()
	if st.ID == "" || (st.State != StateQueued && st.State != StateRunning) {
		t.Fatalf("unexpected initial status %+v", st)
	}

	fin := waitTerminal(t, m, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", fin.State, fin.Error)
	}
	r := fin.Result
	if r == nil {
		t.Fatal("done job has no result")
	}
	if r.Cycles == 0 || r.Sent != 512 || r.Completed == 0 {
		t.Errorf("implausible result %+v", r)
	}
	if len(r.ResultDigest) != 16 || len(r.StateDigest) != 16 {
		t.Errorf("digests not 16 hex chars: %q %q", r.ResultDigest, r.StateDigest)
	}
	if len(r.Fig5) == 0 {
		t.Error("fig5 series requested but absent")
	}

	// The status endpoint serves the same view.
	rsp, err = http.Get(srv.URL + "/api/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got Status
	if err := json.NewDecoder(rsp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()
	if got.State != StateDone || got.Result == nil || got.Result.ResultDigest != r.ResultDigest {
		t.Errorf("HTTP status mismatch: %+v", got)
	}

	// List includes the job; unknown IDs 404.
	rsp, err = http.Get(srv.URL + "/api/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()
	if rsp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", rsp.StatusCode)
	}
	if l := m.List(); len(l) != 1 || l[0].ID != st.ID {
		t.Errorf("List() = %+v", l)
	}
}

// TestDeterminismUnderConcurrency is the acceptance property the whole
// subsystem rests on: a fixed-seed job returns bit-identical result and
// state digests whether run alone or alongside 15 other jobs.
func TestDeterminismUnderConcurrency(t *testing.T) {
	const requests = 2048
	cfgs := core.Table1Configs()

	// Serial baselines, one per configuration.
	serial := make(map[string]Result)
	for _, cfg := range cfgs {
		res, err := Execute(context.Background(), testSpec("serial", cfg, requests))
		if err != nil {
			t.Fatalf("serial %v: %v", cfg, err)
		}
		serial[cfg.String()] = res
	}

	// 16 concurrent jobs: the four configurations, four replicas each.
	m := NewManager(ManagerConfig{Workers: 8, QueueDepth: 16})
	defer shutdownNow(t, m)
	var ids []string
	for r := 0; r < 4; r++ {
		for _, cfg := range cfgs {
			st, err := m.Submit(testSpec(fmt.Sprintf("%v #%d", cfg, r), cfg, requests))
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			ids = append(ids, st.ID)
		}
	}
	for _, id := range ids {
		st := waitTerminal(t, m, id)
		if st.State != StateDone {
			t.Fatalf("job %s (%s): %s (%s)", id, st.Name, st.State, st.Error)
		}
		want := serial[st.Result.Config]
		if st.Result.ResultDigest != want.ResultDigest {
			t.Errorf("%s (%s): result digest %s != serial %s",
				id, st.Result.Config, st.Result.ResultDigest, want.ResultDigest)
		}
		if st.Result.StateDigest != want.StateDigest {
			t.Errorf("%s (%s): state digest %s != serial %s",
				id, st.Result.Config, st.Result.StateDigest, want.StateDigest)
		}
		if st.Result.Cycles != want.Cycles {
			t.Errorf("%s (%s): cycles %d != serial %d",
				id, st.Result.Config, st.Result.Cycles, want.Cycles)
		}
	}
}

// TestExecuteSharesBuffersAcrossJobs runs 32 jobs over the four Table I
// configurations and a 2x2 mesh fabric on a 4-worker manager with the
// cache off. Each worker keeps every job's freed engine in its own set,
// and its next job with that spec takes it, with its packet buffers;
// every digest must still equal its spec's serial run. Under the race
// detector the test reports any holder of an engine or a buffer past the
// job that kept it, and any engine two workers share.
func TestExecuteSharesBuffersAcrossJobs(t *testing.T) {
	const requests = 4096
	var specs []JobSpec
	for _, cfg := range core.Table1Configs() {
		specs = append(specs, testSpec(cfg.String(), cfg, requests))
	}
	specs = append(specs, fabricSpec("mesh", requests))
	serial := make([]Result, len(specs))
	for i, spec := range specs {
		res, err := Execute(context.Background(), spec)
		if err != nil {
			t.Fatalf("serial %s: %v", spec.Name, err)
		}
		serial[i] = res
	}

	m := NewManager(ManagerConfig{Workers: 4, QueueDepth: 32})
	defer shutdownNow(t, m)
	ids := make([]string, 32)
	for j := range ids {
		st, err := m.Submit(specs[j%len(specs)])
		if err != nil {
			t.Fatalf("submit job %d: %v", j, err)
		}
		ids[j] = st.ID
	}
	for j, id := range ids {
		spec, want := specs[j%len(specs)], serial[j%len(specs)]
		st := waitTerminal(t, m, id)
		if st.State != StateDone {
			t.Fatalf("job %d (%s): %s (%s)", j, spec.Name, st.State, st.Error)
		}
		got := st.Result
		if got.ResultDigest != want.ResultDigest || got.StateDigest != want.StateDigest {
			t.Errorf("job %d (%s): digests %s/%s, serial %s/%s", j, spec.Name,
				got.ResultDigest, got.StateDigest, want.ResultDigest, want.StateDigest)
		}
		if want.Fabric != nil && (got.Fabric == nil || got.Fabric.FabricDigest != want.Fabric.FabricDigest) {
			t.Errorf("job %d (%s): fabric result %+v, serial %+v", j, spec.Name, got.Fabric, want.Fabric)
		}
	}
}

// blockingRun returns a runFn that parks jobs until release is closed.
func blockingRun(started chan<- string, release <-chan struct{}) func(context.Context, JobSpec, ExecOptions) (Result, error) {
	return func(ctx context.Context, spec JobSpec, _ ExecOptions) (Result, error) {
		if started != nil {
			started <- spec.Name
		}
		select {
		case <-release:
			return Result{Config: spec.Name, Cycles: 1, Sent: spec.Requests}, nil
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
	}
}

func TestBackpressure(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	m := NewManager(ManagerConfig{
		Workers: 1, QueueDepth: 1,
		runFn: blockingRun(started, release),
	})
	defer shutdownNow(t, m)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	cfg := core.Table1Configs()[0]
	// First job occupies the lone worker...
	if _, err := m.Submit(testSpec("running", cfg, 8)); err != nil {
		t.Fatal(err)
	}
	<-started
	// ...second fills the single queue slot...
	if _, err := m.Submit(testSpec("queued", cfg, 8)); err != nil {
		t.Fatal(err)
	}
	// ...third is rejected with explicit backpressure.
	_, err := m.Submit(testSpec("rejected", cfg, 8))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}

	// Over HTTP the same rejection is a 429 with Retry-After.
	body, _ := json.Marshal(testSpec("rejected-http", cfg, 8))
	rsp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()
	if rsp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("backpressured submit: HTTP %d, want 429", rsp.StatusCode)
	}
	if rsp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(release)
}

func TestCancelQueuedAndRunning(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	defer close(release)
	m := NewManager(ManagerConfig{
		Workers: 1, QueueDepth: 4,
		runFn: blockingRun(started, release),
	})
	defer shutdownNow(t, m)

	cfg := core.Table1Configs()[0]
	run, err := m.Submit(testSpec("running", cfg, 8))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.Submit(testSpec("queued", cfg, 8))
	if err != nil {
		t.Fatal(err)
	}

	// Cancelling the queued job settles it immediately, without a run.
	st, err := m.Cancel(queued.ID)
	if err != nil || st.State != StateCancelled {
		t.Fatalf("cancel queued: %+v, %v", st, err)
	}
	// Cancelling the running job interrupts its context.
	if _, err := m.Cancel(run.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	fin := waitTerminal(t, m, run.ID)
	if fin.State != StateCancelled {
		t.Fatalf("running job settled %s, want cancelled", fin.State)
	}
	// Cancelling a finished job is a conflict.
	if _, err := m.Cancel(run.ID); !errors.Is(err, ErrJobFinished) {
		t.Fatalf("re-cancel: %v, want ErrJobFinished", err)
	}
	// The queued job never reached a worker; it must stay cancelled.
	if st, _ := m.Get(queued.ID); st.State != StateCancelled {
		t.Fatalf("queued job state %s after drain", st.State)
	}
}

func TestTimeoutFailsJob(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 2})
	defer shutdownNow(t, m)
	// A paper-scale request count cannot finish in 10ms of wall time;
	// the per-job deadline must fail the job, not wedge the worker.
	spec := testSpec("timeout", core.Table1Configs()[0], 1<<22)
	spec.TimeoutMS = 10
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, st.ID)
	if fin.State != StateFailed {
		t.Fatalf("timed-out job settled %s (%s), want failed", fin.State, fin.Error)
	}
	if !strings.Contains(fin.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", fin.Error)
	}
	// The worker survives: a small follow-up job completes.
	st2, err := m.Submit(testSpec("after-timeout", core.Table1Configs()[0], 256))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, m, st2.ID); fin.State != StateDone {
		t.Fatalf("follow-up job %s (%s)", fin.State, fin.Error)
	}
}

func TestPanicRecoveryFailsOnlyTheJob(t *testing.T) {
	var calls int32
	m := NewManager(ManagerConfig{
		Workers: 1, QueueDepth: 4,
		runFn: func(ctx context.Context, spec JobSpec, _ ExecOptions) (Result, error) {
			if spec.Name == "bomb" {
				panic("boom")
			}
			calls++
			return Result{Config: spec.Name, Cycles: 1}, nil
		},
	})
	defer shutdownNow(t, m)

	cfg := core.Table1Configs()[0]
	bomb, err := m.Submit(testSpec("bomb", cfg, 8))
	if err != nil {
		t.Fatal(err)
	}
	after, err := m.Submit(testSpec("after", cfg, 8))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, bomb.ID)
	if fin.State != StateFailed || !strings.Contains(fin.Error, "panic") {
		t.Fatalf("panicking job settled %s (%q), want failed panic", fin.State, fin.Error)
	}
	if fin := waitTerminal(t, m, after.ID); fin.State != StateDone {
		t.Fatalf("job after panic settled %s (%s), want done", fin.State, fin.Error)
	}
}

func TestShutdownDrainsInFlightJobs(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 2, QueueDepth: 8})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	cfg := core.Table1Configs()[0]
	var ids []string
	for i := 0; i < 6; i++ {
		st, err := m.Submit(testSpec(fmt.Sprintf("drain-%d", i), cfg, 1024))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	shutdownNow(t, m)

	// Every job — running or still queued at shutdown — completed.
	for _, id := range ids {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Errorf("job %s drained as %s (%s), want done", id, st.State, st.Error)
		}
	}
	// New work is rejected and health reports draining.
	if _, err := m.Submit(testSpec("late", cfg, 8)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown submit: %v, want ErrShuttingDown", err)
	}
	rsp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()
	if rsp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: HTTP %d, want 503", rsp.StatusCode)
	}
}

func TestShutdownDeadlineAbortsRunningJobs(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	m := NewManager(ManagerConfig{
		Workers: 1, QueueDepth: 2,
		runFn: blockingRun(nil, release),
	})
	st, err := m.Submit(testSpec("stuck", core.Table1Configs()[0], 8))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown: %v, want deadline exceeded", err)
	}
	fin, err := m.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !fin.State.Terminal() {
		t.Fatalf("stuck job still %s after forced shutdown", fin.State)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 2, QueueDepth: 8})
	defer shutdownNow(t, m)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	st, err := m.Submit(testSpec("metrics", core.Table1Configs()[0], 512))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, st.ID)

	rsp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	var vars map[string]any
	if err := json.NewDecoder(rsp.Body).Decode(&vars); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	for _, key := range []string{
		"jobs_submitted", "jobs_completed", "jobs_failed", "jobs_cancelled",
		"jobs_rejected", "queue_depth", "queue_capacity", "workers",
		"active_workers", "cycles_simulated", "requests_simulated",
		"uptime_seconds", "cycles_per_second",
	} {
		if _, ok := vars[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	if vars["jobs_submitted"].(float64) < 1 || vars["jobs_completed"].(float64) < 1 {
		t.Errorf("counters did not advance: %v", vars)
	}
	if vars["cycles_simulated"].(float64) == 0 {
		t.Error("cycles_simulated stayed zero after a completed job")
	}
}

func TestSubmitValidation(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 2})
	defer shutdownNow(t, m)
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	cases := []JobSpec{
		{},                                // no config, no requests
		{Config: core.Table1Configs()[0]}, // no requests
		testSpec("bad-workload", core.Table1Configs()[0], 8),
	}
	cases[2].Workload.Kind = "nope"
	for i, spec := range cases {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
	rsp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"requests": 0}`))
	if err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()
	if rsp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid spec: HTTP %d, want 400", rsp.StatusCode)
	}
}

func TestWorkerHintExecution(t *testing.T) {
	// Both worker fields stay in the wire form and are ignored: a job
	// carrying them runs exactly like one that does not — same result
	// and state digests, same checkpoint bytes. The range checks stay: a
	// negative hint and an out-of-range Config.Workers fail validation,
	// and an oversized hint does not.
	run := func(spec JobSpec) (Result, []byte) {
		t.Helper()
		var last []byte
		var es engineSet
		res, err := es.execute(context.Background(), spec, ExecOptions{
			CheckpointEvery: 8,
			Checkpoint: func(ck *host.Checkpoint) (err error) {
				last, err = json.Marshal(ck)
				return err
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if last == nil {
			t.Fatal("no checkpoint delivered")
		}
		return res, last
	}
	spec := testSpec("plain", core.Table1Configs()[0], 4096)
	ref, refCk := run(spec)
	hinted := spec
	hinted.Config.Workers = 7
	hinted.Workload.Workers = 3
	got, gotCk := run(hinted)
	if got.ResultDigest != ref.ResultDigest || got.StateDigest != ref.StateDigest {
		t.Errorf("worker fields changed digests: %s/%s, want %s/%s",
			got.ResultDigest, got.StateDigest, ref.ResultDigest, ref.StateDigest)
	}
	if !bytes.Equal(gotCk, refCk) {
		t.Error("worker fields changed the final checkpoint")
	}
	oversized := spec
	oversized.Workload.Workers = 10 * core.MaxWorkers
	if _, err := Execute(context.Background(), oversized); err != nil {
		t.Errorf("oversized worker hint rejected: %v", err)
	}

	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 2})
	defer shutdownNow(t, m)
	bad := spec
	bad.Workload.Workers = -1
	if _, err := m.Submit(bad); err == nil {
		t.Error("negative worker hint accepted")
	}
	bad = spec
	bad.Config.Workers = core.MaxWorkers + 1
	if _, err := m.Submit(bad); err == nil {
		t.Error("out-of-range Config.Workers accepted")
	}
}

// TestConcurrentSubmitAndPoll hammers the API from many goroutines to
// give the race detector surface area over the manager's locking.
func TestConcurrentSubmitAndPoll(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 4, QueueDepth: 32})
	defer shutdownNow(t, m)
	cfg := core.Table1Configs()[0]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				st, err := m.Submit(testSpec(fmt.Sprintf("g%d-%d", g, i), cfg, 128))
				if errors.Is(err, ErrQueueFull) {
					continue
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				for !st.State.Terminal() {
					time.Sleep(time.Millisecond)
					st, err = m.Get(st.ID)
					if err != nil {
						t.Errorf("get: %v", err)
						return
					}
					m.List()
					m.Metrics().WriteJSON(io.Discard)
				}
			}
		}(g)
	}
	wg.Wait()
}
